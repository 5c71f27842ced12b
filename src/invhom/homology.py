"""Modules over the monoid algebra KS, and their (co)homology.

H_n(S, V) and H^n(S, V) are sums over the D-classes of S of the
(co)homology of a maximal subgroup G_e with coefficients in the K G_e-module
W_e (``d_class_summands``).  Each group term is computed from a free
resolution P of K over KG built from kernels (``group_resolution``): degree
n of P (x)_KG W and of Hom_KG(P, W) is W^(r_n), with r_n the rank of P_n,
so a complex grows with r_n and not with the |G|^n tuples of the bar
complex.  Every map is exact, over Q or F_p.

``assemble`` turns a stream of face terms into a boundary matrix, taking
every coordinate through the target summand's basis, an exact membership
check.  The Hochschild complexes are written through it, and so is a free
resolution of the span of idempotents over KS, with its contracting
homotopy, kept as a self-check (``build_resolution``).
"""

from __future__ import annotations

import itertools

from .linalg import (ColumnSpan, Matrix, _insert, image_span, kernel_basis,
                     monomial_rows)
from .monoids import from_table

DEFAULT_COLUMN_CAP = 50_000


class KSModule:
    """Finite-dimensional module over KS: one action matrix per element,
    or, where s sends basis vector j to basis vector index[s][j], one bytes
    row per element, checked as a table; then ``act`` forms the matrix of
    s the first time it is read.  In an index table of dim < 256, symbol
    dim is a zero column.  Matrices that send each basis vector to a basis
    vector, or below 256 dimensions to 0, are checked as that table too
    and kept as given.  A module checked as a table keeps it as ``index``;
    any other is checked by whole products, and its ``index`` is None."""

    __slots__ = ("monoid", "field", "dim", "act", "index")

    def __init__(self, monoid, field, dim, act=None, index=None):
        self.monoid, self.field, self.dim = monoid, field, dim
        self.index = index
        if index is not None:
            _check_index(monoid, dim, index)
            self.act = _FormedOnRead(field, index)
            return
        if len(act) != monoid.size:
            raise ValueError("module/monoid mismatch: need one matrix per element")
        for s, m in enumerate(act):
            if m.rows != dim or m.cols != dim or m.field != field:
                raise ValueError(f"action matrix for element {s} has wrong shape")
        self.act = act
        rows = monomial_rows([m.columns for m in act], dim)
        # Each symbol must fit a byte; below 256 dimensions all do, the
        # zero column's symbol dim included.
        if None not in rows and (
                dim < 256 or max(itertools.chain(*rows)) < 256):
            self.index = list(map(bytes, rows))
            _check_index(monoid, dim, self.index)
            return
        if not act[monoid.unit].is_identity():
            raise ValueError("not a left module: unit does not act as identity")
        # Each t is a left-to-right product of generators, so by induction
        # on its length and associativity of S, the law for every (s, g)
        # with g a generator gives it for every (s, t); g = 1 holds, since
        # act[1] = I.
        table = monoid.table
        laws = [g for g in monoid.generators if g != monoid.unit]
        for s, g in itertools.product(range(monoid.size), laws):
            if act[s] @ act[g] != act[table[s][g]]:
                raise ValueError(
                    "not a left module: action law fails at "
                    f"({monoid.name_of(s)},{monoid.name_of(g)})")


def _check_index(monoid, dim, index):
    """KSModule's checks on an index table.  Column j of act[s] @ act[g]
    is index[g][j] read through index[s], with the zero symbol read as
    itself, so the law at g is one comparison for all s at once, with the
    rows of the sg that column g of S lists; on a failure the (s, g) are
    scanned in KSModule's order."""
    if len(index) != monoid.size:
        raise ValueError("module/monoid mismatch: need one matrix per element")
    symbols = bytes(range(min(dim + 1, 256)))
    for s, row in enumerate(index):
        if len(row) != dim or row.translate(None, symbols):
            raise ValueError(f"action matrix for element {s} has wrong shape")
    if index[monoid.unit] != symbols[:dim]:
        raise ValueError("not a left module: unit does not act as identity")
    pad = symbols[dim:] * (256 - dim)  # the zero symbol; none at dim 256
    padded = [row + pad for row in index]
    laws = [g for g in monoid.generators if g != monoid.unit]
    if any(b"".join(map(index[g].translate, padded))
           != b"".join(map(index.__getitem__, monoid.cols[g])) for g in laws):
        for s, g in itertools.product(range(monoid.size), laws):
            if index[g].translate(padded[s]) != index[monoid.table[s][g]]:
                raise ValueError(
                    "not a left module: action law fails at "
                    f"({monoid.name_of(s)},{monoid.name_of(g)})")


class _FormedOnRead:
    """A read-only sequence of the matrices of an index table, each formed
    the first time it is read, with {} for the zero symbol; slices are
    lists."""

    __slots__ = ("field", "index", "formed")

    def __init__(self, field, index):
        self.field, self.index, self.formed = field, index, [None] * len(index)

    def __len__(self):
        return len(self.index)

    def __getitem__(self, s):
        if isinstance(s, slice):
            return list(map(self.__getitem__, range(*s.indices(len(self)))))
        if self.formed[s] is None:
            one, row = self.field.one, self.index[s]
            n = len(row)
            self.formed[s] = Matrix(self.field, n, n,
                                    [{i: one} if i < n else {} for i in row])
        return self.formed[s]


def trivial_module_ke(monoid, field):
    """KE(S) with s.e = s e s^-1: row s of its index table is E(S) read
    through row s, column s^-1 and the positions in E(S)."""
    idems = bytes(monoid.idempotents())
    pad = bytes(256 - monoid.size)
    pos = bytes.maketrans(idems, bytes(range(len(idems))))
    rows, cols, inv = monoid.rows, monoid.cols, monoid.inv
    index = [idems.translate(rows[s] + pad).translate(cols[inv[s]] + pad)
             .translate(pos) for s in range(monoid.size)]
    return KSModule(monoid, field, len(idems), index=index)


def regular_ks_module(monoid, field):
    """KS as a left module over itself: s acts by left multiplication, so
    the index table is the rows of S."""
    return KSModule(monoid, field, monoid.size, index=monoid.rows)


class Block:
    """One direct summand of a complex degree: its basis and first column."""

    __slots__ = ("span", "offset")

    def __init__(self, span, offset):
        self.span = span
        self.offset = offset


def assemble(field, rows, cols, terms):
    """The boundary matrix that a stream of face terms describes.

    Each term is (source block, target block, operator or None, coefficient)
    and adds coefficient * op(v) for every basis vector v of the source
    block, written in the target block's basis (None is the identity).  The
    coordinates come from the target's ``ColumnSpan.coords``, so a face
    that leaves its target summand raises instead of being dropped.  They
    are computed once per (source span, target span, op) and written at
    the offsets of every term that shares them.
    """
    d = Matrix(field, rows, cols)
    memo = {}
    for source, target, op, coeff in terms:
        # Spans hash by identity; op is keyed by id() and kept alive in the
        # value, so its id cannot be reused while the memo lives.
        key = (source.span, target.span, id(op))
        if key not in memo:
            memo[key] = (op, _images(source.span, target.span, op))
        c = field.of(coeff)
        for j, image in enumerate(memo[key][1], source.offset):
            for i, x in image.items():
                d.add_at(target.offset + i, j, field.mul(c, x))
    return d


def _images(source, target, op):
    """op(v) in target's basis, as {row: value}, for each basis vector v of
    source; ``coords`` checks exact membership of every vector."""
    images = source.basis
    if op is not None:
        # On an identity basis op(e_j) is column j of op, read directly.
        images = op if source.is_identity else op @ source.basis
    return [target.coords(col) for col in images.columns]


class ChainComplexData:
    """A chain ('chain') or cochain ('cochain') complex of K-spaces.

    For chains, boundaries[n] is delta'_n : C_n -> C_{n-1} (n >= 1).
    For cochains, boundaries[n] is delta^n : C^n -> C^{n+1} (n >= 0).
    Boundaries are stored column-sparse.
    """

    __slots__ = ("direction", "space_dims", "boundaries")

    def __init__(self, direction, space_dims, boundaries):
        self.direction = direction
        self.space_dims = space_dims
        self.boundaries = boundaries

    def check_composites(self):
        """Exact check that consecutive composites vanish."""
        maps = [d for d in self.boundaries if d is not None]
        if self.direction == "chain":
            maps.reverse()
        return all((b @ a).is_zero() for a, b in zip(maps, maps[1:]))

    def betti(self, max_deg):
        """Betti numbers b_0 .. b_max_deg, every rank by Matrix.rank.

        The complex must reach degree max_deg + 1.
        """
        if max_deg < 0:
            raise ValueError(f"max degree must be non-negative, got {max_deg}")
        # maps[n] and maps[n + 1] are the two boundaries touching degree n.
        maps = self.boundaries
        if self.direction == "cochain":
            maps = [None] + maps
        ranks = [0 if d is None else d.rank() for d in maps[:max_deg + 2]]
        return [self.space_dims[n] - ranks[n] - ranks[n + 1]
                for n in range(max_deg + 1)]


def _check_module(monoid, module):
    if module.monoid is not monoid and (
            module.monoid.size != monoid.size
            or module.monoid.table != monoid.table):
        raise ValueError("module/monoid mismatch")


def check_degree(n, letters, cap):
    """Refuse degree n if n * n is above cap, or if it has more than cap
    n-tuples of letters: each face copies an n-tuple, whatever the
    summands' dimensions.  n * n comes first, so the tuple count is never
    computed for a degree that large."""
    if n * n > cap:
        raise ValueError(f"size cap exceeded: degree {n} squared is more "
                         f"than {cap}")
    tuples = letters ** n
    if tuples > cap:
        raise ValueError(f"size cap exceeded: degree {n} has {tuples} "
                         f"tuples, more than {cap}")


def group_resolution(group, field, top, width, cap=DEFAULT_COLUMN_CAP):
    """d_0 .. d_top of a free resolution P of K over KG, built from kernels.

    P_n is free on e_1 .. e_(r_n); as a K-matrix, d_n has the column
    i |G| + g for g x_i, x_i = d_n(e_i).  P_0 = KG, d_0 the augmentation.
    The x_i are the ``kernel_basis`` vectors of d_{n-1} outside the span of
    the translates of those before them, so im d_n = ker d_{n-1}.  After
    top squared, degree n is refused when r_n |G| or r_n width (the columns
    of a complex over a module of that dimension) is above cap.
    """
    if not group.is_group():
        raise ValueError("not a group: the resolution is over a group algebra")
    check_degree(top, 1, cap)
    size, table = group.size, group.table

    def translates(x):
        return [{k - k % size + table[g][k % size]: c for k, c in x.items()}
                for g in range(size)]

    d = Matrix(field, 1, size, [{0: field.one} for _ in range(size)])
    maps = []
    for n in range(top + 1):
        if n:
            kernel, pivots, gens = kernel_basis(d), {}, []
            for x in kernel.columns:
                if len(pivots) == kernel.cols:
                    break
                # _insert returns the pivot row, and row 0 is falsy.
                if _insert(field, pivots, dict(x)) is not None:
                    gens.append(x)
                    for y in translates(x):
                        _insert(field, pivots, y)
            d = Matrix(field, d.cols, len(gens) * size,
                       [y for x in gens for y in translates(x)])
        maps.append(d)
        cols = d.cols // size * max(size, width)
        if cols > cap:
            raise ValueError(f"size cap exceeded: degree {n} needs {cols} "
                             f"columns, more than {cap}")
    return maps


def homology_complex(group, module, top, cap=DEFAULT_COLUMN_CAP):
    """The chain complex P (x)_KG W of degrees 0..top, for P from
    ``group_resolution`` (Brown, Cohomology of Groups, III.1).  Degree n is
    W^(r_n), and g e_j (x) w = e_j (x) g^-1 w, so d(e_i) = sum c_ijg g e_j
    gives the block (j, i) = sum c_ijg act(g^-1)."""
    return _group_complex(group, module, top, cap, False)


def cohomology_complex(group, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """The cochain complex Hom_KG(P, W) of degrees 0..max_deg + 1: f is
    (f(e_i))_i in W^(r_n), and (delta f)(e_i) = f(d e_i) gives the block
    (i, j) = sum c_ijg act(g)."""
    return _group_complex(group, module, max_deg + 1, cap, True)


def _group_complex(group, module, top, cap, dual):
    _check_module(group, module)
    F, size, dim = module.field, group.size, module.dim
    maps = group_resolution(group, F, top, dim, cap)
    act = module.act if dual else [module.act[g] for g in group.inv]
    boundaries = []
    for d in maps[1:]:
        shape = (d.rows // size * dim, d.cols // size * dim)
        out = Matrix(F, *(shape[::-1] if dual else shape))
        for i in range(d.cols // size):
            for k, c in d.columns[i * size + group.unit].items():
                j, g = divmod(k, size)
                r, s = (i, j) if dual else (j, i)
                for b, col in enumerate(act[g].columns):
                    for a, x in col.items():
                        out.add_at(r * dim + a, s * dim + b, F.mul(c, x))
        boundaries.append(out)
    return ChainComplexData("cochain" if dual else "chain",
                            [d.cols // size * dim for d in maps],
                            boundaries if dual else [None] + boundaries)


def d_class_summands(monoid, module):
    """(G_e, W_e) for each D-class of S: e is the class's least-index
    idempotent, G_e its maximal subgroup (the H-class of e), and W_e the
    K G_e-module [e]V, the image of act([e]).

    Over a field, s -> sum_{t <= s} [t] is an isomorphism of KS onto the
    algebra K𝒢 of the underlying groupoid 𝒢 of S, with objects E(S) and
    arrows s : d(s) -> r(s) (Steinberg, "Möbius functions and semigroup
    representation theory", JCTA 2006); its inverse sends [s] to
    sum_{t <= s} mu(t, s) t.  It carries KE(S) onto K𝒢^(0), so
    H_n(S, V) = Tor_n^KS(KE(S), V) is Tor_n^K𝒢(K𝒢^(0), V), and likewise
    for Ext.  The components of 𝒢 are the D-classes.  One [e] per
    component sum to a full idempotent, [e] K𝒢 [e] = K G_e, and [e] cuts
    K𝒢^(0) down to K, so by Morita invariance H_n(S, V) is the sum over
    the D-classes of H_n(G_e; [e]V), and the same for cohomology.  For g
    in G_e, [g] = [e] g and g [e] g^-1 = [e], so g acts on W_e as [g] does.

    On an index table (``module.index``) W_e is K[X_e].  The idempotents
    fixing a point x are a filter closed under products; e_x is the least.
    f < e_x sends x to 0 or to a y with e_y <= f, so the b_x = [e_x] x are
    unitriangular over the points, a basis of V.  s b_x = [s e_x] x is b_sx
    when e_x <= d(s), as f fixes sx iff s^-1 f s fixes x, so e_sx is
    s e_x s^-1; it is 0 otherwise.  So [e]V has basis the b_x with x in
    X_e = {x : e_x = e}, which G_e permutes as it permutes X_e; a g x
    outside X_e is refused.

    On any other module [e] = e prod_c (1 - c), c the lower covers of e,
    acts on V as act(e) prod_c (I - act(c)) (``mobius_idempotent``).
    Each g is restricted to W_e through ``coords``, an exact check
    that g keeps W_e.
    """
    return _d_class_split(monoid, module, module.index is not None)


def _d_class_split(monoid, module, by_table):
    """``d_class_summands``, with W_e from the index table or from [e]."""
    _check_module(monoid, module)
    table, act, index = monoid.table, module.act, module.index
    if by_table:
        # f < f' gives fS < f'S, so the first f in this order to fix x is
        # e_x; f fixes the points of its row, zero symbol aside.
        points, fixed = {}, {module.dim}
        for f in sorted(monoid.idempotents(), key=lambda f: len(set(table[f]))):
            points[f] = bytes(sorted(set(index[f]) - fixed))
            fixed.update(points[f])
    ranges, groups = {}, {}
    for s in range(monoid.size):
        d, r = monoid.dom(s), monoid.rng(s)
        ranges.setdefault(d, set()).add(r)
        if d == r:
            groups.setdefault(d, []).append(s)
    seen = set()
    for e in monoid.idempotents():
        if e in seen:
            continue
        # The D-class of e is {r(s) : d(s) = e}.
        seen |= ranges[e]
        h = groups[e]
        at = {s: i for i, s in enumerate(h)}
        group = from_table([[at[table[a][b]] for b in h] for a in h],
                           unit=at[e], names=[monoid.name_of(s) for s in h])
        if by_table:
            xs = points[e]
            rows = [bytes(map(index[g].__getitem__, xs)) for g in h]
            if any(row.translate(None, xs) for row in rows):
                raise ValueError("vector not in column span")
            pos = bytes.maketrans(xs, bytes(range(len(xs))))
            yield group, KSModule(group, module.field, len(xs),
                                  index=[row.translate(pos) for row in rows])
            continue
        w = image_span(mobius_idempotent(monoid, e, act))
        restricted = [Matrix(module.field, w.dim, w.dim,
                             [w.coords(col)
                              for col in (act[g] @ w.basis).columns])
                      for g in h]
        yield group, KSModule(group, module.field, w.dim, restricted)


def mobius_idempotent(monoid, e, act):
    """[e] = e prod_c (1 - c), the indicator of e's down-set in K𝒢^(0) less
    those of its lower covers c, as act[e] prod_c (I - act[c]).  One pass
    over E(S) finds the covers: each f below e either sits under a cover
    already kept, or replaces those under it."""
    table, covers = monoid.table, []
    for f in monoid.idempotents():
        if f == e or table[e][f] != f or any(table[c][f] == f for c in covers):
            continue
        covers = [c for c in covers if table[f][c] != c] + [f]
    eps = act[e]
    for c in covers:
        eps = eps - act[c] @ eps
    return eps


def _betti_sum(bettis):
    return [sum(b) for b in zip(*bettis)]


def homology(monoid, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """Betti numbers of H_0 .. H_max_deg of S with coefficients in module,
    summed over the D-classes (see ``d_class_summands``); ``cap`` bounds
    each summand's complex."""
    return _betti_sum(homology_complex(g, w, max_deg + 1, cap).betti(max_deg)
                      for g, w in d_class_summands(monoid, module))


def cohomology(monoid, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """Betti numbers of H^0 .. H^max_deg, summed over the D-classes."""
    return _betti_sum(cohomology_complex(g, w, max_deg, cap).betti(max_deg)
                      for g, w in d_class_summands(monoid, module))


class ResolutionComplex:
    """Free resolution of the span of idempotents, with homotopy maps.

    P_0 has basis {t()}; P_n has basis {t(s_1,...,s_n)} restricted by
    d(t) <= r(s_1...s_n).  ``complex`` is the augmented complex
    KE(S) <- P_0 <- ... <- P_max, so its degree m is P_{m-1} and its
    boundaries[1] is the augmentation d_0.  homotopy[m] is sigma_{m-1},
    from degree m to m + 1 (homotopy[0] is sigma_{-1}).
    """

    __slots__ = ("complex", "homotopy")

    def __init__(self, augmented, homotopy):
        self.complex = augmented
        self.homotopy = homotopy

    def dims(self):
        return self.complex.space_dims[1:]

    def verify_composites(self):
        return self.complex.check_composites()

    def verify_homotopy(self):
        """d_0 sigma_{-1} = id and d_{n+1} sigma_n + sigma_{n-1} d_n = id."""
        d = self.complex.boundaries
        for m, h in enumerate(self.homotopy):
            total = d[m + 1] @ h
            if m:
                total = total + self.homotopy[m - 1] @ d[m]
            if not total.is_identity():
                return False
        return True


def build_resolution(monoid, field, max_deg, cap=DEFAULT_COLUMN_CAP):
    """Free bases, boundary maps and contracting homotopy, exactly.

    Every basis element is a rank-one block, so every map is written by
    ``assemble``.  The identification t(s_1,...,s_n) = t*r(s_1...s_n)
    (s_1,...,s_n) normalizes every symbol onto the restricted basis; with
    r() = 1 it holds in degree 0 too.
    """
    if max_deg < 0:
        raise ValueError(f"max degree must be non-negative, got {max_deg}")
    table = monoid.table
    line = ColumnSpan(Matrix.identity(field, 1))
    ke = {e: Block(line, i) for i, e in enumerate(monoid.idempotents())}
    rng = {}
    bases = []
    for n in range(max_deg + 1):
        check_degree(n, monoid.size, cap)
        basis = {}
        for tup in itertools.product(range(monoid.size), repeat=n):
            r = rng[tup] = monoid.rng(monoid.product(tup))
            for t in range(monoid.size):
                if table[t][r] == t:
                    basis[t, tup] = Block(line, len(basis))
        if len(basis) > cap:
            raise ValueError(
                f"size cap exceeded: resolution degree {n} needs {len(basis)} basis elements"
            )
        bases.append(basis)
    dims = [len(ke)] + [len(basis) for basis in bases]

    def symbol(t, tup):
        return bases[len(tup)][table[t][rng[tup]], tup]

    def faces(n):
        if n == 0:
            # the augmentation d_0 t() = r(t)
            for (t, _), blk in bases[0].items():
                yield blk, ke[monoid.rng(t)], None, 1
            return
        # d_n t(s_1..s_n) = (t s_1)(s_2..s_n)
        #   + sum_i (-1)^i t(..s_i s_{i+1}..) + (-1)^n t(s_1..s_{n-1})
        for (t, tup), blk in bases[n].items():
            yield blk, symbol(table[t][tup[0]], tup[1:]), None, 1
            for i in range(n - 1):
                merged = tup[:i] + (table[tup[i]][tup[i + 1]],) + tup[i + 2:]
                yield blk, symbol(t, merged), None, (-1) ** (i + 1)
            yield blk, symbol(t, tup[:-1]), None, (-1) ** n

    def sigma(n):
        # sigma_{-1} e = e() and sigma_n t(s_1..s_n) = r(t)(t, s_1, .., s_n)
        if n < 0:
            return ((blk, symbol(e, ()), None, 1) for e, blk in ke.items())
        return ((blk, symbol(monoid.rng(t), (t,) + tup), None, 1)
                for (t, tup), blk in bases[n].items())

    # Degree n + 1 of the augmented complex is P_n.
    boundaries = [None] + [assemble(field, dims[n], dims[n + 1], faces(n))
                           for n in range(max_deg + 1)]
    homotopy = [assemble(field, dims[n + 2], dims[n + 1], sigma(n))
                for n in range(-1, max_deg)]
    return ResolutionComplex(ChainComplexData("chain", dims, boundaries),
                             homotopy)
