"""Finite-dimensional unital algebras by structure constants, bimodules,
Hochschild (co)homology, and a separability test by explicit linear solve."""

from __future__ import annotations

import itertools
from operator import itemgetter

from .linalg import (Matrix, _insert, _reduce, _settled, column_sums,
                     image_basis, image_span, sparse_sum)
from .homology import (DEFAULT_COLUMN_CAP, Block, ChainComplexData, assemble,
                       check_degree)


def monomial_rows(rows, dim):
    """Each row of sparse vectors as symbols, k for {k: 1} and dim for {};
    None for a row with any other vector, or with one that is not a dict."""
    key = {((k, 1),): k for k in range(dim)}
    key[()] = dim
    get, items, out = key.get, dict.items, []
    for row in rows:
        try:
            syms = [get(tuple(items(v)), -1) for v in row]
        except TypeError:
            syms = [-1]
        out.append(None if -1 in syms else syms)
    return out


class Algebra:
    """Unital associative algebra: b_i b_j = sum of c b_k over the sparse
    sc[i][j] = {k: c}, which holds nonzero constants only.  Elements, the
    unit among them, are sparse vectors {i: x} on the basis.  The unit and
    its left-to-right products with the basis vectors of generators span.

    When every b_i b_j is a basis vector or 0, table is the product table
    with symbol dim for 0: table[i][j] = k for sc[i][j] = {k: 1}, and row
    and column dim all dim.  Otherwise table is None."""

    __slots__ = ("field", "dim", "sc", "unit", "generators", "table")

    def __init__(self, field, dim, sc, unit):
        # One pass over the constants builds the rows of the table; a row
        # that is not monomial is checked for shape entry by entry.
        if len(sc) != dim or any(len(row) != dim for row in sc):
            raise ValueError("structure constants have wrong shape")
        rows = monomial_rows(sc, dim)
        if not all(isinstance(vec, dict) and all(
                k in range(dim) and c for k, c in vec.items())
                for row, syms in zip(sc, rows) if syms is None for vec in row):
            raise ValueError("structure constants have wrong shape")
        if not all(i in range(dim) and x for i, x in unit.items()):
            raise ValueError("unit vector has wrong shape")
        self.field = field
        self.dim = dim
        self.sc = sc
        self.unit = unit
        self.table = None if None in rows else [
            syms + [dim] for syms in rows] + [[dim] * (dim + 1)]
        self.generators = self._generators()
        self._validate()

    def _generators(self):
        """b_i in turn when outside the closure of the unit under right
        multiplication by the generators so far, which grows incrementally.
        Candidates come by decreasing support of b_i A, then by index."""
        F = self.field
        pivots, closure, gens, frontier = {}, [], [], [self.unit]
        width = ([len(set(row)) - 1 for row in self.table] if self.table
                 else [len(set().union(*row)) for row in self.sc])
        order = sorted(range(self.dim), key=lambda i: (-width[i], i))
        for i in order:
            while frontier and len(closure) < self.dim:
                v = frontier.pop()
                if _insert(F, pivots, dict(v)) is not None:
                    closure.append(v)
                    frontier.extend(self.mul(v, {g: F.one}) for g in gens)
            if _reduce(F, pivots, {i: F.one}) is not None:
                gens.append(i)
                frontier = [self.mul(v, {i: F.one}) for v in closure]
        return gens

    def _validate(self):
        """Light's test: given the unit law, the z with (xy)z = x(yz) for all
        x, y hold 1 and are closed under products, (xy)(zz') = (x(yz))z' =
        x(y(zz')), so generators suffice.  When each b_i b_j is a basis
        vector or 0, it runs on the product table, with symbol dim for 0:
        both sides are then a symbol, (b_x b_y) b_g read through column g
        and b_x (b_y b_g) read through row x.  A failure reruns every
        triple as sparse sums."""
        n, rows, ks = self.dim, self.table, self.generators
        if rows is not None:
            if any(itemgetter(*rows[x])(col) != itemgetter(*col)(rows[x])
                   for col in ([row[g] for row in rows] for g in ks)
                   for x in range(n)):
                raise ValueError(self._failure(range(n)))
            ks = ()
        if self._failure(ks):
            raise ValueError(self._failure(range(n)))

    def _failure(self, ks):
        """The first failure of (b_i b_j) b_k = b_i (b_j b_k), k in ks, each
        side a sparse sum, then of the unit; None if there is none."""
        F = self.field
        sc = self.sc
        n = range(self.dim)
        for i, j, k in itertools.product(n, n, ks):
            lhs = sparse_sum(F, ((c, sc[m][k]) for m, c in sc[i][j].items()))
            rhs = sparse_sum(F, ((c, sc[i][m]) for m, c in sc[j][k].items()))
            if lhs != rhs:
                return f"not associative at ({i},{j},{k})"
        for i in n:
            b = self.basis_vec(i)
            if self.mul(self.unit, b) != b or self.mul(b, self.unit) != b:
                return f"unit is not a two-sided identity at basis {i}"
        return None

    def basis_vec(self, i):
        return {i: self.field.one}

    def mul(self, u, v):
        """uv, a sum of constants over the nonzeros of u times those of v,
        each term (a b) c as sparse_sum forms it, summed in place."""
        sc, out = self.sc, {}
        for i, a in u.items():
            row = sc[i]
            for j, b in v.items():
                ab = a * b
                for k, c in row[j].items():
                    out[k] = out.get(k, 0) + ab * c
        return _settled(self.field.char, out)

    def left_mult_matrix(self, v):
        """Matrix of x -> v*x: column j is v b_j, a sum of constants."""
        return Matrix(self.field, self.dim, self.dim, column_sums(
            self.field, self.dim, ((a, self.sc[i]) for i, a in v.items())))

    def right_mult_matrix(self, v):
        """Matrix of x -> x*v: column j is b_j v, a sum of constants."""
        return Matrix(self.field, self.dim, self.dim, column_sums(
            self.field, self.dim,
            ((a, [row[i] for row in self.sc]) for i, a in v.items())))

    def is_commutative(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.sc[i][j] != self.sc[j][i]:
                    return False
        return True

    def is_central_idempotent(self, v):
        if self.mul(v, v) != v:
            return False
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.mul(v, b) != self.mul(b, v):
                return False
        return True

    def __repr__(self):
        return f"Algebra({self.field}, dim={self.dim})"


def table_algebra(field, table, units):
    """The algebra with b_i b_j = b_{table[i][j]}, or 0 where it is None.

    Its unit is the sum of b_u over units.  Monoid, groupoid, matrix-unit
    and diagonal algebras all take this form.
    """
    n = len(table)
    one = field.one
    sc = [[{} if c is None else {c: one} for c in row] for row in table]
    return Algebra(field, n, sc, {u: one for u in units})


def field_algebra(field):
    """K itself as a 1-dimensional algebra."""
    return table_algebra(field, [[0]], [0])


def diagonal_algebra(field, n):
    """K^n with pointwise multiplication."""
    return table_algebra(field, [[i if i == j else None for j in range(n)]
                                 for i in range(n)], range(n))


def matrix_unit_table(n):
    """e_ij e_kl = [j=k] e_il, with e_ij at index i*n + j (None for 0)."""
    return [[a // n * n + b % n if a % n == b // n else None
             for b in range(n * n)] for a in range(n * n)]


def matrix_algebra(field, n):
    """n x n matrices; basis e_{ij} flattened row-major."""
    return table_algebra(field, matrix_unit_table(n),
                         [i * n + i for i in range(n)])


def dual_numbers(field):
    """K[x]/(x^2), basis (1, x)."""
    one = field.one
    sc = [[{0: one}, {1: one}],
          [{1: one}, {}]]
    return Algebra(field, 2, sc, {0: one})


def semigroup_algebra(field, monoid):
    """KS for a finite monoid given by its Cayley table."""
    return table_algebra(field, monoid.table, [monoid.unit])


class Bimodule:
    """A-bimodule by one left and one right action matrix per basis element."""

    __slots__ = ("algebra", "dim", "left", "right")

    def __init__(self, algebra, dim, left, right, validate=True):
        if len(left) != algebra.dim or len(right) != algebra.dim:
            raise ValueError("bimodule needs one action matrix per algebra basis")
        for m in itertools.chain(left, right):
            if m.rows != dim or m.cols != dim:
                raise ValueError("bimodule action matrix has wrong shape")
        self.algebra = algebra
        self.dim = dim
        self.left = left
        self.right = right
        if validate:
            self._validate()

    def _validate(self):
        """The laws at (i, g) for g in algebra.generators: the z with L_x L_z
        = L(xz) for all x hold 1 and are closed under products, L_x L(zz') =
        L(xz) L_z' = L(x(zz')); so are those with R_z R_x = R(xz), and then,
        as R(zz') = R_z' R_z, those with L_x R_z = R_z L_x.  A failure reruns
        every pair."""
        if self._failure(self.algebra.generators):
            raise ValueError(self._failure(range(self.algebra.dim)))

    def _failure(self, js):
        """The first failed law at (i, j), j in js, or None."""
        A = self.algebra
        idm = Matrix.identity(A.field, self.dim)
        if self.left_action(A.unit) != idm or self.right_action(A.unit) != idm:
            return "bimodule axioms fail: unit does not act as identity"
        for i in range(A.dim):
            for j in js:
                prod = A.sc[i][j].items()
                if self.left[i] @ self.left[j] != self._sum(self.left, prod):
                    return f"bimodule axioms fail: left action at ({i},{j})"
                if self.right[j] @ self.right[i] != self._sum(self.right, prod):
                    return f"bimodule axioms fail: right action at ({i},{j})"
                if self.left[i] @ self.right[j] != self.right[j] @ self.left[i]:
                    return ("bimodule axioms fail: actions do not commute "
                            f"at ({i},{j})")
        return None

    def _sum(self, mats, coeffs, cols=None):
        """sum of c * mats[k] over pairs (k, c); when cols is given, only
        its columns are computed and the others left zero."""
        F = self.algebra.field
        return Matrix(F, self.dim, self.dim, column_sums(
            F, self.dim, ((c, mats[k].columns) for k, c in coeffs), cols))

    def left_action(self, vec):
        return self._sum(self.left, vec.items())

    def right_action(self, vec):
        return self._sum(self.right, vec.items())


def check_over(module, algebra, what):
    """Refuse a bimodule whose algebra is not this one (same field and product)."""
    B = module.algebra
    if B is not algebra and (B.field.char != algebra.field.char
                             or B.dim != algebra.dim or B.sc != algebra.sc
                             or B.unit != algebra.unit):
        raise ValueError(f"bimodule is not over {what}")


def product_checks(f, target, basis, image_of_product, sub, gens):
    """(multiplicative, bimodule map) for a linear map f into target.

    basis lists the source basis in whatever form the caller holds it, with
    f.columns[k] the image of basis[k]; image_of_product(x, y) is f(xy) for
    x, y in that form.  sub lists (a, f(a)) for generators a of the
    subalgebra over which f must be a bimodule map.  gens lists (g, f(g))
    for the unit and the generators of the source (or for the whole basis):
    the z with f(xz) = f(x)f(z) for all x are closed under products.
    """
    pairs = list(zip(basis, f.columns))
    mult = all(image_of_product(x, g) == target.mul(fx, fg)
               for x, fx in pairs for g, fg in gens)
    bimod = all(image_of_product(a, x) == target.mul(fa, fx)
                and image_of_product(x, a) == target.mul(fx, fa)
                for a, fa in sub for x, fx in pairs)
    return mult, bimod


def generator_images(algebra, f):
    """product_checks' gens for a map f from algebra."""
    return [(x, f.apply(x)) for x in
            [algebra.unit, *map(algebra.basis_vec, algebra.generators)]]


def regular_bimodule(algebra):
    """The algebra as a bimodule over itself."""
    basis = [algebra.basis_vec(i) for i in range(algebra.dim)]
    return Bimodule(algebra, algebra.dim,
                    [algebra.left_mult_matrix(b) for b in basis],
                    [algebra.right_mult_matrix(b) for b in basis],
                    validate=False)


class RelativeBar:
    """The normalized Hochschild complex of B with values in M relative to
    E = K e_1 + ... + K e_m, for e_i orthogonal idempotents summing to 1.

    E is separable, so HH_*(B, M) = HH_*(B | E, M) (Hochschild, "Relative
    homological algebra", 1956), computed by the normalized relative complex
    (Loday, Cyclic Homology, 1.1).  The letters from i to j are a basis of
    e_i (B/E) e_j: the basis of the image of x -> e_i x e_j, taken with e_i
    first when i = j, less e_i.  Degree n has one block per key (j_0, a_1,
    .., a_n, j_n) of composable letters, with span spans[j_0][j_n]: e_{j_n} M
    e_{j_0} for chains, e_{j_0} M e_{j_n} for cochains.  With T[i][j] letters
    from i to j, degree n has sum T^n[j_0][j_n] keys; for every degree, keys
    and columns are counted and capped, after top squared, before any block
    is listed.
    """

    __slots__ = ("algebra", "spans", "blocks", "letters", "ends", "sides",
                 "dims", "degrees", "_merged")

    def __init__(self, algebra, module, idempotents, chains, top, cap):
        check_over(module, algebra, "the given algebra")
        A, F = algebra, algebra.field
        fam = [A.unit] if idempotents is None else list(idempotents)
        for (i, e), (j, f) in itertools.product(enumerate(fam), repeat=2):
            if not e or A.mul(e, f) != (e if i == j else {}):
                raise ValueError(f"idempotent family: member {i} is " + (
                    "zero" if not e else "not idempotent" if i == j
                    else f"not orthogonal to {j}"))
        if sparse_sum(F, ((1, e) for e in fam)) != A.unit:
            raise ValueError("idempotent family does not sum to the unit")
        self.algebra, m = algebra, range(len(fam))
        # e_i X e_j is the image of R_j on the basis of e_i X, the leftmost
        # independent columns of L_i.  These are the vectors image_basis(L_i
        # R_j) picks: L_i and R_j commute, and a column of L_i in the span of
        # earlier columns stays in it under R_j, so no other column of R_j
        # L_i is a pivot.  That holds with e_i put first, as on B for i = j.
        on_m = [image_basis(module.left_action(e)) for e in fam]
        right_m = [module.right_action(e) for e in fam]
        peirce = [[image_span(r @ x) for r in right_m] for x in on_m]
        self.spans = [list(s) for s in zip(*peirce)] if chains else peirce
        self.blocks, self.letters, self.ends = {}, [], []
        on_b = [image_basis(A.left_mult_matrix(e)) for e in fam]
        right_b = [A.right_mult_matrix(e) for e in fam]
        for i, j in itertools.product(m, m):
            d = int(i == j)
            cols = [fam[i]] * d + (right_b[j] @ on_b[i]).columns
            span = image_span(Matrix(F, A.dim, len(cols), cols))
            self.blocks[i, j] = (span, len(self.letters) - d, d)
            self.letters += span.basis.columns[d:]
            self.ends += [(i, j)] * (span.dim - d)
        # A letter from i to j acts on the right of M e_i and on the left of
        # e_j M only: just the columns their blocks' bases reach are formed.
        reach = [set().union(*(c for s in spans for c in s.basis.columns))
                 for spans in (*zip(*peirce), *peirce)]
        right = [module._sum(module.right, a.items(), reach[i])
                 for a, (i, _) in zip(self.letters, self.ends)]
        left = [module._sum(module.left, a.items(), reach[len(fam) + j])
                for a, (_, j) in zip(self.letters, self.ends)]
        # (first, last): a_1 acts on the right of chains, the left of cochains
        self.sides = (right, left) if chains else (left, right)
        check_degree(top, 1, cap)
        power, self.dims = [[int(i == j) for j in m] for i in m], []
        for n in range(top + 1):
            self.dims.append(sum(power[a][b] * self.spans[a][b].dim
                                 for a in m for b in m))
            if self.dims[n] > cap:
                raise ValueError(f"size cap exceeded: Hochschild degree {n} "
                                 f"needs {self.dims[n]} columns, more than {cap}")
            if sum(map(sum, power)) > cap:
                raise ValueError(f"size cap exceeded: degree {n} has "
                                 f"{sum(map(sum, power))} tuples, more than {cap}")
            power = [[sum(row[k] * self.ends.count((k, b)) for k in m)
                      for b in m] for row in power]
        self.degrees, self._merged = [], {}
        for n in range(top + 1):
            keys = [(j, j) for j in m] if n == 0 else [
                key[:-1] + (p, j) for key in self.degrees[-1]
                for p, (i, j) in enumerate(self.ends) if i == key[-1]]
            spans = [self.spans[key[0]][key[-1]] for key in keys]
            offsets = itertools.accumulate([0] + [s.dim for s in spans])
            self.degrees.append({key: Block(span, offset) for key, span, offset
                                 in zip(keys, spans, offsets)})

    def faces(self, key):
        """(face key, op, coefficient) per face of a key: a_1 acts on M (on
        the right for chains), each a_i a_{i+1} goes to B/E with sign (-1)^i,
        a_n acts on the other side with sign (-1)^n; ``coords`` checks it."""
        n, (first, last) = len(key) - 2, self.sides
        yield (self.ends[key[1]][1],) + key[2:], first[key[1]], 1
        for i in range(1, n):
            p, q = key[i], key[i + 1]
            if (p, q) not in self._merged:
                span, base, d = self.blocks[self.ends[p][0], self.ends[q][1]]
                x = span.coords(self.algebra.mul(self.letters[p],
                                                 self.letters[q]))
                self._merged[p, q] = [(base + k, c) for k, c in x.items()
                                      if k >= d]
            for r, c in self._merged[p, q]:
                yield key[:i] + (r,) + key[i + 2:], None, (-1) ** i * c
        yield key[:-2] + (self.ends[key[-2]][0],), last[key[-2]], (-1) ** n


def _hochschild_chain_boundary(bar, n):
    """b_n from degree n to n - 1 of a chain RelativeBar, column-sparse."""
    lower = bar.degrees[n - 1]
    return assemble(bar.algebra.field, bar.dims[n - 1], bar.dims[n], (
        (blk, lower[face], op, c) for key, blk in bar.degrees[n].items()
        for face, op, c in bar.faces(key)))


def _hochschild_cochain_boundary(bar, n):
    """delta^n from degree n to n + 1 of a cochain RelativeBar."""
    lower = bar.degrees[n]
    return assemble(bar.algebra.field, bar.dims[n + 1], bar.dims[n], (
        (lower[face], blk, op, c) for key, blk in bar.degrees[n + 1].items()
        for face, op, c in bar.faces(key)))


def hochschild_homology(algebra, module, max_deg, cap=DEFAULT_COLUMN_CAP,
                        idempotents=None):
    """Betti numbers of HH_*(A, M), relative to idempotents ([1] if None)."""
    bar = RelativeBar(algebra, module, idempotents, True, max_deg + 1, cap)
    return ChainComplexData("chain", bar.dims, [None] + [
        _hochschild_chain_boundary(bar, n)
        for n in range(1, max_deg + 2)]).betti(max_deg)


def hochschild_cohomology(algebra, module, max_deg, cap=DEFAULT_COLUMN_CAP,
                          idempotents=None):
    """Betti numbers of HH^*(A, M), relative to the family as above."""
    bar = RelativeBar(algebra, module, idempotents, False, max_deg + 1, cap)
    return ChainComplexData("cochain", bar.dims, [
        _hochschild_cochain_boundary(bar, n)
        for n in range(max_deg + 1)]).betti(max_deg)


def is_separable(algebra):
    """Solvability of the linear system for a separability idempotent.

    Unknowns x_{ij} for e = sum x_{ij} b_i (x) b_j in A (x) A^op, with
    mu(e) = 1 and (a (x) 1) e = (1 (x) a) e for every basis a.
    """
    A = algebra
    F = A.field
    d = A.dim
    nvar = d * d
    # The augmented system, right-hand side last.  Row k is the b_k
    # coefficient of mu(e) = 1.  Row d + (t d + p) d + q is the b_p (x) b_q
    # coefficient of (a_t (x) 1) e - (1 (x) a_t) e = 0, where
    # (a (x) 1) (b_i (x) b_j) = a b_i (x) b_j and
    # (1 (x) a) (b_i (x) b_j) = b_i (x) b_j a.
    system = Matrix(F, d + d ** 3, nvar + 1)
    for i, j in itertools.product(range(d), repeat=2):
        x = i * d + j
        for k, c in A.sc[i][j].items():
            system.add_at(k, x, c)
        for t in range(d):
            for p, c in A.sc[t][i].items():
                system.add_at(d + (t * d + p) * d + j, x, c)
            for q, c in A.sc[j][t].items():
                system.add_at(d + (t * d + i) * d + q, x, F.neg(c))
    for k, c in A.unit.items():
        system.add_at(k, nvar, c)
    coeffs = Matrix(F, system.rows, nvar, system.columns[:nvar])
    return coeffs.rank() == system.rank()
