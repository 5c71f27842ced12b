"""Finite-dimensional unital algebras by structure constants, bimodules,
Hochschild (co)homology, and a separability test by explicit linear solve."""

from __future__ import annotations

import itertools

from .linalg import ColumnSpan, Matrix, _insert, _reduce, sparse_sum
from .homology import (DEFAULT_COLUMN_CAP, Block, ChainComplexData, assemble,
                       check_degree)


class Algebra:
    """Unital associative algebra: b_i b_j = sum of c b_k over the sparse
    sc[i][j] = {k: c}, which holds nonzero constants only.  Elements, the
    unit among them, are sparse vectors {i: x} on the basis.  The unit and
    its left-to-right products with the basis vectors of generators span."""

    __slots__ = ("field", "dim", "sc", "unit", "generators")

    def __init__(self, field, dim, sc, unit):
        if len(sc) != dim or not all(
                len(row) == dim and all(isinstance(vec, dict) and all(
                    k in range(dim) and c for k, c in vec.items())
                    for vec in row) for row in sc):
            raise ValueError("structure constants have wrong shape")
        if not all(i in range(dim) and x for i, x in unit.items()):
            raise ValueError("unit vector has wrong shape")
        self.field = field
        self.dim = dim
        self.sc = sc
        self.unit = unit
        self.generators = self._generators()
        self._validate()

    def _generators(self):
        """b_i in turn when outside the closure of the unit under right
        multiplication by the generators so far, which grows incrementally.
        Candidates come by decreasing support of b_i A, then by index."""
        F = self.field
        pivots, closure, gens, frontier = {}, [], [], [self.unit]
        order = sorted(range(self.dim),
                       key=lambda i: (-len(set().union(*self.sc[i])), i))
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
        x(y(zz')), so generators suffice.  A failure reruns every triple."""
        if self._failure(self.generators):
            raise ValueError(self._failure(range(self.dim)))

    def _failure(self, ks):
        """The first failure of (b_i b_j) b_k = b_i (b_j b_k), k in ks, each
        side a sparse sum, then of the unit; None if there is none."""
        F = self.field
        sc = self.sc
        n = range(self.dim)
        for i in n:
            for j in n:
                ij = sc[i][j].items()
                for k in ks:
                    lhs = sparse_sum(F, ((c, sc[m][k]) for m, c in ij))
                    rhs = sparse_sum(F, ((c, sc[i][m])
                                         for m, c in sc[j][k].items()))
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
        """uv, a sum of constants over the nonzeros of u times those of v."""
        sc = self.sc
        return sparse_sum(self.field, ((a * b, sc[i][j])
                                       for i, a in u.items()
                                       for j, b in v.items()))

    def left_mult_matrix(self, v):
        """Matrix of x -> v*x: column j is v b_j, a sum of constants."""
        return Matrix(self.field, self.dim, self.dim, [
            sparse_sum(self.field, ((a, self.sc[i][j]) for i, a in v.items()))
            for j in range(self.dim)])

    def right_mult_matrix(self, v):
        """Matrix of x -> x*v: column j is b_j v, a sum of constants."""
        return Matrix(self.field, self.dim, self.dim, [
            sparse_sum(self.field, ((a, self.sc[j][i]) for i, a in v.items()))
            for j in range(self.dim)])

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

    def _sum(self, mats, coeffs):
        """sum of c * mats[k] over pairs (k, c), column by column."""
        F = self.algebra.field
        terms = [(c, mats[k]) for k, c in coeffs if c]
        return Matrix(F, self.dim, self.dim, [
            sparse_sum(F, ((c, m.columns[j]) for c, m in terms))
            for j in range(self.dim)])

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


def _hochschild_degree(algebra, n, span):
    """Degree n as blocks: one copy of M per n-tuple of basis indices.

    The tuple with mixed-radix index k sits at offset k * dim M, and every
    block shares the identity span of M.
    """
    tuples = itertools.product(range(algebra.dim), repeat=n)
    return {tup: Block(span, k * span.dim)
            for k, tup in enumerate(tuples)}


def _hochschild_chain_boundary(algebra, module, n):
    """b_n : A^{(x)n} (x) M -> A^{(x)(n-1)} (x) M, column-sparse.

    Faces of a_1 (x) ... (x) a_n (x) x: the first wraps a_1 onto the right
    of x, the middle ones multiply a_i a_{i+1}, the last applies a_n to x
    on the left (the classical bar-type boundary, written with the module
    slot last).
    """
    span = ColumnSpan(Matrix.identity(algebra.field, module.dim))
    lower = _hochschild_degree(algebra, n - 1, span)
    upper = _hochschild_degree(algebra, n, span)

    def faces():
        for tup, blk in upper.items():
            yield blk, lower[tup[1:]], module.right[tup[0]], 1
            for i in range(n - 1):
                for k, c in algebra.sc[tup[i]][tup[i + 1]].items():
                    merged = tup[:i] + (k,) + tup[i + 2:]
                    yield blk, lower[merged], None, (-1) ** (i + 1) * c
            yield blk, lower[tup[:-1]], module.left[tup[-1]], (-1) ** n

    return assemble(algebra.field, len(lower) * module.dim,
                    len(upper) * module.dim, faces())


def _hochschild_cochain_boundary(algebra, module, n):
    """delta^n : Hom(A^{(x)n}, M) -> Hom(A^{(x)(n+1)}, M), column-sparse.

    (delta f)(a_1,...,a_{n+1}) = a_1 f(a_2,...) + sum (-1)^i f(..a_i a_{i+1}..)
    + (-1)^{n+1} f(a_1,...,a_n) a_{n+1}.
    """
    span = ColumnSpan(Matrix.identity(algebra.field, module.dim))
    lower = _hochschild_degree(algebra, n, span)
    upper = _hochschild_degree(algebra, n + 1, span)

    def faces():
        for tup, blk in upper.items():
            yield lower[tup[1:]], blk, module.left[tup[0]], 1
            for i in range(n):
                for k, c in algebra.sc[tup[i]][tup[i + 1]].items():
                    merged = tup[:i] + (k,) + tup[i + 2:]
                    yield lower[merged], blk, None, (-1) ** (i + 1) * c
            yield lower[tup[:-1]], blk, module.right[tup[-1]], (-1) ** (n + 1)

    return assemble(algebra.field, len(upper) * module.dim,
                    len(lower) * module.dim, faces())


def _hochschild_dims(algebra, module, top, cap):
    """Dimensions of degrees 0..top, after the bimodule and cap checks."""
    check_over(module, algebra, "the given algebra")
    check_degree(top, algebra.dim, cap)
    cols = algebra.dim ** top * module.dim
    if cols > cap:
        raise ValueError(f"size cap exceeded: Hochschild degree {top} needs "
                         f"{cols} columns, more than {cap}")
    return [algebra.dim ** n * module.dim for n in range(top + 1)]


def hochschild_homology(algebra, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """Betti numbers of the Hochschild complex of A with values in M."""
    dims = _hochschild_dims(algebra, module, max_deg + 1, cap)
    boundaries = [None] + [_hochschild_chain_boundary(algebra, module, n)
                           for n in range(1, len(dims))]
    return ChainComplexData("chain", dims, boundaries).betti(max_deg)


def hochschild_cohomology(algebra, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """Betti numbers of Hochschild cohomology of A with values in M."""
    dims = _hochschild_dims(algebra, module, max_deg + 1, cap)
    boundaries = [_hochschild_cochain_boundary(algebra, module, n)
                  for n in range(len(dims) - 1)]
    return ChainComplexData("cochain", dims, boundaries).betti(max_deg)


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
