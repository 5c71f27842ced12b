"""Independent oracle routines used to freeze expected test values.

These deliberately avoid the library's complex builders: the rank oracle
enumerates minors, the group (co)homology oracles build the textbook
bar differentials over full tuple spaces with no projector machinery,
the algebra oracle checks associativity on dense structure constants,
the bimodule oracle checks the bimodule laws on every pair of basis
elements with dense matrices,
the crossed-product oracle multiplies dense vectors of L pair by pair,
and ``crossed_product_by_elimination`` is the sparse construction that
monomial actions' index tables replaced: quotient_space for N and one
label product per pair of section labels,
the unital-action oracle checks the action axioms pair by pair, the
resolution oracle fills dense boundary and homotopy matrices entry by entry,
the absolute Hochschild complex uses one copy of the bimodule per n-tuple of
algebra basis indices, with no idempotent family and no normalization,
``peirce_split_by_products`` forms each Peirce block e_i X e_j of the
relative complex from the product L_i R_j,
the monoid bar complexes (``bar_homology_complex``,
``bar_cohomology_complex``) have one summand per n-tuple of S, with no
D-class split and no group resolution,
and the inverse-monoid oracles find the natural order, sigma, E-unitarity
and the table of G(S) by search.  The monoid-table oracles compose every
pair of partial bijections of I_n and run from_table's checks one entry at
a time, on the generating set ``greedy_generators`` picks with a Python set
of each row's entries.  ``groupoid_failure`` is FiniteGroupoid's
validation with the scan over every composable triple that Light's test on
the table with a zero adjoined replaced.  ``bisection_masks_by_filter``
tests every subset of a groupoid's arrows for a bisection, and
``bisection_monoid_by_pairs`` multiplies each pair of bisections arrow by
arrow.
``ks_module_failure`` checks the KS-module law with whole matrix
products on the generators.  ``trivial_module_ke_by_columns`` and
``regular_ks_module_by_columns`` are the builders of KE(S) and KS that
index tables replaced: one dict column per basis vector of each action
matrix, law-checked by KSModule on the matrices.
DenseMatrix is the dense row-list matrix arithmetic that the
column-sparse Matrix replaced, kept as its reference; ``from_rows`` and
``from_cols`` write a column-sparse Matrix from nested lists.  The dense
vector helpers (``vec_sub``, ``vec_is_zero``, ``dense_mul``,
``dense_left_mult``, ``dense_apply``, ``dense_coords``) are the list-vector
arithmetic that the sparse {i: x} vectors replaced, kept as their
reference; ``dense_coords`` solves by textbook Gauss-Jordan.  FractionField is the scalar arithmetic that keeps every rational a
Fraction, kept as the reference for Field, which keeps integral
rationals as ints.  The Steinberg coefficients have their transported
reference: ``transport_bimodule`` pulls an A_K(G)-bimodule back along psi
to the crossed product, where ``crossed_coinvariants`` and
``crossed_invariants`` take M/[A,M] and M^A with gamma_s acting by
conjugation, after checking the KS-module law on all of M.
``build_parser`` is the argparse parser that the CLI's option table
replaced, kept as the reference for ``cli._parse``.
``sparse_sum_mul`` is ``Algebra.mul`` as one ``sparse_sum`` call over
every pair of nonzeros, the form the in-place product replaced, and
``rescaling_insert`` is ``_insert`` as it was before a pivot entry 1
skipped the rescale: it always multiplies by ``field.inv`` of the pivot
entry and stores a new dict.  ``left_mult_by_sparse_sum``,
``right_mult_by_sparse_sum`` and ``bimodule_sum_by_sparse_sum`` are the
multiplication and action matrices as one ``sparse_sum`` per column, the
form that the in-place column sums replaced, and ``image_basis_by_rref``
reads an image basis off the pivot columns of ``rref``; the oracles here
take their image bases from it.
"""

import argparse
import itertools
from fractions import Fraction

from invhom.algebras import Algebra, Bimodule, check_over
from invhom.cli import (_VERIFY_TARGETS, _betti_cmd, _crossed_product_cmd,
                        _resolution_cmd, _steinberg_cmd, _verify_cmd)
from invhom.homology import (DEFAULT_COLUMN_CAP, Block, ChainComplexData,
                             KSModule, _check_module, assemble, check_degree)
from invhom.linalg import (ColumnSpan, Matrix, _is_prime, _leaving, _reduce,
                           induced_map, kernel_basis, mat_rank,
                           quotient_space, rref, sparse_sum)
from invhom.monoids import MONOID_SIZE_CAP


class FractionField:
    """The coefficient field: Q (char 0) or F_p (char a prime)."""

    __slots__ = ("char",)

    def __init__(self, char=0):
        if char >= 1 << 64:
            raise ValueError(
                f"characteristic must be below 2^64, got {char}")
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        self.char = char

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def of(self, v):
        """Coerce an int / Fraction / 'p/q' string into the field."""
        if isinstance(v, str):
            try:
                v = Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"{v} has a zero denominator") from None
        if self.char == 0:
            return Fraction(v)
        if isinstance(v, Fraction):
            if v.denominator % self.char == 0:
                raise ValueError(f"{v} has no image in F_{self.char}")
            return (v.numerator * pow(v.denominator, -1, self.char)) % self.char
        return int(v) % self.char

    def add(self, a, b):
        c = a + b
        return c if self.char == 0 else c % self.char

    def mul(self, a, b):
        c = a * b
        return c if self.char == 0 else c % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.char == 0:
            return 1 / a
        return pow(a, -1, self.char)

    def to_token(self, a):
        """Serialize a scalar: exact 'p/q' string over Q, int over F_p."""
        if self.char == 0:
            return f"{a.numerator}/{a.denominator}"
        return int(a)

    def __eq__(self, other):
        return isinstance(other, FractionField) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"F{self.char}"


class DenseMatrix:
    """Dense matrix with rows stored as lists of field scalars: the reference
    arithmetic that the column-sparse ``Matrix`` must agree with."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(
                f"dimension mismatch: declared {rows}x{cols}, "
                f"got {len(data)} rows"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def zeros(field, rows, cols):
        z = field.zero
        return DenseMatrix(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, n):
        m = DenseMatrix.zeros(field, n, n)
        one = field.one
        for i in range(n):
            m.data[i][i] = one
        return m

    @staticmethod
    def from_rows(field, rows_data):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        data = [[field.of(v) for v in row] for row in rows_data]
        return DenseMatrix(field, rows, cols, data)

    @staticmethod
    def from_cols(field, ambient_dim, cols_data):
        m = DenseMatrix.zeros(field, ambient_dim, len(cols_data))
        for j, col in enumerate(cols_data):
            if len(col) != ambient_dim:
                raise ValueError("dimension mismatch in column data")
            for i, v in enumerate(col):
                m.data[i][j] = field.of(v)
        return m

    def col(self, j):
        return [row[j] for row in self.data]

    def is_zero(self):
        return all(not v for row in self.data for v in row)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        one = self.field.one
        for i, row in enumerate(self.data):
            for j, v in enumerate(row):
                if i == j:
                    if v != one:
                        return False
                elif v:
                    return False
        return True

    def hstack(self, other):
        if other.rows != self.rows or other.field != self.field:
            raise ValueError("dimension mismatch in hstack")
        return DenseMatrix(
            self.field, self.rows, self.cols + other.cols,
            [self.data[i] + other.data[i] for i in range(self.rows)],
        )

    def __matmul__(self, other):
        if self.cols != other.rows or self.field != other.field:
            raise ValueError(
                f"dimension mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        F = self.field
        out = DenseMatrix.zeros(F, self.rows, other.cols)
        # Accumulate over nonzero entries of `other` only; boundary matrices
        # downstream are sparse and this keeps composites cheap.
        for k, orow in enumerate(other.data):
            for j, v in enumerate(orow):
                if not v:
                    continue
                for i in range(self.rows):
                    a = self.data[i][k]
                    if a:
                        out.data[i][j] = F.add(out.data[i][j], F.mul(a, v))
        return out

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in apply")
        F = self.field
        out = [F.zero] * self.rows
        for k, v in enumerate(vec):
            if not v:
                continue
            for i in range(self.rows):
                a = self.data[i][k]
                if a:
                    out[i] = F.add(out[i], F.mul(a, v))
        return out

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in sum")
        F = self.field
        return DenseMatrix(
            F, self.rows, self.cols,
            [[F.add(a, b) for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in difference")
        F = self.field
        return DenseMatrix(
            F, self.rows, self.cols,
            [[F.add(a, F.neg(b)) for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
        )

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"DenseMatrix({self.field}, {self.rows}x{self.cols})"


def from_rows(field, rows_data):
    """The column-sparse Matrix with the given rows of field values."""
    rows = len(rows_data)
    cols = len(rows_data[0]) if rows else 0
    if any(len(row) != cols for row in rows_data):
        raise ValueError("dimension mismatch in row data")
    m = Matrix(field, rows, cols)
    for i, row in enumerate(rows_data):
        for j, v in enumerate(row):
            m.add_at(i, j, field.of(v))
    return m


def from_cols(field, ambient_dim, cols_data):
    """The column-sparse Matrix with the given columns of field values."""
    columns = []
    for col in cols_data:
        if len(col) != ambient_dim:
            raise ValueError("dimension mismatch in column data")
        columns.append({i: x for i, x in enumerate(map(field.of, col)) if x})
    return Matrix(field, ambient_dim, len(columns), columns)


def dense(m):
    """The column-sparse Matrix m as a DenseMatrix."""
    zero = m.field.zero
    return DenseMatrix(m.field, m.rows, m.cols,
                       [[m.columns[j].get(i, zero) for j in range(m.cols)]
                        for i in range(m.rows)])


def sparse(d):
    """The DenseMatrix d as a column-sparse Matrix."""
    return from_cols(d.field, d.rows, [d.col(j) for j in range(d.cols)])


def vec_sub(field, u, v):
    return [field.add(a, field.neg(b)) for a, b in zip(u, v)]


def vec_is_zero(u):
    return all(not a for a in u)


def dense_vec(vec, n):
    """The sparse vector vec as a list of n entries."""
    return [vec.get(i, 0) for i in range(n)]


def sparse_vec(vec):
    """The list vec as a sparse vector of its nonzero entries."""
    return {i: x for i, x in enumerate(vec) if x}


def dense_basis(field, n, i):
    return [field.one if k == i else field.zero for k in range(n)]


def dense_col(m, j):
    """Column j of the column-sparse Matrix m as a list."""
    return dense_vec(m.columns[j], m.rows)


def dense_mul(algebra, u, v):
    """uv for list vectors u, v of the algebra, entry by entry."""
    F = algebra.field
    out = [F.zero] * algebra.dim
    for i, a in enumerate(u):
        if not a:
            continue
        row = algebra.sc[i]
        for j, b in enumerate(v):
            if not b:
                continue
            c = F.mul(a, b)
            for k, s in row[j].items():
                out[k] = F.add(out[k], F.mul(c, s))
    return out


def dense_left_mult(algebra, v):
    """Matrix of x -> v*x for a list vector v: column j is v b_j."""
    F, d = algebra.field, algebra.dim
    return from_cols(F, d, [dense_mul(algebra, v, dense_basis(F, d, j))
                            for j in range(d)])


def dense_apply(m, vec):
    """The column-sparse Matrix m times the list vector vec."""
    if len(vec) != m.cols:
        raise ValueError("dimension mismatch in apply")
    F = m.field
    out = [F.zero] * m.rows
    for k, v in enumerate(vec):
        if v:
            for i, a in m.columns[k].items():
                out[i] = F.add(out[i], F.mul(a, v))
    return out


def dense_coords(B, vec):
    """x with B x = vec for the full-column-rank Matrix B and the list
    vector vec, by Gauss-Jordan on [B | vec]; ValueError outside its span."""
    if len(vec) != B.rows:
        raise ValueError("dimension mismatch in coords")
    F = B.field
    rows = [[B.columns[j].get(i, F.zero) for j in range(B.cols)] + [vec[i]]
            for i in range(B.rows)]
    r, pivots = gauss_jordan(DenseMatrix(F, B.rows, B.cols + 1, rows))
    if B.cols in pivots:
        raise ValueError("vector not in column span")
    return [r.data[k][B.cols] for k in range(B.cols)]


def det(field, rows):
    """Determinant by Laplace expansion (tiny matrices only)."""
    n = len(rows)
    if n == 0:
        return field.one
    if n == 1:
        return rows[0][0]
    total = field.zero
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        term = field.mul(rows[0][j], det(field, minor))
        if j % 2:
            term = field.neg(term)
        total = field.add(total, term)
    return total


def rank_by_minors(m):
    """Largest k with a nonsingular k x k submatrix."""
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = [[m.data[i][j] for j in cols] for i in rows]
                if det(m.field, sub):
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def gauss_jordan(m):
    """Textbook Gauss-Jordan: the RREF of m (a new matrix) and its pivots.

    Columns are scanned left to right.  The topmost nonzero entry at or
    below the current row is swapped up, scaled to 1, and cleared from
    every other row.
    """
    F = m.field
    a = [row[:] for row in m.data]
    pivots = []
    for j in range(m.cols):
        r = len(pivots)
        i = next((i for i in range(r, m.rows) if a[i][j]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = F.inv(a[r][j])
        a[r] = [F.mul(inv, x) for x in a[r]]
        for k in range(m.rows):
            c = a[k][j]
            if k != r and c:
                a[k] = [F.add(x, F.neg(F.mul(c, y)))
                        for x, y in zip(a[k], a[r])]
        pivots.append(j)
    return DenseMatrix(F, m.rows, m.cols, a), pivots


def bar_group_homology(group, module, max_deg):
    """Group homology of a left module via the inhomogeneous bar complex.

    C_n = K[G^n] (x) V; the boundary drops the last letter into the module
    (+1), merges adjacent letters, and drops the first letter ((-1)^n).
    """
    assert group.is_group()
    F = module.field
    dV = module.dim
    n_elts = group.size

    def dim_c(n):
        return n_elts ** n * dV

    def tuple_index(tup):
        idx = 0
        for g in tup:
            idx = idx * n_elts + g
        return idx

    def boundary(n):
        d = DenseMatrix.zeros(F, dim_c(n - 1), dim_c(n))
        for tup in itertools.product(range(n_elts), repeat=n):
            base = tuple_index(tup) * dV
            for j in range(dV):
                col = base + j
                v = [F.zero] * dV
                v[j] = F.one
                gv = dense_apply(module.act[tup[-1]], v)
                row0 = tuple_index(tup[:-1]) * dV
                for i, c in enumerate(gv):
                    if c:
                        d.data[row0 + i][col] = F.add(d.data[row0 + i][col], c)
                for i in range(1, n):
                    merged = tup[:i - 1] + (group.table[tup[i - 1]][tup[i]],) + tup[i + 1:]
                    sgn = F.of((-1) ** (n - i))
                    row = tuple_index(merged) * dV + j
                    d.data[row][col] = F.add(d.data[row][col], sgn)
                row_last = tuple_index(tup[1:]) * dV + j
                d.data[row_last][col] = F.add(d.data[row_last][col],
                                              F.of((-1) ** n))
        return d

    ranks = [mat_rank(sparse(boundary(n))) for n in range(1, max_deg + 2)]
    betti = [dim_c(0) - ranks[0]]
    for n in range(1, max_deg + 1):
        betti.append(dim_c(n) - ranks[n - 1] - ranks[n])
    return betti


def bar_group_cohomology(group, module, max_deg):
    """Group cohomology via the standard inhomogeneous cochain complex."""
    assert group.is_group()
    F = module.field
    dV = module.dim
    n_elts = group.size

    def dim_c(n):
        return n_elts ** n * dV

    def tuple_index(tup):
        idx = 0
        for g in tup:
            idx = idx * n_elts + g
        return idx

    def coboundary(n):
        d = DenseMatrix.zeros(F, dim_c(n + 1), dim_c(n))
        for tup in itertools.product(range(n_elts), repeat=n + 1):
            base = tuple_index(tup) * dV
            src = tuple_index(tup[1:]) * dV
            for j in range(dV):
                v = [F.zero] * dV
                v[j] = F.one
                gv = dense_apply(module.act[tup[0]], v)
                for i, c in enumerate(gv):
                    if c:
                        d.data[base + i][src + j] = F.add(
                            d.data[base + i][src + j], c)
            for i in range(1, n + 1):
                merged = tup[:i - 1] + (group.table[tup[i - 1]][tup[i]],) + tup[i + 1:]
                sgn = F.of((-1) ** i)
                srcm = tuple_index(merged) * dV
                for j in range(dV):
                    d.data[base + j][srcm + j] = F.add(d.data[base + j][srcm + j],
                                                       sgn)
            srcl = tuple_index(tup[:-1]) * dV
            sgn = F.of((-1) ** (n + 1))
            for j in range(dV):
                d.data[base + j][srcl + j] = F.add(d.data[base + j][srcl + j],
                                                   sgn)
        return d

    ranks = [mat_rank(sparse(coboundary(n))) for n in range(max_deg + 1)]
    betti = [dim_c(0) - ranks[0]]
    for n in range(1, max_deg + 1):
        betti.append(dim_c(n) - ranks[n] - ranks[n - 1])
    return betti


def is_associative(table):
    """(ij)k == i(jk) for every triple: the |S|^3 check."""
    n = range(len(table))
    return all(table[table[i][j]][k] == table[i][table[j][k]]
               for i in n for j in n for k in n)


def dense_algebra_check(field, dim, sc, unit):
    """The dim^3 associativity and unit check on dense structure constants,
    b_i b_j = sum_k sc[i][j][k] b_k, with its own dense product.

    Returns None for a unital associative algebra and otherwise the
    message of the first failure, triples in lexicographic order.
    """
    n = range(dim)

    def mul(u, v):
        out = [field.zero] * dim
        for i in n:
            for j in n:
                c = field.mul(u[i], v[j])
                for k in n:
                    out[k] = field.add(out[k], field.mul(c, sc[i][j][k]))
        return out

    basis = [[field.one if i == j else field.zero for i in n] for j in n]
    for i in n:
        for j in n:
            for k in n:
                if mul(sc[i][j], basis[k]) != mul(basis[i], sc[j][k]):
                    return f"not associative at ({i},{j},{k})"
    for i in n:
        if mul(unit, basis[i]) != basis[i] or mul(basis[i], unit) != basis[i]:
            return f"unit is not a two-sided identity at basis {i}"
    return None


def sparse_sum_mul(algebra, u, v):
    """uv as one sparse_sum of (a b, sc[i][j]) over the nonzeros a of u and
    b of v: each term (a b) c, in the order Algebra.mul sums them."""
    sc = algebra.sc
    return sparse_sum(algebra.field, ((a * b, sc[i][j])
                                      for i, a in u.items()
                                      for j, b in v.items()))


def left_mult_by_sparse_sum(algebra, v):
    """Algebra.left_mult_matrix as one sparse_sum per column: column j is
    the sum of a sc[i][j] over the nonzeros a of v."""
    F, sc, n = algebra.field, algebra.sc, algebra.dim
    return Matrix(F, n, n, [
        sparse_sum(F, ((a, sc[i][j]) for i, a in v.items()))
        for j in range(n)])


def right_mult_by_sparse_sum(algebra, v):
    """Algebra.right_mult_matrix as one sparse_sum per column: column j is
    the sum of a sc[j][i] over the nonzeros a of v."""
    F, sc, n = algebra.field, algebra.sc, algebra.dim
    return Matrix(F, n, n, [
        sparse_sum(F, ((a, sc[j][i]) for i, a in v.items()))
        for j in range(n)])


def bimodule_sum_by_sparse_sum(module, mats, coeffs, cols=None):
    """Bimodule._sum as one sparse_sum per column: the sum of c mats[k]
    over pairs (k, c) with c nonzero, with only the columns in cols
    computed when cols is given and the others left zero."""
    F = module.algebra.field
    terms = [(c, mats[k]) for k, c in coeffs if c]
    return Matrix(F, module.dim, module.dim, [
        sparse_sum(F, ((c, m.columns[j]) for c, m in terms))
        if cols is None or j in cols else {} for j in range(module.dim)])


def image_basis_by_rref(m):
    """The leftmost independent columns of m, read off the pivot columns
    of rref(m)."""
    _, pivots = rref(m)
    return Matrix(m.field, m.rows, len(pivots),
                  [dict(m.columns[j]) for j in pivots])


def rescaling_insert(field, pivots, v):
    """linalg._insert with every new pivot rescaled by the inverse of its
    top entry into a new dict, a top entry 1 included."""
    top = _reduce(field, pivots, v)
    if top is not None:
        inv = field.inv(v[top])
        pivots[top] = _leaving(
            field, {i: field.mul(a, inv) for i, a in v.items()})
    return top


def dense_bimodule_check(algebra, dim, left, right):
    """The dim^2 bimodule check on dense action matrices: the unit acts as
    the identity on both sides, then the left law, the right law and the
    commutation of the two actions at every basis pair (i, j).

    Returns None for a bimodule and otherwise the message of the first
    failure, pairs in lexicographic order.
    """
    F = algebra.field
    left = [dense(m) for m in left]
    right = [dense(m) for m in right]

    def action(mats, vec):
        out = DenseMatrix.zeros(F, dim, dim)
        for k, c in vec.items():
            out = out + DenseMatrix(F, dim, dim, [[F.mul(c, a) for a in row]
                                                  for row in mats[k].data])
        return out

    idm = DenseMatrix.identity(F, dim)
    if action(left, algebra.unit) != idm or action(right, algebra.unit) != idm:
        return "bimodule axioms fail: unit does not act as identity"
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            prod = algebra.sc[i][j]
            if left[i] @ left[j] != action(left, prod):
                return f"bimodule axioms fail: left action at ({i},{j})"
            if right[j] @ right[i] != action(right, prod):
                return f"bimodule axioms fail: right action at ({i},{j})"
            if left[i] @ right[j] != right[j] @ left[i]:
                return ("bimodule axioms fail: actions do not commute "
                        f"at ({i},{j})")
    return None


def is_inverse_monoid(table):
    """Associative, unital, regular, with commuting idempotents.

    A regular semigroup is inverse iff its idempotents commute, so this
    tests the definition through regularity (some x with s x s = s), not
    through uniqueness of inverses.
    """
    n = range(len(table))
    if not is_associative(table):
        return False
    if not any(all(table[e][x] == x == table[x][e] for x in n) for e in n):
        return False
    if not all(any(table[table[s][x]][s] == s for x in n) for s in n):
        return False
    idems = [e for e in n if table[e][e] == e]
    return all(table[e][f] == table[f][e] for e in idems for f in idems)


def symmetric_inverse_table_by_composition(n):
    """(table, unit) of I_n with each of the |I_n|^2 products composed as
    partial bijections, elements in symmetric_inverse_monoid's order."""
    elems = []
    for mask in range(1 << n):
        dom = [x for x in range(n) if mask >> x & 1]
        for img in itertools.permutations(range(1, n + 1), len(dom)):
            m = [0] * n
            for x, y in zip(dom, img):
                m[x] = y
            elems.append(tuple(m))
    index = {m: i for i, m in enumerate(elems)}
    # f after g, defined where g is and f is defined at g's image
    table = [[index[tuple(f[y - 1] if y else 0 for y in g)] for g in elems]
             for f in elems]
    return table, index[tuple(range(1, n + 1))]


def greedy_generators(table):
    """The generating set from_table keeps, by sets of row entries.

    Elements are taken greedily by decreasing right-ideal size |sS|, then
    by index; one not yet reached becomes a generator, and the reached set
    is closed again under right multiplication by the generators.
    """
    order = sorted(range(len(table)), key=lambda s: (-len(set(table[s])), s))
    gens = []
    reached = set()
    for g in order:
        if g in reached:
            continue
        gens.append(g)
        frontier = [g] + [table[x][g] for x in reached]
        while frontier:
            y = frontier.pop()
            if y not in reached:
                reached.add(y)
                frontier.extend(table[y][a] for a in gens)
    return gens


def from_table_failure(table, unit=None):
    """The message from_table refuses table with, or None: its checks one
    entry at a time, Light's test as a scan over (i, j, k) and the inverse
    search over every candidate x."""
    n = len(table)
    if n > MONOID_SIZE_CAP:
        return (f"size cap exceeded: monoid would have {n} elements, "
                f"more than {MONOID_SIZE_CAP}")
    for i, row in enumerate(table):
        if len(row) != n:
            return f"table row {i} has length {len(row)}, expected {n}"
        for v in row:
            if not (0 <= v < n):
                return f"table entry {v} out of range"
    gens = greedy_generators(table)
    for i in range(n):
        for j in range(n):
            for k in gens:
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return f"not associative at ({i},{j},{k})"
    units = [e for e in range(n)
             if all(table[e][x] == x and table[x][e] == x for x in range(n))]
    if not units:
        return "no identity"
    if unit is not None and unit not in units:
        return f"element {unit} is not a two-sided identity"
    for s in range(n):
        cands = [x for x in range(n)
                 if table[table[s][x]][s] == s and table[table[x][s]][x] == x]
        if not cands:
            return f"inverse missing for element {s}"
        if len(cands) > 1:
            return f"inverse not unique for element {s}: candidates {cands}"
    idems = [e for e in range(n) if table[e][e] == e]
    for e in idems:
        for f in idems:
            if table[e][f] != table[f][e]:
                return f"idempotents {e} and {f} do not commute"
    return None


def groupoid_failure(n_objects, src, rng, comp, inv, unit_of):
    """FiniteGroupoid's checks as they were before Light's test: the
    composable-triple associativity scan, then the units and inverses.

    Returns None for a groupoid and otherwise the message of the first
    failure.
    """
    n = len(src)
    for a in range(n):
        for b in range(n):
            if (comp[a][b] is not None) != (src[a] == rng[b]):
                return f"composition defined iff src=rng fails at ({a},{b})"
    for a in range(n):
        for b, ab in enumerate(comp[a]):
            if ab is None:
                continue
            for c, bc in enumerate(comp[b]):
                if bc is not None and comp[ab][c] != comp[a][bc]:
                    return f"composition not associative at ({a},{b},{c})"
    for x in range(n_objects):
        u = unit_of[x]
        if src[u] != x or rng[u] != x:
            return f"unit arrow of object {x} has wrong ends"
    for a in range(n):
        u_r = unit_of[rng[a]]
        u_s = unit_of[src[a]]
        if comp[u_r][a] != a or comp[a][u_s] != a:
            return f"units not neutral at arrow {a}"
        ai = inv[a]
        if src[ai] != rng[a] or rng[ai] != src[a]:
            return f"inverse of arrow {a} has wrong ends"
        if comp[a][ai] != u_r or comp[ai][a] != u_s:
            return f"inverse of arrow {a} is not two-sided"
    return None


def bisection_masks_by_filter(g):
    """Bitmasks of all bisections of g: every one of the 2^arrows subsets
    with distinct sources and distinct ranges, in increasing mask order."""
    masks = []
    for mask in range(1 << g.n_arrows):
        arrows = [a for a in range(g.n_arrows) if mask >> a & 1]
        srcs = {g.src[a] for a in arrows}
        rngs = {g.rng[a] for a in arrows}
        if len(srcs) == len(arrows) and len(rngs) == len(arrows):
            masks.append(mask)
    return masks


def _mask_product(g, m1, m2):
    out = 0
    for a in range(g.n_arrows):
        if not (m1 >> a & 1):
            continue
        for b in range(g.n_arrows):
            if not (m2 >> b & 1):
                continue
            c = g.comp[a][b]
            if c is not None:
                out |= 1 << c
    return out


def bisection_monoid_by_pairs(g, masks):
    """(table, unit, names) of the bisections with these masks: each pair
    multiplied over every pair of arrows, the unit the mask of the unit
    arrows, and each bisection named by its arrows."""
    index = {m: i for i, m in enumerate(masks)}
    table = [[index[_mask_product(g, m1, m2)] for m2 in masks] for m1 in masks]
    unit = index[sum(1 << u for u in g.unit_of)]
    names = ["{" + ",".join(str(a) for a in range(g.n_arrows)
                            if m >> a & 1) + "}" for m in masks]
    return table, unit, names


def natural_order_by_search(monoid):
    """leq[s][t] iff s = e t for some idempotent e."""
    idems = monoid.idempotents()
    leq = [[False] * monoid.size for _ in range(monoid.size)]
    for t in range(monoid.size):
        for e in idems:
            leq[monoid.table[e][t]][t] = True
    return leq


def sigma_classes_by_union_find(monoid):
    """The equivalence closure of the natural partial order, by union-find
    over all ordered pairs; classes are numbered by their least member."""
    leq = natural_order_by_search(monoid)
    parent = list(range(monoid.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in range(monoid.size):
        for t in range(monoid.size):
            if leq[s][t]:
                rs, rt = find(s), find(t)
                if rs != rt:
                    parent[max(rs, rt)] = min(rs, rt)
    roots = {}
    classes = []
    for s in range(monoid.size):
        r = find(s)
        if r not in roots:
            roots[r] = len(classes)
            classes.append([])
        classes[roots[r]].append(s)
    return classes


def is_e_unitary_by_scan(monoid):
    """True iff e <= s with e idempotent forces s idempotent, over E x S."""
    leq = natural_order_by_search(monoid)
    for e in monoid.idempotents():
        for s in range(monoid.size):
            if leq[e][s] and not monoid.is_idempotent(s):
                return False
    return True


def group_image_table_by_scan(monoid):
    """The table of S/sigma from every product of two members of two classes;
    raises ValueError unless all of them fall in one class."""
    classes = sigma_classes_by_union_find(monoid)
    proj = [0] * monoid.size
    for k, cls in enumerate(classes):
        for s in cls:
            proj[s] = k
    k = len(classes)
    table = [[0] * k for _ in range(k)]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            prods = {proj[monoid.table[a][b]] for a in ci for b in cj}
            if len(prods) != 1:
                raise ValueError(
                    f"induced table ill-defined on classes ({i},{j})"
                )
            table[i][j] = prods.pop()
    return table


def _matmul(char, a, b):
    """Row-by-column product of two square entry lists, reduced mod char."""
    out = []
    for row in a:
        acc = [0] * len(b)
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append([v % char for v in acc] if char else acc)
    return out


def is_module(table, unit, char, act):
    """act[unit] is the identity and the left action law
    act[st] = act[s] act[t] holds for every (s, t).

    ``act`` holds one square entry list per element.
    """
    n = range(len(table))
    dim = len(act[unit])
    if act[unit] != [[int(i == j) for j in range(dim)] for i in range(dim)]:
        return False
    for s in n:
        for t in n:
            if _matmul(char, act[s], act[t]) != act[table[s][t]]:
                return False
    return True


def ks_module_failure(monoid, act):
    """The message KSModule refuses the action act with, or None, once the
    shapes are right: act[unit] must be the identity, then the law
    act[s] @ act[g] == act[sg] is checked as a whole matrix product for
    every s and every generator g, the unit included, s outermost."""
    if not act[monoid.unit].is_identity():
        return "not a left module: unit does not act as identity"
    for s in range(monoid.size):
        for g in monoid.generators:
            if act[s] @ act[g] != act[monoid.table[s][g]]:
                return ("not a left module: action law fails at "
                        f"({monoid.name_of(s)},{monoid.name_of(g)})")
    return None


def trivial_module_ke_by_columns(monoid, field):
    """KE(S) with s.e = s e s^-1, each matrix written column by column."""
    idems = monoid.idempotents()
    pos = {e: i for i, e in enumerate(idems)}
    t = monoid.table
    one = field.one
    act = [Matrix(field, len(idems), len(idems),
                  [{pos[t[t[s][e]][monoid.inv[s]]]: one} for e in idems])
           for s in range(monoid.size)]
    return KSModule(monoid, field, len(idems), act)


def regular_ks_module_by_columns(monoid, field):
    """KS with s.t = st, each matrix written column by column."""
    n = monoid.size
    one = field.one
    act = [Matrix(field, n, n, [{monoid.table[s][t]: one} for t in range(n)])
           for s in range(n)]
    return KSModule(monoid, field, n, act)


def crossed_product_by_vectors(action):
    """A x_theta S from dense vectors of L, without validating the action.

    L has one block 1_s A per s.  Its product multiplies two vectors of L
    entry by entry, a d_s * b d_t = a T_s(b) d_st.  Every generator
    a d_s - a d_t (s < t) of N is multiplied by every basis vector of L on
    both sides, and each product must lie in N; the structure constants
    are the products of the section vectors.  Raises ValueError where the
    quotient is ill-defined; returns dim_N, the basis of N, sc, the unit,
    embed_A and gamma, the vectors among them sparse.
    """
    S = action.monoid
    A = action.algebra
    F = A.field
    d = A.dim
    labels, spans, offset = [], [], []
    for s, e in enumerate(action.one):
        span = ColumnSpan(image_basis_by_rref(
            dense_left_mult(A, dense_vec(e, d))))
        spans.append(span)
        offset.append(len(labels))
        labels.extend((s, j) for j in range(span.dim))
    l_dim = len(labels)

    def place(s, a_vec):
        out = [F.zero] * l_dim
        for i, c in enumerate(dense_coords(spans[s].basis, a_vec)):
            out[offset[s] + i] = c
        return out

    def l_mult(u, v):
        out = [F.zero] * l_dim
        for k1, c1 in enumerate(u):
            if not c1:
                continue
            s, j1 = labels[k1]
            a_vec = dense_col(spans[s].basis, j1)
            for k2, c2 in enumerate(v):
                if not c2:
                    continue
                t, j2 = labels[k2]
                w = dense_mul(A, a_vec, dense_apply(
                    action.theta[s], dense_col(spans[t].basis, j2)))
                if vec_is_zero(w):
                    continue
                st = S.table[s][t]
                c = F.mul(c1, c2)
                for i, cc in enumerate(dense_coords(spans[st].basis, w)):
                    if cc:
                        k = offset[st] + i
                        out[k] = F.add(out[k], F.mul(c, cc))
        return out

    gens = []
    for s in range(S.size):
        for t in range(S.size):
            if s != t and S.natural_leq(s, t):
                for j in range(spans[s].dim):
                    a_vec = dense_col(spans[s].basis, j)
                    gens.append(vec_sub(F, place(s, a_vec), place(t, a_vec)))
    q = quotient_space(F, l_dim, from_cols(F, l_dim, gens))

    def project(v):
        return dense_apply(q.projection, v)

    basis_elts = [dense_basis(F, l_dim, k) for k in range(l_dim)]
    for g in gens:
        for x in basis_elts:
            if not (vec_is_zero(project(l_mult(x, g)))
                    and vec_is_zero(project(l_mult(g, x)))):
                raise ValueError("induced multiplication ill-defined")

    section = [dense_col(q.section, i) for i in range(q.dim)]
    sc = [[sparse_vec(project(l_mult(u, v))) for v in section]
          for u in section]
    unit = project(place(S.unit, dense_vec(A.unit, d)))
    quotient = Algebra(F, q.dim, sc, sparse_vec(unit))
    basis_A = [dense_basis(F, d, i) for i in range(d)]
    embed = from_cols(F, q.dim, [
        project(place(S.unit, b)) for b in basis_A])
    if mat_rank(embed) != d:
        raise ValueError("A does not embed")
    for i in range(d):
        for j in range(d):
            if (dense_mul(quotient, dense_col(embed, i), dense_col(embed, j))
                    != dense_apply(embed, dense_mul(A, basis_A[i],
                                                    basis_A[j]))):
                raise ValueError("embedding not multiplicative")
    gamma = [project(place(s, dense_vec(action.one[s], d)))
             for s in range(S.size)]
    for s in range(S.size):
        for t in range(S.size):
            if dense_mul(quotient, gamma[s], gamma[t]) != gamma[S.table[s][t]]:
                raise ValueError("gamma not multiplicative")
    return {"dim_N": q.subspace_basis.cols, "subspace_basis": q.subspace_basis,
            "sc": sc, "unit": sparse_vec(unit), "embed_A": embed,
            "gamma": [sparse_vec(g) for g in gamma]}


def crossed_product_by_elimination(action):
    """A x_theta S as CrossedProduct formed it for every action before a
    monomial action was read off index tables, for a valid action.

    Each 1_s A is spanned by the leftmost independent columns of its own
    x -> 1_s x.  N is quotient_space of the a d_s - a d_t over s < t, with
    a's coordinates in block t solved by ColumnSpan.coords, and every
    product of two section labels is l_mult, a T_s(b) placed in block st,
    then projected.  Returns labels, n_space, sc, unit, embed_A and gamma.
    """
    S, A = action.monoid, action.algebra
    F = A.field
    spans = [ColumnSpan(image_basis_by_rref(A.left_mult_matrix(e)))
             for e in action.one]
    labels, offset = [], []
    for s, span in enumerate(spans):
        offset.append(len(labels))
        labels.extend((s, j) for j in range(span.dim))
    l_dim = len(labels)

    def place(s, a_vec):
        return {offset[s] + i: c for i, c in spans[s].coords(a_vec).items()}

    gens = []
    for s in range(S.size):
        for t in range(S.size):
            if s != t and S.natural_leq(s, t):
                for j, a in enumerate(spans[s].basis.columns):
                    gen = {offset[s] + j: F.one}
                    for i, c in spans[t].coords(a).items():
                        gen[offset[t] + i] = F.neg(c)
                    gens.append(gen)
    q = quotient_space(F, l_dim, Matrix(F, l_dim, len(gens), gens))

    def class_of(l_vec):
        return q.projection.apply(l_vec)

    def l_mult(k1, k2):
        (s, j1), (t, j2) = labels[k1], labels[k2]
        w = A.mul(spans[s].basis.columns[j1],
                  action.theta[s].apply(spans[t].basis.columns[j2]))
        return place(S.table[s][t], w) if w else {}

    sec = [i for col in q.section.columns for i in col]
    return {"labels": labels, "n_space": q,
            "sc": [[class_of(l_mult(a, b)) for b in sec] for a in sec],
            "unit": class_of(place(S.unit, A.unit)),
            "embed_A": Matrix(F, q.dim, A.dim, [
                class_of(place(S.unit, A.basis_vec(i)))
                for i in range(A.dim)]),
            "gamma": [class_of(place(s, action.one[s]))
                      for s in range(S.size)]}


def is_unital_action(action):
    """Every check of the pairwise unital-action validator, on DenseMatrix
    alone.

    Per element s: 1_s is a central idempotent, and T_s kills the
    complement of 1_s^-1 A, has image 1_s A, and is bijective and
    multiplicative on 1_s^-1 A.  Then 1_unit = 1_A and T_unit = id; for
    every pair (s, t), theta_s(1_s^-1 1_t) = 1_s 1_st and T_s T_t = T_st on
    1_t^-1 1_(st)^-1 A; 1_s 1_t = 1_s for s <= t; 1_ss^-1 = 1_s; and
    1_ef = 1_e 1_f for idempotents e, f.  Products come from the structure
    constants, inverses and the natural order from the Cayley table, and
    ranks from minors.
    """
    S = action.monoid
    A = action.algebra
    F = A.field
    table = S.table
    n = range(S.size)
    d = range(A.dim)
    one = [dense_vec(v, A.dim) for v in action.one]
    theta = [dense(t) for t in action.theta]
    inv = [next(x for x in n if table[table[s][x]][s] == s
                and table[table[x][s]][x] == x) for s in n]
    idems = [e for e in n if table[e][e] == e]
    basis = [[F.one if i == j else F.zero for i in d] for j in d]

    def mul(u, v):
        out = [F.zero] * A.dim
        for i in d:
            for j in d:
                c = F.mul(u[i], v[j])
                if c:
                    for k in d:
                        out[k] = F.add(out[k], F.mul(
                            c, A.sc[i][j].get(k, F.zero)))
        return out

    def left(v):
        return DenseMatrix.from_cols(F, A.dim, [mul(v, b) for b in basis])

    for s in n:
        e = one[s]
        if mul(e, e) != e or any(mul(e, b) != mul(b, e) for b in basis):
            return False
    if (one[S.unit] != dense_vec(A.unit, A.dim)
            or theta[S.unit] != DenseMatrix.identity(F, A.dim)):
        return False
    for s in n:
        T, dom, img = theta[s], left(one[inv[s]]), left(one[s])
        if T @ dom != T:
            return False
        r = rank_by_minors(T)
        if not r == rank_by_minors(img) == rank_by_minors(T.hstack(img)):
            return False
        if r != rank_by_minors(dom):
            return False
        cols = [dom.col(j) for j in d]
        if any(T.apply(mul(u, v)) != mul(T.apply(u), T.apply(v))
               for u in cols for v in cols):
            return False
    for s in n:
        for t in n:
            st = table[s][t]
            if theta[s].apply(mul(one[inv[s]], one[t])) != mul(one[s], one[st]):
                return False
            restrict = left(mul(one[inv[t]], one[inv[st]]))
            if theta[s] @ theta[t] @ restrict != theta[st] @ restrict:
                return False
            if (any(table[e][t] == s for e in idems)
                    and mul(one[s], one[t]) != one[s]):
                return False
        if one[table[s][inv[s]]] != one[s]:
            return False
    return all(one[table[e][f]] == mul(one[e], one[f])
               for e in idems for f in idems)


def dense_resolution(monoid, field, max_deg):
    """The free resolution of KE(S) and its homotopy as dense matrices.

    Returns (bases, boundary, homotopy): bases[n] lists the (t, tuple)
    pairs with t r(s_1...s_n) = t in order, boundary[0] is the
    augmentation P_0 -> KE(S) and boundary[n] is d_n : P_n -> P_{n-1},
    homotopy[0] is sigma_{-1} : KE(S) -> P_0 and homotopy[n + 1] is
    sigma_n : P_n -> P_{n+1}.  Every entry is written into a zero matrix.
    """
    idems = monoid.idempotents()
    epos = {e: i for i, e in enumerate(idems)}

    bases = []
    index = []
    for n in range(max_deg + 1):
        basis = []
        if n == 0:
            for t in range(monoid.size):
                basis.append((t, ()))
        else:
            for tup in itertools.product(range(monoid.size), repeat=n):
                r = monoid.rng(monoid.product(tup))
                for t in range(monoid.size):
                    if monoid.table[t][r] == t:
                        basis.append((t, tup))
        bases.append(basis)
        index.append({b: i for i, b in enumerate(basis)})

    def normalize(t, tup):
        if not tup:
            return (t, ())
        r = monoid.rng(monoid.product(tup))
        return (monoid.table[t][r], tup)

    one = field.one

    boundary = []
    d0 = DenseMatrix.zeros(field, len(idems), len(bases[0]))
    for col, (t, _) in enumerate(bases[0]):
        d0.data[epos[monoid.rng(t)]][col] = one
    boundary.append(d0)
    for n in range(1, max_deg + 1):
        d = DenseMatrix.zeros(field, len(bases[n - 1]), len(bases[n]))
        for col, (t, tup) in enumerate(bases[n]):
            terms = []
            if n == 1:
                terms.append((normalize(monoid.table[t][tup[0]], ()), 1))
                terms.append(((t, ()), -1))
            else:
                terms.append((normalize(monoid.table[t][tup[0]], tup[1:]), 1))
                for i in range(n - 1):
                    merged = (tup[:i] + (monoid.table[tup[i]][tup[i + 1]],)
                              + tup[i + 2:])
                    terms.append((normalize(t, merged), (-1) ** (i + 1)))
                terms.append((normalize(t, tup[:-1]), (-1) ** n))
            for target, sign in terms:
                row = index[n - 1][target]
                d.data[row][col] = field.add(d.data[row][col], field.of(sign))
        boundary.append(d)

    homotopy = []
    s_minus1 = DenseMatrix.zeros(field, len(bases[0]), len(idems))
    for j, e in enumerate(idems):
        s_minus1.data[index[0][(e, ())]][j] = one
    homotopy.append(s_minus1)
    for n in range(max_deg):
        s = DenseMatrix.zeros(field, len(bases[n + 1]), len(bases[n]))
        for col, (t, tup) in enumerate(bases[n]):
            target = normalize(monoid.rng(t), (t,) + tup)
            s.data[index[n + 1][target]][col] = one
        homotopy.append(s)
    return bases, boundary, homotopy



def _hochschild_degree(algebra, n, span):
    """Degree n as blocks: one copy of M per n-tuple of basis indices.

    The tuple with mixed-radix index k sits at offset k * dim M, and every
    block shares the identity span of M.
    """
    tuples = itertools.product(range(algebra.dim), repeat=n)
    return {tup: Block(span, k * span.dim)
            for k, tup in enumerate(tuples)}


def absolute_chain_boundary(algebra, module, n):
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


def absolute_cochain_boundary(algebra, module, n):
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


def absolute_hochschild_homology(algebra, module, max_deg,
                                 cap=DEFAULT_COLUMN_CAP):
    """Betti numbers of the absolute Hochschild complex of A with values in M."""
    dims = _hochschild_dims(algebra, module, max_deg + 1, cap)
    boundaries = [None] + [absolute_chain_boundary(algebra, module, n)
                           for n in range(1, len(dims))]
    return ChainComplexData("chain", dims, boundaries).betti(max_deg)


def absolute_hochschild_cohomology(algebra, module, max_deg,
                                   cap=DEFAULT_COLUMN_CAP):
    """Betti numbers of the absolute Hochschild cochain complex."""
    dims = _hochschild_dims(algebra, module, max_deg + 1, cap)
    boundaries = [absolute_cochain_boundary(algebra, module, n)
                  for n in range(len(dims) - 1)]
    return ChainComplexData("cochain", dims, boundaries).betti(max_deg)


def peirce_split_by_products(algebra, module, idempotents, chains):
    """RelativeBar's Peirce split with one product L_i R_j and one
    image_basis_by_rref per pair (i, j) of the family, on M and on B.

    Returns (spans, blocks, letters) as RelativeBar holds them, each span
    as its basis matrix: spans[a][b] spans e_a M e_b for cochains and
    e_b M e_a for chains; blocks[i, j] = (basis of e_i B e_j with e_i
    first when i = j, offset of its first letter, 1 if e_i leads it else
    0); the letters are the block bases less e_i, in block order.
    """
    A, F = algebra, algebra.field
    fam = [A.unit] if idempotents is None else list(idempotents)
    acts = [(module.left_action(e), module.right_action(e)) for e in fam]
    peirce = [[image_basis_by_rref(left @ right) for _, right in acts]
              for left, _ in acts]
    spans = [list(s) for s in zip(*peirce)] if chains else peirce
    blocks, letters = {}, []
    left = [A.left_mult_matrix(e) for e in fam]
    right = [A.right_mult_matrix(e) for e in fam]
    for i, j in itertools.product(range(len(fam)), repeat=2):
        d = int(i == j)
        cols = [fam[i]] * d + (left[i] @ right[j]).columns
        basis = image_basis_by_rref(Matrix(F, A.dim, len(cols), cols))
        blocks[i, j] = (basis, len(letters) - d, d)
        letters += basis.columns[d:]
    return spans, blocks, letters


def _degree_blocks(monoid, n, idempotent_of, module, cap):
    """Blocks of degree n by tuple, in lexicographic order by element index.

    A tuple's summand is the image of the action of its idempotent, so the
    blocks of one idempotent share one span, each at its own offset.
    """
    check_degree(n, monoid.size, cap)
    spans = {}
    blocks = {}
    offset = 0
    for tup in itertools.product(range(monoid.size), repeat=n):
        e = idempotent_of(tup)
        span = spans.get(e)
        if span is None:
            span = spans[e] = ColumnSpan(image_basis_by_rref(module.act[e]))
        blocks[tup] = Block(span, offset)
        offset += span.dim
        if offset > cap:
            raise ValueError(
                f"size cap exceeded: degree-{n} space needs more than {cap} columns"
            )
    return blocks, offset


def bar_homology_complex(monoid, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """The chain complex C'_n(S, V) with the alternating-sum boundary, over
    every n-tuple of S.

    A degree-n tuple is stored in the written order (s_n, ..., s_1); its
    summand is the image of act(d(s_n ... s_1)).
    """
    _check_module(monoid, module)

    def idempotent(tup):
        return monoid.dom(monoid.product(tup))

    degrees = [_degree_blocks(monoid, n, idempotent, module, cap)
               for n in range(max_deg + 1)]

    def faces(n):
        lower, _ = degrees[n - 1]
        for u, blk in degrees[n][0].items():
            # faces of (s_n, ..., s_1) stored as u = (u_1, ..., u_n):
            #   drop u_n acting by it (+1), merge u_j u_{j+1} ((-1)^(n-j)),
            #   drop u_1 ((-1)^n).
            yield blk, lower[u[:-1]], module.act[u[-1]], 1
            for j in range(n - 1):
                merged = u[:j] + (monoid.table[u[j]][u[j + 1]],) + u[j + 2:]
                yield blk, lower[merged], None, (-1) ** (n - 1 - j)
            yield blk, lower[u[1:]], None, (-1) ** n

    boundaries = [None] + [
        assemble(module.field, degrees[n - 1][1], degrees[n][1], faces(n))
        for n in range(1, max_deg + 1)]
    return ChainComplexData("chain", [d for _, d in degrees], boundaries)


def bar_cohomology_complex(monoid, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """The cochain complex C^n(S, V) over every n-tuple of S; summands are
    images of act(r(...))."""
    _check_module(monoid, module)

    def idempotent(tup):
        return monoid.rng(monoid.product(tup))

    degrees = [_degree_blocks(monoid, n, idempotent, module, cap)
               for n in range(max_deg + 2)]

    def faces(n):
        lower, _ = degrees[n]
        for w, blk in degrees[n + 1][0].items():
            # (delta sigma)(s_1..s_{n+1}) = s_1 sigma(s_2..) + sum (-1)^i
            # sigma(..s_i s_{i+1}..) + (-1)^(n+1) r(s_1..s_{n+1}) sigma(s_1..s_n)
            yield lower[w[1:]], blk, module.act[w[0]], 1
            for i in range(1, n + 1):
                merged = w[:i - 1] + (monoid.table[w[i - 1]][w[i]],) + w[i + 1:]
                yield lower[merged], blk, None, (-1) ** i
            yield lower[w[:-1]], blk, module.act[idempotent(w)], (-1) ** (n + 1)

    boundaries = [
        assemble(module.field, degrees[n + 1][1], degrees[n][1], faces(n))
        for n in range(max_deg + 1)]
    return ChainComplexData("cochain", [d for _, d in degrees], boundaries)


def transport_bimodule(module, crossed, psi):
    """Pull an A_K(G)-bimodule back along psi to the crossed product."""
    return Bimodule(crossed.algebra, module.dim,
                    [module.left_action(img) for img in psi.columns],
                    [module.right_action(img) for img in psi.columns])


def _crossed_ks_module(bimodule, crossed):
    """The left KS-module s.x = gamma_s x gamma_s^-1 on all of M."""
    S = crossed.action.monoid
    act = [bimodule.left_action(crossed.gamma[s])
           @ bimodule.right_action(crossed.gamma[S.inv[s]])
           for s in range(S.size)]
    return KSModule(S, bimodule.algebra.field, bimodule.dim, act)


def _commutator_maps(bimodule, crossed):
    return [bimodule.left_action(a) - bimodule.right_action(a)
            for a in crossed.embed_A.columns]


def crossed_coinvariants(bimodule, crossed):
    """M/[A,M] over the crossed product, with the induced KS-action."""
    ks = _crossed_ks_module(bimodule, crossed)
    F = bimodule.algebra.field
    gens = [col for diff in _commutator_maps(bimodule, crossed)
            for col in diff.columns if col]
    q = quotient_space(F, bimodule.dim,
                       Matrix(F, bimodule.dim, len(gens), gens))
    return KSModule(ks.monoid, F, q.dim,
                    [induced_map(m, q, q) for m in ks.act])


def crossed_invariants(bimodule, crossed):
    """M^A over the crossed product, with the restricted KS-action."""
    ks = _crossed_ks_module(bimodule, crossed)
    F = bimodule.algebra.field
    d = bimodule.dim
    diffs = _commutator_maps(bimodule, crossed)
    stacked = Matrix(F, len(diffs) * d, d)
    for i, diff in enumerate(diffs):
        for col, dcol in zip(stacked.columns, diff.columns):
            col.update((i * d + r, v) for r, v in dcol.items())
    basis = kernel_basis(stacked)
    span = ColumnSpan(basis)
    return KSModule(ks.monoid, F, basis.cols, [
        Matrix(F, basis.cols, basis.cols,
               [span.coords(col) for col in (m @ basis).columns])
        for m in ks.act])


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--field", default="q", help="q or fp:<p>")
    common.add_argument("--max-degree", type=int, default=2)
    common.add_argument("--seed", type=int, default=0,
                        help="accepted and ignored: no command reads it")
    common.add_argument("--cap-columns", type=int, default=DEFAULT_COLUMN_CAP)

    p = argparse.ArgumentParser(
        prog="invhom",
        description="Exact (co)homology of finite inverse monoids, "
                    "crossed products, and Steinberg algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, text):
        sp = sub.add_parser(name, parents=[common], help=text)
        sp.set_defaults(run=run)
        return sp

    for kind in ("homology", "cohomology"):
        sp = command(kind, _betti_cmd, f"{kind} of an inverse monoid")
        sp.add_argument("--monoid", required=True)
        sp.add_argument("--module", default="trivial-ke",
                        help="trivial-ke | regular-ks | file:PATH")

    sp = command("crossed-product", _crossed_product_cmd,
                 "build and check a crossed product")
    sp.add_argument("--action", required=True,
                    help="trivial:MONOID | ke:MONOID | file:PATH")

    sp = command("steinberg", _steinberg_cmd,
                 "bisections, convolution algebra, psi")
    sp.add_argument("--groupoid", required=True,
                    help="pair:N | group:z:N | discrete:N | file:PATH")

    sp = command("resolution-check", _resolution_cmd,
                 "resolution exactness self-check")
    sp.add_argument("--monoid", required=True)

    sp = command("verify", _verify_cmd, "run a named verifier")
    sp.add_argument("target", choices=tuple(_VERIFY_TARGETS))
    sp.add_argument("--action", help="for separable-* targets")
    sp.add_argument("--groupoid", help="for steinberg-* targets")
    sp.add_argument("--monoid", help="for ks-crossed-product")
    sp.add_argument("--module", default="regular",
                    help="regular | file:PATH")
    return p
