"""Exact linear algebra over Q and prime fields F_p.

Everything here is arbitrary-precision exact: rationals are
``fractions.Fraction``, F_p scalars are ints in ``range(p)``.  No floats
anywhere.

One sparse elimination loop, ``_reduce``, serves rank, rref, spans,
kernels and quotients.  Every basis it yields is fixed by definition, not
by the order of elimination: an image basis is the leftmost independent
columns, a kernel vector has 1 at its free column and 0 at the other free
columns, a quotient's section is the earliest standard vectors independent
of the subspace, and coordinates are unique.
"""

from __future__ import annotations

from fractions import Fraction


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    """Miller-Rabin with the prime bases up to 37: exact for p < 2^64."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
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

    def sub(self, a, b):
        c = a - b
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
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"F{self.char}"


class Matrix:
    """Dense matrix with rows stored as lists of field scalars."""

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
        return Matrix(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, n):
        m = Matrix.zeros(field, n, n)
        one = field.one
        for i in range(n):
            m.data[i][i] = one
        return m

    @staticmethod
    def from_rows(field, rows_data):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        data = [[field.of(v) for v in row] for row in rows_data]
        return Matrix(field, rows, cols, data)

    @staticmethod
    def from_cols(field, ambient_dim, cols_data):
        m = Matrix.zeros(field, ambient_dim, len(cols_data))
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
        return Matrix(
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
        out = Matrix.zeros(F, self.rows, other.cols)
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
        return Matrix(
            F, self.rows, self.cols,
            [[F.add(a, b) for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in difference")
        F = self.field
        return Matrix(
            F, self.rows, self.cols,
            [[F.sub(a, b) for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"


def combination(field, rows, cols, terms):
    """The rows x cols matrix sum of c * m over pairs (c, m) of a scalar and
    a matrix, summed in place."""
    out = Matrix.zeros(field, rows, cols)
    for c, m in terms:
        if not c:
            continue
        for orow, mrow in zip(out.data, m.data):
            for j, a in enumerate(mrow):
                if a:
                    orow[j] = field.add(orow[j], field.mul(c, a))
    return out


def sparse_sum(field, terms):
    """sum of c * v over pairs (c, v) of a scalar and a sparse vector {i: x},
    as a sparse vector that holds nonzero entries only."""
    out = {}
    for c, vec in terms:
        for i, x in vec.items():
            y = field.mul(c, x)
            out[i] = field.add(out[i], y) if i in out else y
    return {i: x for i, x in out.items() if x}


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]

def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]

def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]

def vec_is_zero(u):
    return all(not a for a in u)


def _reduce(field, pivots, v):
    """Reduce the sparse column v in place; return its largest row that has
    no pivot, or None once no row is left.

    v maps a row to a nonzero scalar.  pivots maps a row to the reduced
    column whose largest row it is, scaled so that entry is 1; v is
    reduced by its largest row until that row has no pivot.  Keys below 0
    are not rows: key -1-k carries the coefficient of input column k.  A
    column that enters as m_k with -1-k set to 1 stays equal to the
    combination of input columns that its negative keys name.
    """
    p = field.char
    while v:
        top = max(v)
        if top < 0:
            break
        pivot = pivots.get(top)
        if pivot is None:
            return top
        c = v[top]
        for i, a in pivot.items():
            x = v.get(i, 0) - c * a
            if p:
                x %= p
            if x:
                v[i] = x
            else:
                v.pop(i, None)
    return None


def _insert(field, pivots, v):
    """Reduce v and make it the pivot of the row it stops at, if any.

    Returns that row, or None when v lies in the span of the pivots.
    """
    top = _reduce(field, pivots, v)
    if top is not None:
        inv = field.inv(v[top])
        pivots[top] = {i: field.mul(a, inv) for i, a in v.items()}
    return top


def _tagged(field, vec, k):
    """The dense column vec, sparse, entering as input column k."""
    v = {i: a for i, a in enumerate(vec) if a}
    v[-1 - k] = field.one
    return v


def _coords(field, pivots, v, n):
    """Coordinates of the sparse column v on the n tagged input columns
    that built pivots, or None when v is outside their span."""
    if _reduce(field, pivots, v) is not None:
        return None
    # v now holds only combination keys, and the input equals minus them.
    x = [field.zero] * n
    for k, a in v.items():
        x[-1 - k] = field.neg(a)
    return x


def rref(m):
    """Reduced row echelon form (a new matrix) and its pivot columns.

    Columns are inserted left to right, so the pivot columns are the
    leftmost independent ones; any other column reduces to zero, and its
    combination writes it in the pivot columns before it.
    """
    F = m.field
    pivots = {}
    pcols = []
    r = Matrix.zeros(F, m.rows, m.cols)
    for j in range(m.cols):
        v = _tagged(F, m.col(j), j)
        if _insert(F, pivots, v) is not None:
            r.data[len(pcols)][j] = F.one
            pcols.append(j)
            continue
        for i, p in enumerate(pcols):
            r.data[i][j] = F.neg(v.get(-1 - p, F.zero))
    return r, pcols


def mat_rank(m):
    """Rank over the declared field, by the sparse kernel of SparseCols."""
    s = SparseCols(m.field, m.rows, m.cols)
    for i, row in enumerate(m.data):
        for j, v in enumerate(row):
            if v:
                s.columns[j][i] = v
    return s.rank()


def same_column_space(a, b):
    """Whether the columns of a and of b span the same subspace."""
    r = mat_rank(a)
    return r == mat_rank(b) == mat_rank(a.hstack(b))


def kernel_basis(m):
    """Basis of the right kernel, as matrix columns.

    Columns are produced in increasing order of their free variable, with
    the free variable's coordinate normalized to 1.
    """
    F = m.field
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    cols = []
    for f in free:
        col = [F.zero] * m.cols
        col[f] = F.one
        for i, p in enumerate(pivots):
            col[p] = F.neg(r.data[i][f])
        cols.append(col)
    return Matrix.from_cols(F, m.cols, cols)


class ColumnSpan:
    """A full-column-rank matrix with exact coordinate extraction.

    ``coords(v)`` solves B x = v and raises if v is outside the span, so
    every use doubles as an exact membership assertion.
    """

    __slots__ = ("basis", "pivots", "is_identity")

    def __init__(self, basis):
        self.basis = basis
        self.is_identity = basis.is_identity()
        self.pivots = {}
        if self.is_identity:
            return
        F = basis.field
        for j in range(basis.cols):
            if _insert(F, self.pivots, _tagged(F, basis.col(j), j)) is None:
                raise ValueError("basis columns are linearly dependent")

    @property
    def dim(self):
        return self.basis.cols

    def coords(self, vec):
        if len(vec) != self.basis.rows:
            raise ValueError("dimension mismatch in coords")
        if self.is_identity:
            return list(vec)
        x = _coords(self.basis.field, self.pivots,
                    {i: a for i, a in enumerate(vec) if a}, self.basis.cols)
        if x is None:
            raise ValueError("vector not in column span")
        return x

    def contains(self, vec):
        try:
            self.coords(vec)
            return True
        except ValueError:
            return False


def image_basis(m):
    """The leftmost independent columns of m, as a matrix."""
    _, pivots = rref(m)
    return Matrix.from_cols(m.field, m.rows, [m.col(j) for j in pivots])


class QuotientSpace:
    """Ambient space modulo a subspace, with exact projection and section."""

    __slots__ = ("ambient_dim", "subspace_basis", "projection", "section")

    def __init__(self, ambient_dim, subspace_basis, projection, section):
        self.ambient_dim = ambient_dim
        self.subspace_basis = subspace_basis
        self.projection = projection
        self.section = section

    @property
    def dim(self):
        return self.projection.rows

    def contains_in_subspace(self, vec):
        return vec_is_zero(self.projection.apply(vec))


def quotient_space(field, ambient_dim, span):
    """Quotient of K^ambient_dim by the column span of ``span``.

    Columns of span, then standard vectors, are inserted in order.  The
    subspace basis is the columns of span that insert: its leftmost
    independent ones.  The section is the standard vectors that still
    insert: the earliest ones independent of the subspace.  The
    projection takes the section coordinates of a vector in the basis
    [subspace | section].
    """
    if span.rows != ambient_dim:
        raise ValueError(
            f"dimension mismatch: span has {span.rows} rows, ambient is {ambient_dim}"
        )
    if span.field != field:
        raise ValueError("field mismatch between span and quotient")
    pivots = {}
    basis = []

    def extend(vecs):
        # A column that does not insert is dropped, so the next one may
        # take its tag.
        for vec in vecs:
            v = _tagged(field, vec, len(basis))
            if _insert(field, pivots, v) is not None:
                basis.append(vec)

    extend(span.col(j) for j in range(span.cols))
    r = len(basis)
    extend(Matrix.identity(field, ambient_dim).data)
    sub = Matrix.from_cols(field, ambient_dim, basis[:r])
    section = Matrix.from_cols(field, ambient_dim, basis[r:])
    coords = [_coords(field, pivots, {i: field.one}, ambient_dim)[r:]
              for i in range(ambient_dim)]
    projection = Matrix(field, ambient_dim - r, ambient_dim,
                        [list(row) for row in zip(*coords)])
    q = QuotientSpace(ambient_dim, sub, projection, section)
    # The defining identities are cheap; verify them outright.
    assert (projection @ section).is_identity() or projection.rows == 0
    assert (projection @ sub).is_zero()
    return q


def induced_map(f, dom, cod):
    """The unique map g with g∘dom.projection = cod.projection∘f.

    Raises "subspace not preserved" when f does not carry dom's subspace
    into cod's.
    """
    if f.cols != dom.ambient_dim or f.rows != cod.ambient_dim:
        raise ValueError("dimension mismatch between map and quotient data")
    moved = f @ dom.subspace_basis
    if not (cod.projection @ moved).is_zero():
        raise ValueError("subspace not preserved")
    g = cod.projection @ f @ dom.section
    assert g @ dom.projection == cod.projection @ f
    return g


class SparseCols:
    """Column-sparse matrix used for the large boundary operators.

    Each column is a dict row->scalar.  Rank, composites and zero tests
    all stay sparse.
    """

    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field, rows, cols):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.columns = [dict() for _ in range(cols)]

    def add_at(self, i, j, v):
        if not v:
            return
        col = self.columns[j]
        old = col.get(i)
        c = v if old is None else self.field.add(old, v)
        if c:
            col[i] = c
        else:
            del col[i]

    def is_zero(self):
        return all(not col for col in self.columns)

    def nnz(self):
        return sum(len(col) for col in self.columns)

    def compose(self, other):
        """self @ other, both column-sparse."""
        if self.cols != other.rows or self.field != other.field:
            raise ValueError("dimension mismatch in sparse product")
        out = SparseCols(self.field, self.rows, other.cols)
        F = self.field
        for j, ocol in enumerate(other.columns):
            acc = {}
            for k, v in ocol.items():
                for i, a in self.columns[k].items():
                    c = F.add(acc.get(i, F.zero), F.mul(a, v))
                    if c:
                        acc[i] = c
                    elif i in acc:
                        del acc[i]
            out.columns[j] = acc
        return out

    def rank(self):
        """Rank by exact sparse column elimination over the field.

        Columns are inserted shortest first to limit fill-in, and carry no
        combination.
        """
        pivots = {}
        for col in sorted(self.columns, key=len):
            _insert(self.field, pivots, dict(col))
        return len(pivots)
