"""Exact linear algebra over Q and prime fields F_p.

Everything here is arbitrary-precision exact.  A rational that is an
integer is a Python ``int``, any other rational a ``fractions.Fraction``;
F_p scalars are ints in ``range(p)``.  No floats anywhere.

One matrix class, ``Matrix``, holds every linear map column-sparse:
``columns[j]`` maps a row to a nonzero scalar.  A vector has the same
form as a column, a dict ``{i: x}`` of its nonzero entries, so the zero
vector is ``{}`` and ``not v`` tests for it.
One sparse elimination loop, ``_reduce``, serves rank, rref, spans,
kernels and quotients.  Every basis it yields is fixed by definition, not
by the order of elimination: an image basis is the leftmost independent
columns, a kernel vector has 1 at its free column and 0 at the other free
columns, a quotient's section is the earliest standard vectors independent
of the subspace, and coordinates are unique.  ``image_span`` picks an
image basis and builds its span in one elimination, and ``image_basis``
is that span's basis.  ``column_sums`` forms a linear combination of
matrices, as every action matrix is, summing each column in place.
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


def _narrow(q):
    """The Fraction (or int) q, as an int when it is one."""
    return q.numerator if q.denominator == 1 else q


class Field:
    """The coefficient field: Q (char 0) or F_p (char a prime).

    Over Q, ``zero``, ``one``, ``of`` and ``inv`` give an integral value as
    an ``int`` and any other as a ``Fraction``; the two mix freely in
    arithmetic, and no scalar is ever a float.  So the many 0 and ±1
    entries of a boundary stay ints, and a ``Fraction`` only appears where
    a pivot is not ±1.
    """

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
        return 0

    @property
    def one(self):
        return 1

    def of(self, v):
        """Coerce an int / Fraction / 'p/q' string into the field."""
        if isinstance(v, str):
            try:
                v = Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"{v} has a zero denominator") from None
        if self.char == 0:
            return _narrow(Fraction(v))
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
            return int(a) if a in (1, -1) else _narrow(Fraction(1) / a)
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
    """Column-sparse matrix: columns[j] maps a row to its entry in column j,
    and holds nonzero entries only, so equal matrices have equal columns."""

    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field, rows, cols, columns=None):
        if columns is None:
            columns = [{} for _ in range(cols)]
        elif len(columns) != cols:
            raise ValueError(
                f"dimension mismatch: declared {rows}x{cols}, "
                f"got {len(columns)} columns"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.columns = columns

    @staticmethod
    def identity(field, n):
        one = field.one
        return Matrix(field, n, n, [{j: one} for j in range(n)])

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

    def nnz(self):
        return sum(len(col) for col in self.columns)

    def is_zero(self):
        return not any(self.columns)

    def is_identity(self):
        one = self.field.one
        return self.rows == self.cols and all(
            col == {j: one} for j, col in enumerate(self.columns))

    def hstack(self, other):
        if other.rows != self.rows or other.field != self.field:
            raise ValueError("dimension mismatch in hstack")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      [dict(col) for col in self.columns + other.columns])

    def __matmul__(self, other):
        if self.cols != other.rows or self.field != other.field:
            raise ValueError(
                f"dimension mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        # Column j of the product is self applied to column j of other,
        # summed here in place: a product has many short columns, and a
        # call per column would cost more than the sum.  A column that is a
        # single 1 at k, as in every partial permutation, picks column k.
        p = self.field.char
        out = []
        for ocol in other.columns:
            if len(ocol) == 1:
                (k, v), = ocol.items()
                if v == 1:
                    out.append(dict(self.columns[k]))
                    continue
            acc = {}
            for k, v in ocol.items():
                for i, a in self.columns[k].items():
                    acc[i] = acc.get(i, 0) + a * v
            out.append(_settled(p, acc))
        return Matrix(self.field, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times the sparse vector vec: a sum of columns."""
        columns = self.columns
        return sparse_sum(self.field, ((v, columns[k]) for k, v in vec.items()))

    def _plus(self, other, sign, what):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"dimension mismatch in {what}")
        return Matrix(self.field, self.rows, self.cols, [
            sparse_sum(self.field, ((1, a), (sign, b)))
            for a, b in zip(self.columns, other.columns)])

    def __add__(self, other):
        return self._plus(other, 1, "sum")

    def __sub__(self, other):
        return self._plus(other, -1, "difference")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def rank(self):
        """Rank by exact sparse column elimination over the field.

        Columns are inserted shortest first to limit fill-in, and carry no
        combination.
        """
        pivots = {}
        for col in sorted(self.columns, key=len):
            _insert(self.field, pivots, dict(col))
        return len(pivots)

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"


# perfbench/tracing.py times the rank under this name; it is the same class.
SparseCols = Matrix


def sparse_sum(field, terms):
    """sum of c * v over pairs (c, v) of a scalar and a sparse vector {i: x},
    as a sparse vector that holds nonzero entries only.  Over F_p the sums
    are reduced once, at the end."""
    out = {}
    for c, vec in terms:
        for i, x in vec.items():
            out[i] = out.get(i, 0) + c * x
    return _settled(field.char, out)


def column_sums(field, n, terms, cols=None):
    """The n columns of the sum of c * m over pairs (c, m) of a scalar and
    a list m of n sparse columns, each summed in place as a product column
    is; with cols, only those columns are summed and the others are {}.
    A single term with c = 1 copies its columns."""
    terms = [(c, m) for c, m in terms if c]
    out = [{} for _ in range(n)]
    js = range(n) if cols is None else cols
    if len(terms) == 1 and terms[0][0] == 1:
        m = terms[0][1]
        for j in js:
            out[j] = dict(m[j])
        return out
    p = field.char
    for j in js:
        acc = {}
        for c, m in terms:
            for i, x in m[j].items():
                acc[i] = acc.get(i, 0) + c * x
        out[j] = _settled(p, acc)
    return out


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


def _settled(p, sums):
    """The nonzero entries of the dict of sums, reduced mod p when p."""
    if p:
        return {i: x % p for i, x in sums.items() if x % p}
    return {i: x for i, x in sums.items() if x}


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

    Returns that row, or None when v lies in the span of the pivots.  At a
    pivot entry 1 the pivot may be v itself, so callers pass a copy.
    """
    top = _reduce(field, pivots, v)
    if top is not None:
        if v[top] != 1:
            inv = field.inv(v[top])
            v = {i: field.mul(a, inv) for i, a in v.items()}
        pivots[top] = _leaving(field, v)
    return top


def _leaving(field, vec):
    """vec as it leaves the elimination: over Q, a Fraction that is an
    integer becomes an int, so later reductions and products see ints.
    ``_reduce`` does not narrow, since its inner loop is the hot one."""
    if field.char:
        return vec
    return {i: _narrow(a) for i, a in vec.items()}


def _tagged(field, col, k):
    """A copy of the sparse column col, entering as input column k."""
    v = dict(col)
    v[-1 - k] = field.one
    return v


def _coords(field, pivots, v):
    """Coordinates {input column: nonzero coefficient} of the sparse column
    v on the tagged input columns that built pivots, or None when v is
    outside their span."""
    if _reduce(field, pivots, v) is not None:
        return None
    # v now holds only combination keys, and the input equals minus them.
    return _leaving(field, {-1 - k: field.neg(a) for k, a in v.items()})


def rref(m):
    """Reduced row echelon form (a new matrix) and its pivot columns.

    Columns are inserted left to right, so the pivot columns are the
    leftmost independent ones; any other column reduces to zero, and its
    combination writes it in the pivot columns before it.
    """
    F = m.field
    pivots = {}
    pcols = []
    r = Matrix(F, m.rows, m.cols)
    for j, col in enumerate(m.columns):
        v = _tagged(F, col, j)
        if _insert(F, pivots, v) is not None:
            r.columns[j] = {len(pcols): F.one}
            pcols.append(j)
            continue
        r.columns[j] = _leaving(F, {i: F.neg(v[-1 - p])
                                    for i, p in enumerate(pcols)
                                    if -1 - p in v})
    return r, pcols


def mat_rank(m):
    """Rank over the declared field (perfbench/tracing.py times it by this
    name)."""
    return m.rank()


def kernel_basis(m):
    """Basis of the right kernel, as matrix columns.

    Columns are produced in increasing order of their free variable, with
    the free variable's coordinate normalized to 1.
    """
    F = m.field
    r, pivots = rref(m)
    pivot_set = set(pivots)
    cols = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        col = {f: F.one}
        for i, a in r.columns[f].items():
            col[pivots[i]] = F.neg(a)
        cols.append(col)
    return Matrix(F, m.cols, len(cols), cols)


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
        for j, col in enumerate(basis.columns):
            if _insert(F, self.pivots, _tagged(F, col, j)) is None:
                raise ValueError("basis columns are linearly dependent")

    @property
    def dim(self):
        return self.basis.cols

    def coords(self, vec):
        """x with B x = vec, both sparse: {basis column: coefficient}."""
        if self.is_identity and (not vec or max(vec) < self.dim):
            return dict(vec)
        x = _coords(self.basis.field, self.pivots, dict(vec))
        if x is None:
            raise ValueError("vector not in column span")
        return x


def image_span(m):
    """The ColumnSpan of the leftmost independent columns of m, from one
    elimination.  Each column enters tagged with the place it would take in
    the basis, and one that does not insert leaves the pivots as they were,
    so they are the pivots ColumnSpan(basis) builds."""
    F = m.field
    pivots, cols = {}, []
    for col in m.columns:
        if _insert(F, pivots, _tagged(F, col, len(cols))) is not None:
            cols.append(dict(col))
    span = ColumnSpan.__new__(ColumnSpan)
    span.basis = Matrix(F, m.rows, len(cols), cols)
    span.is_identity = span.basis.is_identity()
    span.pivots = {} if span.is_identity else pivots
    return span


def image_basis(m):
    """The leftmost independent columns of m, as a matrix."""
    return image_span(m).basis


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

    def extend(cols):
        # A column that does not insert is dropped, so the next one may
        # take its tag.
        for col in cols:
            if _insert(field, pivots, _tagged(field, col, len(basis))) \
                    is not None:
                basis.append(dict(col))

    extend(span.columns)
    r = len(basis)
    extend({i: field.one} for i in range(ambient_dim))
    sub = Matrix(field, ambient_dim, r, basis[:r])
    section = Matrix(field, ambient_dim, ambient_dim - r, basis[r:])
    projection = Matrix(field, ambient_dim - r, ambient_dim, [
        {k - r: a for k, a in _coords(field, pivots, {i: field.one}).items()
         if k >= r}
        for i in range(ambient_dim)])
    q = QuotientSpace(ambient_dim, sub, projection, section)
    # The defining identities are cheap; verify them outright.
    assert (projection @ section).is_identity() or projection.rows == 0
    assert (projection @ sub).is_zero()
    return q


def label_quotient(field, ambient_dim, pairs):
    """quotient_space of the span of the e_a - e_b, (a, b) in pairs with
    a != b, by union-find.  e_a - e_b inserts iff a and b are not yet
    joined, so the subspace basis is the pairs that join two classes, in
    order.  A class less its least label is spanned by those pairs, so the
    section is the least label of each class, and the projection sends a
    label to its class."""
    parent = list(range(ambient_dim))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    one, neg = field.one, field.neg(field.one)
    basis = []
    for a, b in pairs:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            basis.append({a: one, b: neg})
    least = [a for a in range(ambient_dim) if parent[a] == a]
    cls = dict(zip(least, range(len(least))))
    return QuotientSpace(
        ambient_dim, Matrix(field, ambient_dim, len(basis), basis),
        Matrix(field, len(least), ambient_dim,
               [{cls[root(a)]: one} for a in range(ambient_dim)]),
        Matrix(field, ambient_dim, len(least), [{a: one} for a in least]))


def induced_map(f, dom, cod):
    """The unique map g with g∘dom.projection = cod.projection∘f.

    Raises "subspace not preserved" when f does not carry dom's subspace
    into cod's.
    """
    if f.cols != dom.ambient_dim or f.rows != cod.ambient_dim:
        raise ValueError("dimension mismatch between map and quotient data")
    pf = cod.projection @ f
    if not (pf @ dom.subspace_basis).is_zero():
        raise ValueError("subspace not preserved")
    g = pf @ dom.section
    assert g @ dom.projection == pf
    return g
