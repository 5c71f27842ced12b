"""Finite inverse monoids given by validated Cayley tables.

Elements are integers 0..size-1.  The table is checked for associativity
by Light's test on a generating set, then for a two-sided unit and unique
generalized inverses, and the idempotents are checked to commute, so
anything that constructs an InverseMonoid really is one.
"""

from __future__ import annotations

import itertools
import math

# Light's test costs 2|S|^2 |A| lookups for a generating set A.  The cap is
# also what makes every element one byte, so from_table reads the whole
# table through a generator's column, and symmetric_inverse_monoid a row
# through a row, with one bytes.translate each: on a 2-vCPU Xeon under
# Python 3.11, from_table takes 1.0-1.8 ms for i:4 (|A| = 5) and 19-33 ms
# for a 256-element chain (A = S), and I_4 builds in 1.7-3.3 ms.  The
# monoid keeps those bytes for index tables, and lists for Python loops
# (bytes[i] costs twice list[i]).  I_5 (1,546 elements) fits in no byte;
# with lists of ints it would take 0.1-0.4 s to build and 0.8-1.0 s to
# validate, so every constructor refuses a larger monoid first.
MONOID_SIZE_CAP = 256


def check_size(size):
    """Refuse a monoid of more than MONOID_SIZE_CAP elements."""
    if size > MONOID_SIZE_CAP:
        raise ValueError(
            f"size cap exceeded: monoid would have {size} elements, "
            f"more than {MONOID_SIZE_CAP}")


class InverseMonoid:
    """A validated inverse monoid with its order and congruence in closed form.

    Natural order: s <= t iff s = ss^-1 t.  If s = et with e idempotent,
    then ss^-1 = e tt^-1 e, so ss^-1 t = e tt^-1 t = et = s.

    Minimum group congruence: s sigma t iff es = et for some idempotent e.
    The product z of all idempotents is the least one, so s sigma t iff
    zs = zt: from es = et multiply by z = ze; conversely take e = z.  The
    sigma-classes are the fibres of s -> zs, numbered by least member.

    E-unitary: e <= s with e idempotent means e = es, so s sigma 1; hence S
    is E-unitary iff the sigma-class of 1 is E(S).
    """

    __slots__ = ("size", "table", "rows", "cols", "inv", "unit", "names",
                 "generators", "_idempotents", "_sigma")

    def __init__(self, size, table, inv, unit, generators, names, rows, cols):
        self.size = size
        self.table = table
        self.rows, self.cols = rows, cols
        self.inv = inv
        self.unit = unit
        self.names = names
        # Every element is a left-to-right product of these.
        self.generators = generators
        self._idempotents = None
        self._sigma = None

    def product(self, elts):
        """Product of a sequence, left to right; unit for the empty one."""
        acc = self.unit
        for x in elts:
            acc = self.table[acc][x]
        return acc

    def name_of(self, s):
        if self.names is not None:
            return self.names[s]
        return str(s)

    def idempotents(self):
        if self._idempotents is None:
            self._idempotents = [e for e in range(self.size)
                                 if self.table[e][e] == e]
        return self._idempotents

    def is_idempotent(self, s):
        return self.table[s][s] == s

    def dom(self, s):
        """d(s) = s^-1 s."""
        return self.table[self.inv[s]][s]

    def rng(self, s):
        """r(s) = s s^-1."""
        return self.table[s][self.inv[s]]

    def natural_leq(self, s, t):
        """s <= t iff s = ss^-1 t."""
        return self.table[self.rng(s)][t] == s

    def _sigma_pass(self):
        """(classes, index): the fibres of s -> zs in one pass over s."""
        if self._sigma is None:
            zs = self.table[self.product(self.idempotents())]
            first, classes, index = {}, [], []
            for s in range(self.size):
                if zs[s] not in first:
                    first[zs[s]] = len(classes)
                    classes.append([])
                k = first[zs[s]]
                classes[k].append(s)
                index.append(k)
            self._sigma = classes, index
        return self._sigma

    def sigma_classes(self):
        """Partition of S by the minimum group congruence, classes numbered
        by their least member."""
        return self._sigma_pass()[0]

    def sigma_class_index(self):
        """Element -> index of its sigma-class."""
        return self._sigma_pass()[1][:]

    def is_group(self):
        return len(self.idempotents()) == 1

    def is_e_unitary(self):
        """True iff e <= s with e idempotent forces s idempotent."""
        classes, index = self._sigma_pass()
        return all(self.is_idempotent(s) for s in classes[index[self.unit]])

    def __repr__(self):
        return f"InverseMonoid(size={self.size})"


def light_test(table):
    """Check an n x n table with entries 0..n-1, n <= 256, for
    associativity; return its rows and columns as bytes and a generating set.

    The table is one bytes object, so reading a row at a column is a
    translate, padded to 256 bytes.  Ragged rows, or entries out of range
    (bytes() refuses -1 and 256), are scanned for the first fault.
    Light's test: the k with (ij)k = i(jk) for all i, j are closed under
    products, so only the generators k are tested, each by comparing the
    transposed table read through column k (byte j*n + i is (ij)k) with
    the columns jk (byte i of column jk is i(jk)); on a failure each row
    is compared per k, and a failing row is scanned for its first (j, k).
    """
    n = len(table)
    try:
        flat = b"".join(map(bytes, table))
    except ValueError:
        flat = b""
    if (len(flat) != n * n or flat.translate(None, bytes(range(n)))
            or any(len(row) != n for row in table)):
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
            if min(row) < 0 or max(row) >= n:
                bad = next(v for v in row if not 0 <= v < n)
                raise ValueError(f"table entry {bad} out of range")
    pad = bytes(256 - n)
    rows = [flat[i * n:i * n + n] for i in range(n)]
    cols = [flat[k::n] for k in range(n)]
    gens = _generators(rows, cols)
    flat_t = b"".join(cols)
    if any(flat_t.translate(cols[k] + pad)
           != b"".join(map(cols.__getitem__, cols[k])) for k in gens):
        for i, row in enumerate(table):
            if any(rows[i].translate(cols[k] + pad)
                   != cols[k].translate(rows[i] + pad) for k in gens):
                for j, k in itertools.product(range(n), gens):
                    if table[row[j]][k] != row[table[j][k]]:
                        raise ValueError(f"not associative at ({i},{j},{k})")
    return rows, cols, gens


def from_table(table, unit=None, names=None):
    """Validate a Cayley table, with rows of ints or bytes, and return the
    inverse monoid it defines.  The monoid keeps a table of lists itself
    (bytes rows are copied), so the caller must not change it."""
    n = len(table)
    check_size(n)
    rows, cols, gens = light_test(table)
    if n and isinstance(table[0], bytes):
        table = list(map(list, rows))
    pad = bytes(256 - n)
    ident = bytes(range(n))
    units = [e for e in range(n) if rows[e] == ident == cols[e]]
    if not units:
        raise ValueError("no identity")
    if unit is None:
        unit = units[0]
    elif unit not in units:
        raise ValueError(f"element {unit} is not a two-sided identity")
    # For any x with sxs = s (column s read at row s holds s), y = xsx has
    # sys = s and ysy = y; once the idempotents commute (row e and column e
    # agree on them), S is inverse and y is the inverse of s (Howie,
    # Fundamentals of Semigroup Theory, Thm 5.1.1).  On a failure every
    # candidate is scanned, so a missing or second inverse is named first.
    sxs = [rows[s].translate(cols[s] + pad) for s in range(n)]
    firsts = [row.find(s) for s, row in enumerate(sxs)]
    idems = bytes(e for e in range(n) if table[e][e] == e)
    if -1 in firsts or any(idems.translate(rows[e] + pad)
                           != idems.translate(cols[e] + pad) for e in idems):
        for s, row in enumerate(sxs):
            cands = [x for x in range(n)
                     if row[x] == s and table[table[x][s]][x] == x]
            if not cands:
                raise ValueError(f"inverse missing for element {s}")
            if len(cands) > 1:
                raise ValueError(f"inverse not unique for element {s}: "
                                 f"candidates {cands}")
        for e, f in itertools.product(idems, idems):
            if table[e][f] != table[f][e]:
                raise ValueError(f"idempotents {e} and {f} do not commute")
    inv = [table[table[x][s]][x] for s, x in enumerate(firsts)]
    return InverseMonoid(n, table, inv, unit, gens, names, rows, cols)


def _generators(rows, cols):
    """A generating set: every element is a left-to-right product of it.

    Elements are taken greedily by decreasing right-ideal size, then by
    index; one not yet reached becomes a generator.  Deleting row s's bytes
    from all 256 leaves 256 - |sS| of them.  The reached products are bytes:
    a new g adds every x g (column g read at them), then each new y adds
    its products with the generators (read through row y), and so on.
    """
    n = len(rows)
    every, pad = bytes(range(256)), bytes(256 - n)
    order = sorted(range(n),
                   key=lambda s: (len(every.translate(None, rows[s])), s))
    gens, reached = bytearray(), bytearray()
    for g in order:
        if g in reached:
            continue
        gens.append(g)
        found = reached.translate(cols[g] + pad) + bytes((g,))
        while found := bytes(dict.fromkeys(found.translate(None, reached))):
            reached += found
            found = b"".join([gens.translate(rows[y] + pad) for y in found])
    return list(gens)


def trivial_monoid():
    return from_table([[0]], unit=0, names=["1"])


def cyclic_group(n):
    """Z/n as an inverse monoid."""
    if n < 1:
        raise ValueError("cyclic_group needs n >= 1")
    check_size(n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return from_table(table, unit=0, names=[f"g{i}" for i in range(n)])


def chain_semilattice(n):
    """Chain e0 > e1 > ... > e_{n-1} with product = minimum (all idempotent)."""
    if n < 1:
        raise ValueError("chain_semilattice needs n >= 1")
    check_size(n)
    table = [[max(i, j) for j in range(n)] for i in range(n)]
    return from_table(table, unit=0, names=[f"e{i}" for i in range(n)])


def symmetric_inverse_monoid(n):
    """All partial bijections of {1..n} under composition.

    A partial bijection is its image bytes m: m[x] is the image of x + 1,
    or 0 where it is undefined.  Elements are listed by domain bitmask,
    then by the images of the domain in lexicographic order.
    """
    if n < 0:
        raise ValueError("symmetric_inverse_monoid needs n >= 0")
    # a rank-k partial bijection: a domain, an image, a bijection between;
    # the count stops as soon as it passes the cap, so every n is refused
    # at once
    size = 0
    for k in range(n + 1):
        size += math.comb(n, k) ** 2 * math.factorial(k)
        if size > MONOID_SIZE_CAP:
            raise ValueError(f"size cap exceeded: I_{n} has more than "
                             f"{MONOID_SIZE_CAP} elements")
    # Names: domain digits, then image bytes less 0s as digits; 0 is [].
    digits = bytes.maketrans(bytes(range(10)), b"0123456789")
    elems, names = [], []
    for mask in range(1 << n):
        dom = [x for x in range(n) if mask >> x & 1]
        head = "[%s->" % "".join(str(x + 1) for x in dom)
        for img in itertools.permutations(range(1, n + 1), len(dom)):
            m = [0] * n
            for x, y in zip(dom, img):
                m[x] = y
            elems.append(bytes(m))
            names.append(head + elems[-1].translate(digits, b"\0").decode()
                         + "]")
    names[0] = "[]"
    index = {m: i for i, m in enumerate(elems)}
    size = len(elems)

    # S_n and one rank-(n-1) idempotent generate I_n (Ganyushkin and
    # Mazorchuk 2009): here the adjacent transpositions and the identity on
    # {2..n}.  Only their rows are composed.  Entry g of row a is a after g,
    # defined where g is and a is defined at g's image: g read through 0
    # followed by a.  Row p.a is row p read at row a, so a breadth-first
    # walk of the right Cayley graph from the unit, whose edge p -> p.a is
    # entry a of row p, fills each row with one translate of row a through
    # row p (every entry is below the size cap of 256), and the rows stay
    # bytes until from_table has checked them.
    ident = bytes(range(1, n + 1))
    gens = [ident[:i] + bytes((i + 2, i + 1)) + ident[i + 2:]
            for i in range(n - 1)]
    gens += [b"\0" + ident[1:]] if n else []
    gen_rows = [(index[a], bytes(map(index.__getitem__, map(
        bytes.translate, elems, itertools.repeat(b"\0" + a + bytes(255 - n))))))
        for a in gens]
    pad = bytes(256 - size)
    unit = index[ident]
    rows = [None] * size
    rows[unit] = bytes(range(size))
    walk = [unit]
    for p in walk:
        row = rows[p]
        row_pad = row + pad
        for a, row_a in gen_rows:
            g = row[a]
            if rows[g] is None:
                rows[g] = row_a.translate(row_pad)
                walk.append(g)
    if len(walk) != size:
        raise ValueError(f"I_{n} walk reached {len(walk)} of {size} elements")
    return from_table(rows, unit=unit, names=names)


def direct_product(s, t):
    """Componentwise product monoid; index of (a, b) is a*|T| + b."""
    n = s.size * t.size
    check_size(n)
    table = [[0] * n for _ in range(n)]
    for a in range(s.size):
        for b in range(t.size):
            i = a * t.size + b
            for c in range(s.size):
                for d in range(t.size):
                    j = c * t.size + d
                    table[i][j] = s.table[a][c] * t.size + t.table[b][d]
    names = None
    if s.names is not None and t.names is not None:
        names = [f"({s.names[a]},{t.names[b]})"
                 for a in range(s.size) for b in range(t.size)]
    return from_table(table, unit=s.unit * t.size + t.unit, names=names)


def max_group_image(s):
    """The maximum group image G(S) = S/sigma, on the sigma-classes in the
    order of sigma_classes(); s.sigma_class_index() is the projection.

    With z the least idempotent, s -> zs is a homomorphism: s z s^-1 is
    idempotent, so zs zt = z(s z s^-1)st = zst.  Its fibres are the
    sigma-classes, so entry (i, j) is read off one member of each class.
    """
    classes = s.sigma_classes()
    proj = s.sigma_class_index()
    reps = [cls[0] for cls in classes]
    table = [[proj[s.table[a][b]] for b in reps] for a in reps]
    names = [f"[{s.name_of(a)}]" for a in reps]
    group = from_table(table, unit=proj[s.unit], names=names)
    if not group.is_group():
        raise ValueError("induced table ill-defined: quotient is not a group")
    return group
