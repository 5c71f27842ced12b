"""Finite inverse monoids given by validated Cayley tables.

Elements are integers 0..size-1.  The table is checked for associativity
by Light's test on a generating set, then for a two-sided unit and unique
generalized inverses, and the idempotents are checked to commute, so
anything that constructs an InverseMonoid really is one.
"""

from __future__ import annotations

import itertools
import math

# Light's test costs |S|^2 |A| steps for a generating set A: 0.015 s for
# i:4 (|A| = 5) and 0.7 s for a 256-element chain (A = S) on one Xeon core.
# Building the table of i:5 (1,546 elements) is the wall, so every
# constructor refuses a larger monoid before building its table.
MONOID_SIZE_CAP = 256


def check_size(size):
    """Refuse a monoid of more than MONOID_SIZE_CAP elements."""
    if size > MONOID_SIZE_CAP:
        raise ValueError(
            f"size cap exceeded: monoid would have {size} elements, "
            f"more than {MONOID_SIZE_CAP}")


class InverseMonoid:
    __slots__ = ("size", "table", "inv", "unit", "names", "generators",
                 "_idempotents", "_sigma", "_leq")

    def __init__(self, size, table, inv, unit, generators, names=None):
        self.size = size
        self.table = table
        self.inv = inv
        self.unit = unit
        self.names = names
        # Every element is a left-to-right product of these.
        self.generators = generators
        self._idempotents = None
        self._sigma = None
        self._leq = None

    def product(self, elts, default=None):
        """Product of a sequence, left to right; unit for the empty one."""
        acc = self.unit if default is None else default
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
        """s <= t iff s = e t for some idempotent e (exhaustive search)."""
        if self._leq is None:
            self._compute_leq()
        return self._leq[s][t]

    def _compute_leq(self):
        idems = self.idempotents()
        leq = [[False] * self.size for _ in range(self.size)]
        for t in range(self.size):
            for e in idems:
                leq[self.table[e][t]][t] = True
        self._leq = leq

    def sigma_classes(self):
        """Partition of S by the minimum group congruence.

        Computed as the equivalence closure of the natural partial order;
        classes are numbered by their least member.
        """
        if self._sigma is not None:
            return self._sigma
        parent = list(range(self.size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in range(self.size):
            for t in range(self.size):
                if self.natural_leq(s, t):
                    rs, rt = find(s), find(t)
                    if rs != rt:
                        parent[max(rs, rt)] = min(rs, rt)
        roots = {}
        classes = []
        for s in range(self.size):
            r = find(s)
            if r not in roots:
                roots[r] = len(classes)
                classes.append([])
            classes[roots[r]].append(s)
        self._sigma = classes
        return classes

    def sigma_class_index(self):
        """Element -> index of its sigma-class."""
        proj = [0] * self.size
        for k, cls in enumerate(self.sigma_classes()):
            for s in cls:
                proj[s] = k
        return proj

    def is_group(self):
        return len(self.idempotents()) == 1

    def is_e_unitary(self):
        """True iff e <= s with e idempotent forces s idempotent."""
        for e in self.idempotents():
            for s in range(self.size):
                if self.natural_leq(e, s) and not self.is_idempotent(s):
                    return False
        return True

    def __repr__(self):
        return f"InverseMonoid(size={self.size})"


def from_table(table, unit=None, names=None):
    """Validate a Cayley table and return the inverse monoid it defines."""
    n = len(table)
    check_size(n)
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not (0 <= v < n):
                raise ValueError(f"table entry {v} out of range")
    gens = _generators(table)
    # Light's test: the k with (ij)k = i(jk) for all i, j are closed under
    # products, so testing the generators covers every k.
    for i in range(n):
        row = table[i]
        for j in range(n):
            tij = table[row[j]]
            tj = table[j]
            for k in gens:
                if tij[k] != row[tj[k]]:
                    raise ValueError(f"not associative at ({i},{j},{k})")
    units = [e for e in range(n)
             if all(table[e][x] == x and table[x][e] == x for x in range(n))]
    if not units:
        raise ValueError("no identity")
    if unit is None:
        unit = units[0]
    elif unit not in units:
        raise ValueError(f"element {unit} is not a two-sided identity")
    inv = [None] * n
    for s in range(n):
        cands = [x for x in range(n)
                 if table[table[s][x]][s] == s and table[table[x][s]][x] == x]
        if not cands:
            raise ValueError(f"inverse missing for element {s}")
        if len(cands) > 1:
            raise ValueError(
                f"inverse not unique for element {s}: candidates {cands}"
            )
        inv[s] = cands[0]
    m = InverseMonoid(n, [row[:] for row in table], inv, unit, gens, names)
    idems = m.idempotents()
    for e in idems:
        for f in idems:
            if table[e][f] != table[f][e]:
                raise ValueError(f"idempotents {e} and {f} do not commute")
    return m


def _generators(table):
    """A generating set: every element is a left-to-right product of it.

    Elements are taken greedily by decreasing right-ideal size, then by
    index; one not yet reached becomes a generator, and the reached set is
    closed again under right multiplication by the generators.
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


def _partial_bijections(n):
    """All partial bijections of {1..n}: by domain bitmask, then image tuple."""
    elems = []
    points = list(range(1, n + 1))
    for mask in range(1 << n):
        dom = [p for p in points if mask >> (p - 1) & 1]
        rest = [p for p in points]
        for img in itertools.permutations(rest, len(dom)):
            elems.append((tuple(dom), img))
    elems.sort(key=lambda di: (sum(1 << (p - 1) for p in di[0]),
                               di[1]))
    return elems


def _pb_compose(f, g):
    """f after g, on the largest domain where it makes sense."""
    gdom, gimg = g
    fdom, fimg = f
    fmap = dict(zip(fdom, fimg))
    dom, img = [], []
    for x, gx in zip(gdom, gimg):
        if gx in fmap:
            dom.append(x)
            img.append(fmap[gx])
    return tuple(dom), tuple(img)


def symmetric_inverse_monoid(n):
    """All partial bijections of {1..n} under composition."""
    if n < 0:
        raise ValueError("symmetric_inverse_monoid needs n >= 0")
    # a rank-k partial bijection: a domain, an image, a bijection between
    check_size(sum(math.comb(n, k) ** 2 * math.factorial(k)
                   for k in range(n + 1)))
    elems = _partial_bijections(n)
    index = {e: i for i, e in enumerate(elems)}
    size = len(elems)
    table = [[index[_pb_compose(elems[i], elems[j])] for j in range(size)]
             for i in range(size)]
    unit = index[(tuple(range(1, n + 1)), tuple(range(1, n + 1)))]
    names = []
    for dom, img in elems:
        if not dom:
            names.append("[]")
        else:
            names.append("[%s->%s]" % ("".join(map(str, dom)),
                                       "".join(map(str, img))))
    return from_table(table, unit=unit, names=names)


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


class GroupImage:
    """The maximum group image G(S) = S/sigma with its projection."""

    __slots__ = ("group", "proj")

    def __init__(self, group, proj):
        self.group = group
        self.proj = proj


def max_group_image(s):
    """Group on the sigma-classes, with the class map as projection."""
    classes = s.sigma_classes()
    proj = s.sigma_class_index()
    k = len(classes)
    table = [[0] * k for _ in range(k)]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            prods = {proj[s.table[a][b]] for a in ci for b in cj}
            if len(prods) != 1:
                raise ValueError(
                    f"induced table ill-defined on classes ({i},{j})"
                )
            table[i][j] = prods.pop()
    names = [f"[{s.name_of(cls[0])}]" for cls in classes]
    group = from_table(table, unit=proj[s.unit], names=names)
    if not group.is_group():
        raise ValueError("induced table ill-defined: quotient is not a group")
    return GroupImage(group, proj)
