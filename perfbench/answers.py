"""Expected answers for the benchmark jobs, computed without invhom.

Nothing here imports invhom.  The inverse monoids, groups and groupoids
are rebuilt from their definitions, and every expected Betti number comes
from a structural theorem plus a small mod-p bar-complex calculation:

* For a finite inverse monoid S and a field K, b_n(S, KE) is the sum over
  the D-classes of S of dim H_n(G_D; K), where G_D is the maximal subgroup
  of the D-class.  Over Q every positive-degree term vanishes (Maschke),
  so b_0 is the number of D-classes.  Cohomology has the same dimensions,
  since H^n(G; K) is the dual of H_n(G; K) over a field.
* KS is free over itself, so b_n(S, KS) is |E| in degree 0 and 0 above.
* KS is the algebra of the underlying groupoid of S, and a finite
  groupoid algebra splits over components as matrix algebras over the
  isotropy group algebras.  Morita invariance and the centraliser
  decomposition then give HH_n(KG, KG) as the sum over components and
  conjugacy classes [g] of the isotropy group of dim H_n(C(g); K), and
  HH^n with the same dimensions.
"""

from __future__ import annotations

import itertools


# --- groups ---------------------------------------------------------------

class Group:
    """A finite group given by its elements and a multiplication function."""

    def __init__(self, elements, mul, identity):
        self.elements = list(elements)
        self.mul = mul
        self.identity = identity

    def inverse(self, g):
        for h in self.elements:
            if self.mul(g, h) == self.identity:
                return h
        raise ValueError(f"{g!r} has no inverse")


def symmetric_group(r):
    """S_r as permutation tuples of range(r), composed right to left."""
    return Group(itertools.permutations(range(r)),
                 lambda f, g: tuple(f[g[i]] for i in range(r)),
                 tuple(range(r)))


def cyclic_group(n):
    return Group(range(n), lambda a, b: (a + b) % n, 0)


def conjugacy_classes(group):
    seen = set()
    classes = []
    for g in group.elements:
        if g in seen:
            continue
        cls = {group.mul(group.mul(h, g), group.inverse(h))
               for h in group.elements}
        seen |= cls
        classes.append(g)
    return classes


def centralizer(group, g):
    return Group([h for h in group.elements
                  if group.mul(g, h) == group.mul(h, g)],
                 group.mul, group.identity)


# --- mod-p rank and group homology ----------------------------------------

def rank_mod_p(columns, p):
    """Rank over F_p of sparse columns given as dicts row -> int."""
    pivots = {}
    for col in columns:
        v = {i: c % p for i, c in col.items() if c % p}
        while v:
            r = max(v)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(v[r], -1, p)
                pivots[r] = {i: c * inv % p for i, c in v.items()}
                break
            f = v[r]
            for i, c in piv.items():
                x = (v.get(i, 0) - f * c) % p
                if x:
                    v[i] = x
                else:
                    v.pop(i, None)
    return len(pivots)


def group_homology_dims(group, p, max_deg):
    """dim H_n(G; F_p), n = 0..max_deg, trivial coefficients, char p > 0.

    Uses the normalized bar complex: C_n has a basis of n-tuples of
    non-identity elements, and the boundary is the alternating sum of the
    two end deletions and the adjacent products, dropping any face that
    contains the identity.
    """
    nonunit = [g for g in group.elements if g != group.identity]
    tuples = [[()]]
    for n in range(1, max_deg + 2):
        tuples.append(list(itertools.product(nonunit, repeat=n)))
    ranks = [0]
    for n in range(1, max_deg + 2):
        index = {t: i for i, t in enumerate(tuples[n - 1])}
        cols = []
        for t in tuples[n]:
            col = {}
            faces = [(t[1:], 1)]
            for i in range(n - 1):
                prod = group.mul(t[i], t[i + 1])
                if prod != group.identity:
                    faces.append((t[:i] + (prod,) + t[i + 2:], (-1) ** (i + 1)))
            faces.append((t[:-1], (-1) ** n))
            for face, sign in faces:
                k = index[face]
                col[k] = col.get(k, 0) + sign
            cols.append(col)
        ranks.append(rank_mod_p(cols, p))
    return [len(tuples[n]) - ranks[n] - ranks[n + 1]
            for n in range(max_deg + 1)]


def homology_dims(group, char, max_deg):
    """dim H_n(G; K) for K = Q (char 0) or F_p."""
    if char == 0:
        return [1] + [0] * max_deg
    return group_homology_dims(group, char, max_deg)


# --- symmetric inverse monoids ---------------------------------------------

def partial_bijections(k):
    """All partial bijections of range(k), as frozensets of (x, f(x))."""
    out = []
    for size in range(k + 1):
        for dom in itertools.combinations(range(k), size):
            for img in itertools.permutations(range(k), size):
                out.append(frozenset(zip(dom, img)))
    return out


def _dom(f):
    return frozenset(x for x, _ in f)


def _img(f):
    return frozenset(y for _, y in f)


def d_classes(k):
    """(idempotent domains, maximal subgroup) for each D-class of I_k.

    Idempotents e, f are D-related when some s has dom s = e and
    im s = f; the classes are found by joining those pairs.
    """
    elems = partial_bijections(k)
    idems = sorted({_dom(s) for s in elems}, key=sorted)
    parent = {e: e for e in idems}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for s in elems:
        parent[find(_dom(s))] = find(_img(s))
    classes = {}
    for e in idems:
        classes.setdefault(find(e), []).append(e)
    out = []
    for members in classes.values():
        e = members[0]
        group = Group([s for s in elems if _dom(s) == e and _img(s) == e],
                      _compose, frozenset((x, x) for x in e))
        out.append((members, group))
    return out


def _compose(f, g):
    """f after g on the largest domain where it is defined."""
    fm = dict(f)
    return frozenset((x, fm[y]) for x, y in g if y in fm)


def idempotent_count(k):
    return len({_dom(s) for s in partial_bijections(k)})


def monoid_betti(k, module, char, max_deg):
    """Betti numbers of I_k with coefficients trivial-ke or regular-ks."""
    if module == "regular-ks":
        return [idempotent_count(k)] + [0] * max_deg
    if module != "trivial-ke":
        raise ValueError(f"no independent answer for module {module!r}")
    total = [0] * (max_deg + 1)
    for _, group in d_classes(k):
        for n, d in enumerate(homology_dims(group, char, max_deg)):
            total[n] += d
    return total


# --- Hochschild dimensions of groupoid algebras ----------------------------

def _isotropy_hochschild(components, char, max_deg):
    """Sum over components and conjugacy classes of dim H_n(C(g); K)."""
    total = [0] * (max_deg + 1)
    for group in components:
        for g in conjugacy_classes(group):
            for n, d in enumerate(homology_dims(centralizer(group, g), char,
                                                max_deg)):
                total[n] += d
    return total


def groupoid_isotropy(spec):
    """Isotropy groups, one per connected component, of a groupoid spec."""
    if spec.startswith("pair:"):
        return [cyclic_group(1)]
    if spec.startswith("group:z:"):
        return [cyclic_group(int(spec[8:]))]
    raise ValueError(f"no independent answer for groupoid {spec!r}")


def steinberg_hochschild(spec, char, max_deg):
    """dim HH_n(A_K(G), A_K(G)), which is also dim HH^n."""
    return _isotropy_hochschild(groupoid_isotropy(spec), char, max_deg)


def separable_hochschild(action_spec, char, max_deg):
    """dim HH_n(KE x S, KE x S) for the natural action ke:i:k.

    KE x S is KS, the algebra of the underlying groupoid of S, whose
    components are the D-classes with isotropy the maximal subgroups.
    """
    if not action_spec.startswith("ke:i:"):
        raise ValueError(f"no independent answer for action {action_spec!r}")
    k = int(action_spec[5:])
    return _isotropy_hochschild([g for _, g in d_classes(k)], char, max_deg)
