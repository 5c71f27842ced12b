"""Finite discrete groupoids, their bisection inverse monoids, the function
algebra on the unit space, the convolution algebra, and the isomorphism
between the crossed product and the convolution algebra.

Finite + discrete means every subset is compact open, so the bisection
monoid here is the full inverse monoid of bisections and the convolution
algebra is spanned by all point masses on arrows.
"""

from __future__ import annotations

from .algebras import (Bimodule, check_over, diagonal_algebra,
                       generator_images, hochschild_cohomology,
                       hochschild_homology, is_separable, matrix_unit_table,
                       product_checks, table_algebra)
from .crossed import (UnitalAction, coinvariants, crossed_product,
                      invariants_sub, record_sides)
from .homology import DEFAULT_COLUMN_CAP, cohomology, homology
from .linalg import Matrix
from .monoids import MONOID_SIZE_CAP, from_table, light_test
from .reporting import Report


class FiniteGroupoid:
    """Arrows 0..n_arrows-1 over objects 0..n_objects-1.

    comp[a][b] is the composite (a after b) when src(a) = rng(b), else None.
    """

    __slots__ = ("n_objects", "n_arrows", "src", "rng", "comp", "inv",
                 "unit_of")

    def __init__(self, n_objects, src, rng, comp, inv, unit_of):
        self.n_objects = n_objects
        self.n_arrows = len(src)
        self.src = src
        self.rng = rng
        self.comp = comp
        self.inv = inv
        self.unit_of = unit_of
        self._validate()

    def _validate(self):
        n = self.n_arrows
        check_bisections(n + 1)
        for a in range(n):
            for b in range(n):
                defined = self.comp[a][b] is not None
                if defined != (self.src[a] == self.rng[b]):
                    raise ValueError(
                        f"composition defined iff src=rng fails at ({a},{b})")
        # With a zero n for the undefined composites: if this table is
        # associative, so is composition on composable triples, and with the
        # neutral units checked below the converse holds too.
        light_test([[n if c is None else c for c in row] + [n]
                    for row in self.comp] + [[n] * (n + 1)])
        for x in range(self.n_objects):
            u = self.unit_of[x]
            if self.src[u] != x or self.rng[u] != x:
                raise ValueError(f"unit arrow of object {x} has wrong ends")
        for a in range(n):
            u_r = self.unit_of[self.rng[a]]
            u_s = self.unit_of[self.src[a]]
            if self.comp[u_r][a] != a or self.comp[a][u_s] != a:
                raise ValueError(f"units not neutral at arrow {a}")
            ai = self.inv[a]
            if self.src[ai] != self.rng[a] or self.rng[ai] != self.src[a]:
                raise ValueError(f"inverse of arrow {a} has wrong ends")
            if self.comp[a][ai] != u_r or self.comp[ai][a] != u_s:
                raise ValueError(f"inverse of arrow {a} is not two-sided")

    def __repr__(self):
        return f"FiniteGroupoid(objects={self.n_objects}, arrows={self.n_arrows})"


def pair_groupoid(n):
    """Objects 0..n-1; one arrow (i,j): j -> i; (i,j)(j,k) = (i,k)."""
    if n < 1:
        raise ValueError("pair_groupoid needs n >= 1")
    # Arrow (i,j) is index i*n + j, so composition is the matrix units'.
    arrows = range(n * n)
    src = [a % n for a in arrows]
    rng = [a // n for a in arrows]
    inv = [(a % n) * n + a // n for a in arrows]
    unit_of = [i * n + i for i in range(n)]
    return FiniteGroupoid(n, src, rng, matrix_unit_table(n), inv, unit_of)


def group_as_groupoid(group):
    """A group Cayley table as a one-object groupoid."""
    if not group.is_group():
        raise ValueError("invalid group table: more than one idempotent")
    n = group.size
    comp = [[group.table[a][b] for b in range(n)] for a in range(n)]
    return FiniteGroupoid(1, [0] * n, [0] * n, comp,
                          list(group.inv), [group.unit])


def disjoint_union(g1, g2):
    """Disjoint union, g1's objects and arrows first."""
    n_obj = g1.n_objects + g2.n_objects
    off_a = g1.n_arrows
    off_o = g1.n_objects
    src = list(g1.src) + [s + off_o for s in g2.src]
    rng = list(g1.rng) + [r + off_o for r in g2.rng]
    n = len(src)
    comp = [[None] * n for _ in range(n)]
    for a in range(g1.n_arrows):
        for b in range(g1.n_arrows):
            comp[a][b] = g1.comp[a][b]
    for a in range(g2.n_arrows):
        for b in range(g2.n_arrows):
            c = g2.comp[a][b]
            comp[a + off_a][b + off_a] = None if c is None else c + off_a
    inv = list(g1.inv) + [i + off_a for i in g2.inv]
    unit_of = list(g1.unit_of) + [u + off_a for u in g2.unit_of]
    return FiniteGroupoid(n_obj, src, rng, comp, inv, unit_of)


def discrete_groupoid(n):
    """n objects, unit arrows only."""
    if n < 1:
        raise ValueError("discrete_groupoid needs n >= 1")
    comp = [[None] * n for _ in range(n)]
    for a in range(n):
        comp[a][a] = a
    ids = list(range(n))
    return FiniteGroupoid(n, ids, list(ids), comp, list(ids), list(ids))


def check_bisections(at_least):
    """Refuse a groupoid with at least this many bisections, if that is
    more than MONOID_SIZE_CAP, the cap on the monoid they form."""
    if at_least > MONOID_SIZE_CAP:
        raise ValueError(f"size cap exceeded: groupoid has more than "
                         f"{MONOID_SIZE_CAP} bisections")


def _bisection_masks(g):
    """Bitmasks of all bisections, in increasing mask order.

    A bisection takes at most one arrow out of each object, and no two of
    its arrows share a range: each partial bisection, with the bitmask of
    its ranges, is extended object by object by nothing or by one arrow
    out of that object to a range it does not yet reach.  Each partial
    bisection is a bisection, so the listing stops once they pass the cap.
    """
    partial = [(0, 0)]
    for x in range(g.n_objects):
        out = [(1 << a, 1 << g.rng[a]) for a in range(g.n_arrows)
               if g.src[a] == x]
        partial += [(mask | a, ranges | r) for mask, ranges in partial
                    for a, r in out if not ranges & r]
        check_bisections(len(partial))
    return sorted(mask for mask, _ in partial)


def bisections(g):
    """The inverse monoid of all bisections under set-wise product."""
    monoid, _ = bisections_with_masks(g)
    return monoid


def bisections_with_masks(g):
    masks = _bisection_masks(g)
    index = {m: i for i, m in enumerate(masks)}
    arrows = [[a for a in range(g.n_arrows) if m >> a & 1] for m in masks]
    ends = [[(g.rng[b], b) for b in v] for v in arrows]
    # UV holds a after b for a in U and b in V with src(a) = rng(b).  U has
    # at most one arrow out of each object, and the composites have the
    # distinct sources of their b, so their bits add up to UV's mask.
    table = []
    for u in arrows:
        after = {g.src[a]: g.comp[a] for a in u}
        table.append([index[sum(1 << after[r][b] for r, b in v if r in after)]
                      for v in ends])
    unit_mask = 0
    for x in range(g.n_objects):
        unit_mask |= 1 << g.unit_of[x]
    names = ["{" + ",".join(map(str, u)) + "}" for u in arrows]
    monoid = from_table(table, unit=index[unit_mask], names=names)
    return monoid, masks


def induced_action_hat(g, field, monoid, masks):
    """The action of the bisection monoid (with its arrow masks) on the
    function algebra L(X) = K^objects.

    1_U is the indicator of r(U) and T_U moves the coordinate at src of
    each arrow of U to its range.  CrossedProduct validates it.
    """
    F = field
    one = []
    theta = []
    for m in masks:
        v = {}
        t = Matrix(F, g.n_objects, g.n_objects)
        for a in range(g.n_arrows):
            if m >> a & 1:
                v[g.rng[a]] = F.one
                t.add_at(g.rng[a], g.src[a], F.one)
        one.append(v)
        theta.append(t)
    lx = diagonal_algebra(field, g.n_objects)
    return UnitalAction(monoid, lx, one, theta)


def steinberg_algebra(g, field):
    """K^arrows under convolution; unit = indicator of the unit arrows."""
    return table_algebra(field, g.comp, g.unit_of)


def lx_embedding(g, field):
    """Matrix of L(X) -> A_K(G), indicator of x -> point mass at unit arrow."""
    return Matrix(field, g.n_arrows, g.n_objects,
                  [{u: field.one} for u in g.unit_of])


def psi_map(g, masks, crossed, ak):
    """Psi: L(X) x S^a(G) -> A_K(G), class of phi d_U -> phi Delta_U.

    masks[s] is the arrow mask of bisection s of crossed's monoid, and ak
    the convolution algebra.  Returns (matrix, report); the report checks
    bijectivity, multiplicativity on the quotient basis, and the
    L(X)-bimodule property.
    """
    F = ak.field
    cols = []
    for s, j in crossed.labels:
        phi = crossed.ideal_spans[s].basis.columns[j]
        cols.append({a: phi[g.rng[a]] for a in range(g.n_arrows)
                     if masks[s] >> a & 1 and g.rng[a] in phi})
    psi_l = Matrix(F, g.n_arrows, len(cols), cols)

    Q = crossed.algebra
    rep = Report("psi: crossed product -> convolution algebra")
    rep.data["dim_crossed"] = Q.dim
    rep.data["dim_steinberg"] = ak.dim
    if Q.dim != ak.dim:
        raise ValueError(
            f"dimension mismatch: crossed product {Q.dim}, "
            f"convolution algebra {ak.dim}")
    rep.check("psi kills the relation subspace",
              (psi_l @ crossed.n_space.subspace_basis).is_zero())
    psi = psi_l @ crossed.n_space.section
    rep.check("psi bijective", psi.rank() == ak.dim)
    rep.check("psi(1) = 1", psi.apply(Q.unit) == ak.unit)
    emb = lx_embedding(g, F)
    mult, bimod = product_checks(
        psi, ak, [Q.basis_vec(i) for i in range(Q.dim)],
        lambda x, y: psi.apply(Q.mul(x, y)),
        list(zip(crossed.embed_A.columns, emb.columns)),
        generator_images(Q, psi))
    rep.check("psi multiplicative", mult)
    rep.check("psi is an L(X)-bimodule map", bimod)
    return psi, rep


class SteinbergData:
    """Everything attached to one finite groupoid, built once.

    Holds the bisection monoid, the indicator 1_U in A_K(G) of each
    bisection U, the crossed product of the action on the function algebra
    L(X) (which carries that action), A_K(G), and psi's report.  psi sends
    gamma_U to 1_U and restricts to lx_embedding on L(X).
    """

    __slots__ = ("groupoid", "bisection_monoid", "indicators", "crossed",
                 "steinberg_algebra", "psi_report")

    def __init__(self, groupoid, bisection_monoid, indicators, crossed,
                 steinberg, psi_report):
        self.groupoid = groupoid
        self.bisection_monoid = bisection_monoid
        self.indicators = indicators
        self.crossed = crossed
        self.steinberg_algebra = steinberg
        self.psi_report = psi_report


def steinberg_data(g, field):
    """Build the bundle: bisections and their indicators, the validated
    action and its crossed product, A_K(G), and psi's report.  A failed psi
    check is left in psi_report."""
    monoid, masks = bisections_with_masks(g)
    crossed = crossed_product(induced_action_hat(g, field, monoid, masks))
    ak = steinberg_algebra(g, field)
    _, rep = psi_map(g, masks, crossed, ak)
    indicators = [{a: field.one for a in range(g.n_arrows) if m >> a & 1}
                  for m in masks]
    return SteinbergData(g, monoid, indicators, crossed, ak, rep)


def verify_steinberg_homology(data, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """Hochschild homology of A_K(G) vs monoid homology of the coinvariants
    M/[L(X), M], on which U acts by x -> 1_U x 1_U^-1."""
    ak = data.steinberg_algebra
    check_over(module, ak, "the convolution algebra")
    rep = Report("Steinberg homology collapse")
    rep.check("psi isomorphism", data.psi_report.ok)
    units = lx_embedding(data.groupoid, ak.field).columns
    _, co = coinvariants(module, data.bisection_monoid, data.indicators, units)
    rep.data["coinvariants_dim"] = co.dim
    record_sides(rep, "H_", homology(data.bisection_monoid, co, max_deg, cap),
                 hochschild_homology(ak, module, max_deg, cap, units))
    return rep


def verify_steinberg_cohomology(data, module, max_deg, cap=DEFAULT_COLUMN_CAP):
    """Cohomology mirror; also reports vanishing of H^q(L(X), M) for q >= 1.

    The function algebra on a finite unit space is separable, which is what
    lets the verifier compare the q = 0 row against the full cohomology.

    The vanishing lines restate that separability; they compute nothing
    more.  H^q(L(X), M) is taken relative to the points of X, which span all
    of L(X), so B/E = 0 and the complex has no letters: degree 0 is
    M^{L(X)} and every higher degree has 0 columns.  The normalized complex
    (relative to [1]) would test them for real, but its degree q has
    (dim L(X) - 1)^q copies of M: for discrete:8 to degree 5, degree 5
    alone needs 8 * 7^5 columns, over the default cap.
    """
    ak = data.steinberg_algebra
    check_over(module, ak, "the convolution algebra")
    g = data.groupoid
    lx = data.crossed.action.algebra
    rep = Report("Steinberg cohomology collapse")
    rep.check("psi isomorphism", data.psi_report.ok)
    rep.check("L(X) separable", is_separable(lx))
    # H^q(L(X), M) for the restriction of M to an L(X)-bimodule.
    emb = lx_embedding(g, ak.field)
    lx_mod = Bimodule(
        lx, module.dim,
        [module.left_action(col) for col in emb.columns],
        [module.right_action(col) for col in emb.columns])
    lx_cohom = hochschild_cohomology(lx, lx_mod, max_deg, cap,
                                     map(lx.basis_vec, range(lx.dim)))
    rep.data["lx_cohomology"] = lx_cohom
    for q in range(1, max_deg + 1):
        rep.check(f"H^{q}(L(X), M) = 0", lx_cohom[q] == 0, str(lx_cohom[q]))
    inv = invariants_sub(module, data.bisection_monoid, data.indicators,
                         emb.columns)
    rep.data["invariants_dim"] = inv.dim
    record_sides(rep, "H^", cohomology(data.bisection_monoid, inv, max_deg, cap),
                 hochschild_cohomology(ak, module, max_deg, cap, emb.columns))
    return rep
