"""Unital inverse-monoid actions, the crossed product A x S, induced
partial actions of the maximum group image, and the collapse verifiers.

The maps theta_s are stored as total matrices T_s (x -> theta_s(1_{s^-1} x),
zero off the domain ideal), so all of the action axioms become checkable
matrix identities.  The relation subspace N of L(A,theta,S) is spanned by
the generators a delta_s - a delta_t over the natural-order pairs s <= t;
that span is already an ideal, which crossed_product re-verifies on basis
elements before inducing the quotient multiplication.
"""

from __future__ import annotations

import itertools

from .algebras import (Algebra, Bimodule, hochschild_cohomology,
                       hochschild_homology, is_separable, semigroup_algebra)
from .homology import KSModule, cohomology, homology
from .linalg import (ColumnSpan, Matrix, image_basis, induced_map,
                     kernel_basis, mat_rank, quotient_space, vec_add,
                     vec_is_zero, vec_scale, vec_sub)
from .monoids import from_table, max_group_image
from .reporting import Report


class UnitalAction:
    """Action data: one central idempotent 1_s and one total matrix T_s per s."""

    __slots__ = ("monoid", "algebra", "one", "theta")

    def __init__(self, monoid, algebra, one, theta):
        if len(one) != monoid.size or len(theta) != monoid.size:
            raise ValueError("action needs one idempotent and one matrix per element")
        for v in one:
            if len(v) != algebra.dim:
                raise ValueError("idempotent vector has wrong length")
        for m in theta:
            if m.rows != algebra.dim or m.cols != algebra.dim:
                raise ValueError("theta matrix has wrong shape")
        self.monoid = monoid
        self.algebra = algebra
        self.one = one
        self.theta = theta


def trivial_action(monoid, algebra):
    """Every 1_s = 1_A and theta_s = id: the trivial (global) action."""
    idm = Matrix.identity(algebra.field, algebra.dim)
    return UnitalAction(monoid, algebra,
                        [list(algebra.unit) for _ in range(monoid.size)],
                        [idm for _ in range(monoid.size)])


def natural_ke_action(monoid, field):
    """The natural action of S on KE(S): 1_s = ss^-1, theta_s(e) = s e s^-1."""
    idems = monoid.idempotents()
    pos = {e: i for i, e in enumerate(idems)}
    dim = len(idems)
    algebra = semigroup_algebra(field, _semilattice_of(monoid))
    one = []
    theta = []
    for s in range(monoid.size):
        si = monoid.inv[s]
        vec = [field.zero] * dim
        vec[pos[monoid.rng(s)]] = field.one
        one.append(vec)
        m = Matrix.zeros(field, dim, dim)
        for j, e in enumerate(idems):
            img = monoid.table[monoid.table[s][e]][si]
            m.data[pos[img]][j] = field.one
        theta.append(m)
    return UnitalAction(monoid, algebra, one, theta)


def _semilattice_of(monoid):
    """E(S) as a monoid on indices 0..|E|-1 (used as the algebra basis)."""
    idems = monoid.idempotents()
    pos = {e: i for i, e in enumerate(idems)}
    table = [[pos[monoid.table[e][f]] for f in idems] for e in idems]
    names = [monoid.name_of(e) for e in idems]
    return from_table(table, unit=pos[monoid.unit], names=names)


def validate_action(action):
    """Check every UnitalAction invariant; failures carry witnesses."""
    S = action.monoid
    A = action.algebra
    F = A.field
    rep = Report("unital action")
    idm = Matrix.identity(F, A.dim)

    for s in range(S.size):
        v = action.one[s]
        rep.check(f"1_{S.name_of(s)} central idempotent",
                  A.is_central_idempotent(v))
    rep.check("1_unit = 1_A", action.one[S.unit] == list(A.unit))
    rep.check("T_unit = id", action.theta[S.unit] == idm)

    left_of = [A.left_mult_matrix(action.one[s]) for s in range(S.size)]

    for s in range(S.size):
        T = action.theta[s]
        si = S.inv[s]
        name = S.name_of(s)
        rep.check(f"T_{name} kills the complement of its domain",
                  T @ left_of[si] == T)
        img_T = image_basis(T)
        img_I = image_basis(left_of[s])
        same = (img_T.cols == img_I.cols
                and mat_rank(img_T.hstack(img_I)) == img_T.cols)
        rep.check(f"image(T_{name}) = 1_{name}A", same,
                  f"rank {img_T.cols} vs ideal dim {img_I.cols}")
        rep.check(f"T_{name} bijective on its domain",
                  mat_rank(T) == mat_rank(left_of[si]))
        dom_basis = image_basis(left_of[si])
        mult_ok = True
        for j in range(dom_basis.cols):
            for k in range(dom_basis.cols):
                u = dom_basis.col(j)
                v = dom_basis.col(k)
                if T.apply(A.mul(u, v)) != A.mul(T.apply(u), T.apply(v)):
                    mult_ok = False
        rep.check(f"T_{name} multiplicative on its domain", mult_ok)

    for s in range(S.size):
        for t in range(S.size):
            st = S.table[s][t]
            if S.natural_leq(s, t):
                rep.check(
                    f"1_s 1_t = 1_s for {S.name_of(s)} <= {S.name_of(t)}",
                    A.mul(action.one[s], action.one[t]) == action.one[s])
            lhs = action.theta[s].apply(
                A.mul(action.one[S.inv[s]], action.one[t]))
            rep.check(
                f"theta_s(1_s^-1 1_t) = 1_s 1_st at ({S.name_of(s)},{S.name_of(t)})",
                lhs == A.mul(action.one[s], action.one[st]))
            e = A.mul(action.one[S.inv[t]], action.one[S.inv[st]])
            restrict = A.left_mult_matrix(e)
            rep.check(
                f"T_s T_t = T_st on the composite domain at ({S.name_of(s)},{S.name_of(t)})",
                action.theta[s] @ action.theta[t] @ restrict
                == action.theta[st] @ restrict)
        rep.check(f"1_ss^-1 = 1_s at {S.name_of(s)}",
                  action.one[S.rng(s)] == action.one[s])
    for e in S.idempotents():
        for f in S.idempotents():
            rep.check(
                f"1_ef = 1_e 1_f at ({S.name_of(e)},{S.name_of(f)})",
                action.one[S.table[e][f]]
                == A.mul(action.one[e], action.one[f]))
    return rep


def is_compatible(action):
    """theta_s = theta_t on the intersection ideal, for every sigma-pair."""
    S = action.monoid
    A = action.algebra
    for cls in S.sigma_classes():
        for s, t in itertools.combinations(cls, 2):
            e = A.mul(action.one[S.inv[s]], action.one[S.inv[t]])
            restrict = A.left_mult_matrix(e)
            if action.theta[s] @ restrict != action.theta[t] @ restrict:
                return False
    return True


class CrossedProduct:
    """L(A,theta,S) / N with its induced algebra structure.

    labels[k] = (s, j): the k-th coordinate of L is the j-th basis vector
    of the ideal 1_s A placed in the delta_s slot.
    """

    __slots__ = ("action", "labels", "ideal_spans", "block_offset", "n_space",
                 "algebra", "embed_A", "gamma")

    def __init__(self, action, labels, ideal_spans, block_offset, n_space,
                 algebra, embed_A, gamma):
        self.action = action
        self.labels = labels
        self.ideal_spans = ideal_spans
        self.block_offset = block_offset
        self.n_space = n_space
        self.algebra = algebra
        self.embed_A = embed_A
        self.gamma = gamma

    @property
    def l_dim(self):
        return len(self.labels)

    @property
    def dim(self):
        return self.algebra.dim

    def l_vector(self, s, a_vec):
        """The element a delta_s of L, in L-coordinates (a must lie in 1_s A)."""
        F = self.action.algebra.field
        out = [F.zero] * self.l_dim
        coords = self.ideal_spans[s].coords(a_vec)
        off = self.block_offset[s]
        for i, c in enumerate(coords):
            out[off + i] = c
        return out

    def l_mult(self, u, v):
        """Multiplication of L in L-coordinates: a d_s * b d_t = a th_s(1 b) d_st."""
        S = self.action.monoid
        A = self.action.algebra
        F = A.field
        out = [F.zero] * self.l_dim
        for k1, c1 in enumerate(u):
            if not c1:
                continue
            s, j1 = self.labels[k1]
            a_vec = self.ideal_spans[s].basis.col(j1)
            for k2, c2 in enumerate(v):
                if not c2:
                    continue
                t, j2 = self.labels[k2]
                b_vec = self.ideal_spans[t].basis.col(j2)
                w = A.mul(a_vec, self.action.theta[s].apply(b_vec))
                if vec_is_zero(w):
                    continue
                st = S.table[s][t]
                coords = self.ideal_spans[st].coords(w)
                off = self.block_offset[st]
                c = F.mul(c1, c2)
                for i, cc in enumerate(coords):
                    if cc:
                        out[off + i] = F.add(out[off + i], F.mul(c, cc))
        return out

    def class_of(self, l_vec):
        """Image of an element of L in the quotient A x S."""
        return self.n_space.projection.apply(l_vec)

    def class_sums(self, l_vec):
        """Per sigma-class sums of the A-coefficients of an element of L."""
        S = self.action.monoid
        A = self.action.algebra
        F = A.field
        sums = [[F.zero] * A.dim for _ in S.sigma_classes()]
        proj = S.sigma_class_index()
        for k, c in enumerate(l_vec):
            if not c:
                continue
            s, j = self.labels[k]
            vec = self.ideal_spans[s].basis.col(j)
            sums[proj[s]] = vec_add(F, sums[proj[s]], vec_scale(F, c, vec))
        return sums


def crossed_product(action, validate=True):
    """Build A x_theta S: L, the relation span N, and the quotient algebra."""
    if validate:
        rep = validate_action(action)
        if not rep.ok:
            raise ValueError(
                "action invalid: " + "; ".join(n for n, _ in rep.failures()))
    S = action.monoid
    A = action.algebra
    F = A.field

    ideal_spans = []
    block_offset = []
    labels = []
    off = 0
    for s in range(S.size):
        basis = image_basis(A.left_mult_matrix(action.one[s]))
        span = ColumnSpan(basis)
        ideal_spans.append(span)
        block_offset.append(off)
        for j in range(span.dim):
            labels.append((s, j))
        off += span.dim

    cp = CrossedProduct(action, labels, ideal_spans, block_offset,
                        None, None, None, None)

    gens = []
    for s in range(S.size):
        for t in range(S.size):
            if s != t and S.natural_leq(s, t):
                for j in range(ideal_spans[s].dim):
                    a_vec = ideal_spans[s].basis.col(j)
                    g = vec_sub(F, cp.l_vector(s, a_vec), cp.l_vector(t, a_vec))
                    gens.append(g)
    n_span = Matrix.from_cols(F, len(labels), gens)
    cp.n_space = quotient_space(F, len(labels), n_span)

    # The generator span must already be a two-sided ideal; re-check it on
    # basis elements so a bad input cannot silently corrupt the quotient.
    basis_elts = []
    for k in range(len(labels)):
        e = [F.zero] * len(labels)
        e[k] = F.one
        basis_elts.append(e)
    for g in gens:
        for x in basis_elts:
            if not cp.n_space.contains_in_subspace(cp.l_mult(x, g)):
                raise ValueError("induced multiplication ill-defined")
            if not cp.n_space.contains_in_subspace(cp.l_mult(g, x)):
                raise ValueError("induced multiplication ill-defined")

    q = cp.n_space
    dim_q = q.dim
    sc = []
    for i in range(dim_q):
        row = []
        for j in range(dim_q):
            prod = cp.l_mult(q.section.col(i), q.section.col(j))
            row.append(q.projection.apply(prod))
        sc.append(row)
    unit_q = q.projection.apply(cp.l_vector(S.unit, list(A.unit)))
    cp.algebra = Algebra(F, dim_q, sc, unit_q)

    embed_cols = [q.projection.apply(cp.l_vector(S.unit, A.basis_vec(i)))
                  for i in range(A.dim)]
    cp.embed_A = Matrix.from_cols(F, dim_q, embed_cols)
    if mat_rank(cp.embed_A) != A.dim:
        raise ValueError("induced multiplication ill-defined: A does not embed")
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = cp.algebra.mul(cp.embed_A.col(i), cp.embed_A.col(j))
            rhs = cp.embed_A.apply(A.mul(A.basis_vec(i), A.basis_vec(j)))
            if lhs != rhs:
                raise ValueError(
                    "induced multiplication ill-defined: embedding not multiplicative")

    cp.gamma = [q.projection.apply(cp.l_vector(s, action.one[s]))
                for s in range(S.size)]
    for s in range(S.size):
        for t in range(S.size):
            if cp.algebra.mul(cp.gamma[s], cp.gamma[t]) != cp.gamma[S.table[s][t]]:
                raise ValueError(
                    "induced multiplication ill-defined: gamma not multiplicative")
    return cp


class PartialGroupAction:
    """Partial action of a group: domain idempotents e_g and total maps."""

    __slots__ = ("group", "algebra", "domains", "maps")

    def __init__(self, group, algebra, domains, maps, validate=True):
        self.group = group
        self.algebra = algebra
        self.domains = domains
        self.maps = maps
        if validate:
            self._validate()

    def _validate(self):
        G = self.group
        A = self.algebra
        if self.domains[G.unit] != list(A.unit):
            raise ValueError("partial action axiom (i) fails: D_1 != A")
        if not self.maps[G.unit].is_identity():
            raise ValueError("partial action axiom (i) fails: theta_1 != id")
        for g in range(G.size):
            if not A.is_central_idempotent(self.domains[g]):
                raise ValueError(f"domain idempotent for {g} is not central idempotent")
            gi = G.inv[g]
            into = A.left_mult_matrix(self.domains[gi])
            if self.maps[g] @ into != self.maps[g]:
                raise ValueError(f"map for {g} does not vanish off its domain")
            if self.maps[g] @ self.maps[gi] != A.left_mult_matrix(self.domains[g]):
                raise ValueError(f"map for {g} is not inverted by the map for {G.inv[g]}")
        for g in range(G.size):
            for h in range(G.size):
                gh = G.table[g][h]
                e = A.mul(self.domains[G.inv[h]], self.domains[G.inv[gh]])
                restrict = A.left_mult_matrix(e)
                if (self.maps[g] @ self.maps[h] @ restrict
                        != self.maps[gh] @ restrict):
                    raise ValueError(
                        f"partial action axiom (iii) fails at ({g},{h})")
                # axiom (ii): theta_g(D_g^-1 . D_h) = D_g . D_gh
                lhs = image_basis(self.maps[g] @ A.left_mult_matrix(
                    A.mul(self.domains[G.inv[g]], self.domains[h])))
                rhs = image_basis(A.left_mult_matrix(
                    A.mul(self.domains[g], self.domains[gh])))
                if lhs.cols != rhs.cols or mat_rank(lhs.hstack(rhs)) != lhs.cols:
                    raise ValueError(
                        f"partial action axiom (ii) fails at ({g},{h})")


def _sum_ideal_unit(algebra, idempotents):
    """Unit of sum(e_i A) for central idempotents, by inclusion-exclusion."""
    F = algebra.field
    u = [F.zero] * algebra.dim
    for e in idempotents:
        u = vec_sub(F, vec_add(F, u, e), algebra.mul(u, e))
    return u


def induced_partial_action(action):
    """The partial action of G(S) induced by a compatible action of S."""
    if not is_compatible(action):
        raise ValueError("action not compatible")
    S = action.monoid
    A = action.algebra
    F = A.field
    gi = max_group_image(S)
    G = gi.group
    classes = S.sigma_classes()

    domains = []
    maps = []
    for g in range(G.size):
        cls = classes[g]
        seen = []
        for s in cls:
            if action.one[s] not in seen:
                seen.append(action.one[s])
        domains.append(_sum_ideal_unit(A, seen))
        # orthogonal decomposition of D_{g^-1} over the inverse idempotents
        inv_ones = []
        reps = []
        for s in cls:
            e = action.one[S.inv[s]]
            if e not in inv_ones:
                inv_ones.append(e)
                reps.append(s)
        m = Matrix.zeros(F, A.dim, A.dim)
        complement = list(A.unit)
        for e, s in zip(inv_ones, reps):
            f = A.mul(complement, e)
            m = m + action.theta[s] @ A.left_mult_matrix(f)
            complement = A.mul(complement, vec_sub(F, A.unit, e))
        maps.append(m)
    return PartialGroupAction(G, A, domains, maps)


class SkewGroupAlgebra:
    """The skew group algebra of a partial action, with its block layout."""

    __slots__ = ("partial", "algebra", "labels", "block_offset", "spans",
                 "embed_A")

    def __init__(self, partial, algebra, labels, block_offset, spans, embed_A):
        self.partial = partial
        self.algebra = algebra
        self.labels = labels
        self.block_offset = block_offset
        self.spans = spans
        self.embed_A = embed_A

    def element(self, g, a_vec):
        """a delta_g in skew coordinates (a must lie in D_g)."""
        F = self.partial.algebra.field
        out = [F.zero] * self.algebra.dim
        coords = self.spans[g].coords(a_vec)
        off = self.block_offset[g]
        for i, c in enumerate(coords):
            out[off + i] = c
        return out


def skew_group_algebra(partial):
    """A x G for a unital partial group action: sum of D_g delta_g."""
    G = partial.group
    A = partial.algebra
    F = A.field
    spans = []
    block_offset = []
    labels = []
    off = 0
    for g in range(G.size):
        basis = image_basis(A.left_mult_matrix(partial.domains[g]))
        span = ColumnSpan(basis)
        spans.append(span)
        block_offset.append(off)
        for j in range(span.dim):
            labels.append((g, j))
        off += span.dim
    dim = off

    def mul_block(g, a_vec, h, b_vec):
        # a d_g * b d_h = theta_g(theta_g^-1(a) b) d_gh
        inner = A.mul(partial.maps[G.inv[g]].apply(a_vec), b_vec)
        w = partial.maps[g].apply(inner)
        gh = G.table[g][h]
        coords = spans[gh].coords(w)
        out = [F.zero] * dim
        o = block_offset[gh]
        for i, c in enumerate(coords):
            out[o + i] = c
        return out

    sc = []
    for k1 in range(dim):
        g, j1 = labels[k1]
        a_vec = spans[g].basis.col(j1)
        row = []
        for k2 in range(dim):
            h, j2 = labels[k2]
            b_vec = spans[h].basis.col(j2)
            row.append(mul_block(g, a_vec, h, b_vec))
        sc.append(row)
    unit = [F.zero] * dim
    coords = spans[G.unit].coords(list(A.unit))
    for i, c in enumerate(coords):
        unit[block_offset[G.unit] + i] = c
    try:
        algebra = Algebra(F, dim, sc, unit)
    except ValueError as exc:
        raise ValueError(f"not associative: {exc}") from exc
    embed_cols = []
    for i in range(A.dim):
        out = [F.zero] * dim
        cs = spans[G.unit].coords(A.basis_vec(i))
        for k, c in enumerate(cs):
            out[block_offset[G.unit] + k] = c
        embed_cols.append(out)
    embed_A = Matrix.from_cols(F, dim, embed_cols)
    return SkewGroupAlgebra(partial, algebra, labels, block_offset, spans,
                            embed_A)


def phi_map(action, crossed=None, skew=None):
    """Phi: A x_theta S -> A x_induced G(S), a delta_s + N -> a delta_[s].

    Returns (matrix, report); the report records surjectivity, the algebra
    homomorphism property, the A-bimodule property, and bijectivity.
    """
    if not is_compatible(action):
        raise ValueError("not compatible")
    if crossed is None:
        crossed = crossed_product(action)
    if skew is None:
        skew = skew_group_algebra(induced_partial_action(action))
    S = action.monoid
    F = action.algebra.field
    proj = S.sigma_class_index()

    phi_l_cols = []
    for s, j in crossed.labels:
        a_vec = crossed.ideal_spans[s].basis.col(j)
        phi_l_cols.append(skew.element(proj[s], a_vec))
    phi_l = Matrix.from_cols(F, skew.algebra.dim, phi_l_cols)

    rep = Report("phi: crossed product -> skew group algebra")
    rep.check("phi kills the relation subspace",
              (phi_l @ crossed.n_space.subspace_basis).is_zero())
    phi = phi_l @ crossed.n_space.section
    rep.data["dim_crossed"] = crossed.algebra.dim
    rep.data["dim_skew"] = skew.algebra.dim

    hom_ok = phi.apply(crossed.algebra.unit) == skew.algebra.unit
    for i in range(crossed.algebra.dim):
        for j in range(crossed.algebra.dim):
            lhs = phi.apply(crossed.algebra.mul(crossed.algebra.basis_vec(i),
                                                crossed.algebra.basis_vec(j)))
            rhs = skew.algebra.mul(phi.col(i), phi.col(j))
            if lhs != rhs:
                hom_ok = False
    rep.check("phi is an algebra homomorphism", hom_ok)
    rank = mat_rank(phi)
    rep.check("phi surjective", rank == skew.algebra.dim)
    bimod_ok = True
    A = action.algebra
    for i in range(A.dim):
        a_cross = crossed.embed_A.col(i)
        a_skew = skew.embed_A.col(i)
        for j in range(crossed.algebra.dim):
            x = crossed.algebra.basis_vec(j)
            if phi.apply(crossed.algebra.mul(a_cross, x)) != \
                    skew.algebra.mul(a_skew, phi.col(j)):
                bimod_ok = False
            if phi.apply(crossed.algebra.mul(x, a_cross)) != \
                    skew.algebra.mul(phi.col(j), a_skew):
                bimod_ok = False
    rep.check("phi is an A-bimodule map", bimod_ok)
    bijective = rank == crossed.algebra.dim == skew.algebra.dim
    rep.data["bijective"] = bijective
    if action.monoid.is_e_unitary():
        rep.check("phi bijective (S is E-unitary)", bijective)
    return phi, rep


def ks_as_crossed_product(monoid, field):
    """KS = KE(S) x G(S) for E-unitary S, via tau_g(s^-1 s) = s s^-1.

    Builds the partial action tau~ of G(S) on KE(S), the skew group
    algebra, and phi(s) = ss^-1 delta_[s]; checks phi is a bijective
    algebra homomorphism and a KE(S)-bimodule map.
    """
    if not monoid.is_e_unitary():
        raise ValueError("not E-unitary")
    S = monoid
    idems = S.idempotents()
    pos = {e: i for i, e in enumerate(idems)}
    ke = semigroup_algebra(field, _semilattice_of(S))
    F = field
    gi = max_group_image(S)
    G = gi.group
    proj = S.sigma_class_index()
    classes = S.sigma_classes()

    domains = []
    raw_maps = []
    for g in range(G.size):
        cls = classes[g]
        image_of = {}
        for s in cls:
            d, r = S.dom(s), S.rng(s)
            if d in image_of:
                if image_of[d] != r:
                    raise ValueError("induced table ill-defined: tau not a function")
            else:
                image_of[d] = r
        # tau_g sends d(s) to r(s); D_g is spanned by {r(s) : s in g}.
        m = Matrix.zeros(F, len(idems), len(idems))
        for d, r in image_of.items():
            m.data[pos[r]][pos[d]] = F.one
        raw_maps.append(m)
        rng_vecs = []
        for s in cls:
            v = [F.zero] * len(idems)
            v[pos[S.rng(s)]] = F.one
            if v not in rng_vecs:
                rng_vecs.append(v)
        domains.append(_sum_ideal_unit(ke, rng_vecs))

    # Total-matrix convention: compose with the projection onto the domain
    # ideal KD_{g^-1} so each map vanishes off its domain.
    maps = [raw_maps[g] @ ke.left_mult_matrix(domains[G.inv[g]])
            for g in range(G.size)]
    partial = PartialGroupAction(G, ke, domains, maps)
    skew = skew_group_algebra(partial)

    rep = Report("KS as crossed product over G(S)")
    rep.data["dim_KS"] = S.size
    rep.data["dim_skew"] = skew.algebra.dim
    rep.data["domain_dims"] = [skew.spans[g].dim for g in range(G.size)]

    phi_cols = []
    for s in range(S.size):
        r = S.rng(s)
        v = [F.zero] * len(idems)
        v[pos[r]] = F.one
        phi_cols.append(skew.element(proj[s], v))
    phi = Matrix.from_cols(F, skew.algebra.dim, phi_cols)

    rep.check("phi bijective",
              S.size == skew.algebra.dim and mat_rank(phi) == S.size)
    hom_ok = True
    for s in range(S.size):
        for t in range(S.size):
            lhs = phi.col(S.table[s][t])
            rhs = skew.algebra.mul(phi.col(s), phi.col(t))
            if lhs != rhs:
                hom_ok = False
    rep.check("phi is an algebra homomorphism", hom_ok)
    rep.check("phi(1) = 1", phi.col(S.unit) == skew.algebra.unit)
    bimod_ok = True
    for e in idems:
        e_skew = skew.embed_A.col(pos[e])
        for s in range(S.size):
            if phi.col(S.table[e][s]) != skew.algebra.mul(e_skew, phi.col(s)):
                bimod_ok = False
            if phi.col(S.table[s][e]) != skew.algebra.mul(phi.col(s), e_skew):
                bimod_ok = False
    rep.check("phi is a KE(S)-bimodule map", bimod_ok)
    return rep


def module_as_ks(bimodule, crossed):
    """The left KS-module s.x = (1_s d_s) x (1_s^-1 d_s^-1) on a bimodule."""
    _check_bimodule(bimodule, crossed)
    S = crossed.action.monoid
    F = crossed.action.algebra.field
    act = []
    for s in range(S.size):
        gs = bimodule.left_action(crossed.gamma[s])
        gsi = bimodule.right_action(crossed.gamma[S.inv[s]])
        act.append(gs @ gsi)
    try:
        return KSModule(S, F, bimodule.dim, act, side="left")
    except ValueError as exc:
        raise ValueError(f"bimodule axioms fail: {exc}") from exc


def _check_bimodule(bimodule, crossed):
    B = bimodule.algebra
    Q = crossed.algebra
    if B is Q:
        return
    if B.dim != Q.dim or B.sc != Q.sc or B.unit != Q.unit:
        raise ValueError("bimodule is not over this crossed product")


def coinvariants(bimodule, crossed):
    """(M/[A,M], induced KS-action); A acts through its embedding."""
    ks = module_as_ks(bimodule, crossed)
    S = crossed.action.monoid
    A = crossed.action.algebra
    F = A.field
    gens = []
    for i in range(A.dim):
        a = crossed.embed_A.col(i)
        la = bimodule.left_action(a)
        ra = bimodule.right_action(a)
        diff = la - ra
        for j in range(bimodule.dim):
            col = diff.col(j)
            if not vec_is_zero(col):
                gens.append(col)
    span = Matrix.from_cols(F, bimodule.dim, gens)
    q = quotient_space(F, bimodule.dim, span)
    act = [induced_map(ks.act[s], q, q) for s in range(S.size)]
    module = KSModule(S, F, q.dim, act, side="left")
    return q, module


def invariants_sub(bimodule, crossed):
    """M^A = {x : a x = x a for all a}, with its restricted KS-action."""
    ks = module_as_ks(bimodule, crossed)
    S = crossed.action.monoid
    A = crossed.action.algebra
    F = A.field
    stacked_rows = []
    for i in range(A.dim):
        a = crossed.embed_A.col(i)
        diff = bimodule.left_action(a) - bimodule.right_action(a)
        stacked_rows.extend(diff.data)
    if stacked_rows:
        big = Matrix(F, len(stacked_rows), bimodule.dim, stacked_rows)
        basis = kernel_basis(big)
    else:
        basis = Matrix.identity(F, bimodule.dim)
    span = ColumnSpan(basis)
    act = []
    for s in range(S.size):
        moved = ks.act[s] @ basis
        cols = [span.coords(moved.col(j)) for j in range(basis.cols)]
        act.append(Matrix.from_cols(F, basis.cols, cols))
    return KSModule(S, F, basis.cols, act, side="left")


def verify_separable_collapse_homology(action, bimodule, max_deg,
                                       crossed=None):
    """H_n(S, M/[A,M]) vs Hochschild H_n(A x S, M), degreewise."""
    if not is_separable(action.algebra):
        raise ValueError("A not separable")
    if crossed is None:
        crossed = crossed_product(action)
    _check_bimodule(bimodule, crossed)
    rep = Report("separable collapse (homology)")
    _, co = coinvariants(bimodule, crossed)
    lhs = homology(action.monoid, co, max_deg)
    rhs = hochschild_homology(crossed.algebra, bimodule, max_deg)
    rep.data["monoid_side"] = lhs
    rep.data["hochschild_side"] = rhs
    for n in range(max_deg + 1):
        rep.check(f"H_{n} agree", lhs[n] == rhs[n], f"{lhs[n]} vs {rhs[n]}")
    return rep


def verify_separable_collapse_cohomology(action, bimodule, max_deg,
                                         crossed=None):
    """H^n(S, M^A) vs Hochschild H^n(A x S, M), degreewise."""
    if not is_separable(action.algebra):
        raise ValueError("A not separable")
    if crossed is None:
        crossed = crossed_product(action)
    _check_bimodule(bimodule, crossed)
    rep = Report("separable collapse (cohomology)")
    inv = invariants_sub(bimodule, crossed)
    lhs = cohomology(action.monoid, inv, max_deg)
    rhs = hochschild_cohomology(crossed.algebra, bimodule, max_deg)
    rep.data["monoid_side"] = lhs
    rep.data["hochschild_side"] = rhs
    for n in range(max_deg + 1):
        rep.check(f"H^{n} agree", lhs[n] == rhs[n], f"{lhs[n]} vs {rhs[n]}")
    return rep


def bimodule_over_quotient(crossed, left_l, right_l):
    """Induce a bimodule given by L-actions, checking N acts by zero.

    left_l / right_l give one matrix per L-coordinate; linear combinations
    along the quotient section define the induced actions.
    """
    F = crossed.action.algebra.field
    dim = left_l[0].rows
    n_basis = crossed.n_space.subspace_basis
    for j in range(n_basis.cols):
        col = n_basis.col(j)
        zl = Matrix.zeros(F, dim, dim)
        zr = Matrix.zeros(F, dim, dim)
        for k, c in enumerate(col):
            if c:
                zl = zl + left_l[k].scale(c)
                zr = zr + right_l[k].scale(c)
        if not zl.is_zero() or not zr.is_zero():
            raise ValueError("relation subspace does not act by zero")
    left = []
    right = []
    for i in range(crossed.algebra.dim):
        sec = crossed.n_space.section.col(i)
        ml = Matrix.zeros(F, dim, dim)
        mr = Matrix.zeros(F, dim, dim)
        for k, c in enumerate(sec):
            if c:
                ml = ml + left_l[k].scale(c)
                mr = mr + right_l[k].scale(c)
        left.append(ml)
        right.append(mr)
    return Bimodule(crossed.algebra, dim, left, right)
