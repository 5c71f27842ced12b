"""Unital inverse-monoid actions, the crossed product A x S, induced
partial actions of the maximum group image, and the collapse verifiers.

The maps theta_s are stored as total matrices T_s (x -> theta_s(1_{s^-1} x),
zero off the domain ideal), so all of the action axioms become checkable
matrix identities.  The relation subspace N of L(A,theta,S) is spanned by
the a delta_s - a delta_t over the natural-order pairs s <= t (Exel and
Vieira, J. Math. Anal. Appl. 363 (2010)).  CrossedProduct accepts only a
valid action, for which N is an ideal, so it reads the quotient from
section x section products; for a in 1_s A and s <= t, with c = b T_u(a)
in 1_us A, us <= ut and su <= tu:
b d_u (a d_s - a d_t) = c d_us - c d_ut, and a T_s(b) = a 1_s T_t(b) =
a T_t(b) as T_s = T_ss^-1 T_t.  For a partial group action N = 0.
"""

from __future__ import annotations

import itertools

from .algebras import (Algebra, check_over, generator_images,
                       hochschild_cohomology, hochschild_homology,
                       is_separable, product_checks, table_algebra)
from .homology import (DEFAULT_COLUMN_CAP, KSModule, cohomology, homology,
                       mobius_idempotent, trivial_module_ke)
from .linalg import (ColumnSpan, Matrix, image_span, induced_map,
                     kernel_basis, label_quotient, monomial_rows,
                     quotient_space, sparse_sum)
from .monoids import max_group_image
from .reporting import Report


class IncompatibleAction(ValueError):
    """The action has no induced partial action of G(S)."""


def _once_per_vector(vectors, f):
    """[f(v) for v in vectors], with f called once per distinct vector."""
    keys = [frozenset(v.items()) for v in vectors]
    seen = {}
    for k, v in zip(keys, vectors):
        if k not in seen:
            seen[k] = f(v)
    return [seen[k] for k in keys]


def _index_tables(algebra, theta, ideals):
    """(images, positions) for a monomial action, else None.

    The action is monomial when A has a product table, each T_s sends a
    basis vector to a basis vector or 0, and each 1_s A has basis vectors
    of A as its basis.  Then images[s][k] is the symbol of T_s(b_k) in A's
    table (dim for 0, and images[s][dim] = dim) and positions[s][k] is the
    place of b_k in the basis of 1_s A, one dict per distinct ideal.
    """
    if algebra.table is None:
        return None
    n, spans = algebra.dim, {id(span): span for span in ideals}
    images = monomial_rows([m.columns for m in theta], n)
    bases = monomial_rows([span.basis.columns for span in spans.values()], n)
    if None in images or None in bases:
        return None
    places = {i: dict(zip(b, range(len(b)))) for i, b in zip(spans, bases)}
    return [t + [n] for t in images], [places[id(span)] for span in ideals]


class UnitalAction:
    """Action data: one central idempotent 1_s (a sparse vector of A) and
    one total matrix T_s per s.  ideals[s] spans 1_s A, with the leftmost
    independent columns of x -> 1_s x as its basis, one span per distinct
    vector 1_s.  index is _index_tables' lookups, None unless the action
    is monomial."""

    __slots__ = ("monoid", "algebra", "one", "theta", "ideals", "index")

    def __init__(self, monoid, algebra, one, theta):
        if len(one) != monoid.size or len(theta) != monoid.size:
            raise ValueError("action needs one idempotent and one matrix per element")
        if not all(i in range(algebra.dim) and x
                   for v in one for i, x in v.items()):
            raise ValueError("idempotent vector has wrong shape")
        for m in theta:
            if m.rows != algebra.dim or m.cols != algebra.dim:
                raise ValueError("theta matrix has wrong shape")
        self.monoid = monoid
        self.algebra = algebra
        self.one = one
        self.theta = theta
        self.ideals = _once_per_vector(one, lambda e: image_span(
            algebra.left_mult_matrix(e)))
        self.index = _index_tables(algebra, theta, self.ideals)


def trivial_action(monoid, algebra):
    """Every 1_s = 1_A and theta_s = id: the trivial (global) action."""
    idm = Matrix.identity(algebra.field, algebra.dim)
    return UnitalAction(monoid, algebra,
                        [dict(algebra.unit) for _ in range(monoid.size)],
                        [idm for _ in range(monoid.size)])


def natural_ke_action(monoid, field):
    """The natural action of S on KE(S): 1_s = ss^-1, theta_s(e) = s e s^-1.

    KE(S) has basis E(S) in the order of monoid.idempotents(), and theta
    is the left module KE(S) of trivial_module_ke on that basis.
    """
    idems = monoid.idempotents()
    pos = {e: i for i, e in enumerate(idems)}
    algebra = table_algebra(
        field, [[pos[monoid.table[e][f]] for f in idems] for e in idems],
        [pos[monoid.unit]])
    one = [algebra.basis_vec(pos[monoid.rng(s)]) for s in range(monoid.size)]
    return UnitalAction(monoid, algebra, one,
                        trivial_module_ke(monoid, field).act)


def _check_each_element(action, rep):
    """Record the axioms on one element at a time: 1_s is a central
    idempotent, and T_s kills the complement of its domain 1_s^-1 A, maps
    it onto 1_s A, and is bijective and multiplicative on it.

    1_s is idempotent, so image(T_s) lies in 1_s A iff L_{1_s} T_s = T_s,
    read column by column as 1_s T_s(b_j) = T_s(b_j); then it is all of
    1_s A iff rank T_s is its dimension.  The central idempotent check
    and x -> 1_s x are formed once per distinct vector 1_s.  For a
    monomial action, T_s(uv) = T_s(u) T_s(v) on basis vectors u, v of the
    domain is one symbol per side, read through A's table.
    """
    S = action.monoid
    A = action.algebra

    central = _once_per_vector(action.one, A.is_central_idempotent)
    for s in range(S.size):
        rep.check(f"1_{S.name_of(s)} central idempotent", central[s])

    left_of = _once_per_vector(action.one, A.left_mult_matrix)
    ideals = action.ideals

    def multiplicative(s, si):
        if action.index is None:
            T, dom = action.theta[s], ideals[si].basis.columns
            return all(T.apply(A.mul(u, v)) == A.mul(T.apply(u), T.apply(v))
                       for u in dom for v in dom)
        t, dom, table = action.index[0][s], action.index[1][si], A.table
        return all(t[table[u][v]] == table[t[u]][t[v]]
                   for u in dom for v in dom)

    for s in range(S.size):
        T = action.theta[s]
        si = S.inv[s]
        name = S.name_of(s)
        rep.check(f"T_{name} kills the complement of its domain",
                  T @ left_of[si] == T)
        rank_T = T.rank()
        rep.check(f"image(T_{name}) = 1_{name}A",
                  all(A.mul(action.one[s], x) == x for x in T.columns)
                  and rank_T == ideals[s].dim,
                  f"rank {rank_T} vs ideal dim {ideals[s].dim}")
        rep.check(f"T_{name} bijective on its domain",
                  rank_T == ideals[si].dim)
        rep.check(f"T_{name} multiplicative on its domain",
                  multiplicative(s, si))


def validate_action(action):
    """Check every UnitalAction invariant; failures carry witnesses.

    Beyond the per-element checks, the action law is that the T_s make A a
    left KS-module: KSModule checks T_unit = id and T_s T_g = T_sg for every
    generator g, and a failure names the pair (s, g).  Given the per-element
    checks, the law holds iff the partial action axioms hold (theta_s(1_s^-1
    1_t) = 1_s 1_st, and T_s T_t = T_st on the composite domain) with
    1_unit = 1_A, 1_ss^-1 = 1_s, 1_ef = 1_e 1_f and 1_s 1_t = 1_s for s <= t.

    => For e in E(S), T_e = T_e T_e has image 1_e A, kills (1 - 1_e)A and is
       bijective on 1_e A, so it is multiplication by 1_e.  So 1_ss^-1 = 1_s,
       as T_ss^-1 = T_s T_s^-1 has image T_s(1_s^-1 A) = 1_s A; T_ef = T_e T_f
       gives 1_ef = 1_e 1_f; s = et gives 1_s = 1_e 1_t.  theta_t is unital
       onto 1_t A, so T_t(1_A) = 1_t and theta_s(1_s^-1 1_t) = T_s T_t(1_A)
       = 1_st = 1_s 1_st.  T_unit = id gives 1_unit = 1_A.
    <= The composite-domain axiom gives T_s T_t = T_st on 1_(st)^-1 A.  Off
       it T_st is 0, and by (ii) at (t^-1, s^-1) T_t lands where T_s is 0.
    """
    A = action.algebra
    rep = Report("unital action")
    _check_each_element(action, rep)
    try:
        KSModule(action.monoid, A.field, A.dim, action.theta)
    except ValueError as exc:
        rep.check(f"T_s make A a left KS-module ({exc})", False)
    else:
        rep.check("T_s make A a left KS-module", True)
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

    validate_action runs first, and a failing action is refused as "action
    invalid: ..."; a PartialGroupAction passed its own axioms on construction.
    labels[k] = (s, j): the k-th coordinate of L is the j-th basis vector of
    the ideal 1_s A placed in the delta_s slot.  For a partial group action
    the natural order is equality, so N = 0: A x G is the same construction.
    """

    __slots__ = ("action", "labels", "ideal_spans", "block_offset",
                 "n_space", "algebra", "embed_A", "gamma")

    def __init__(self, action):
        if not isinstance(action, PartialGroupAction):
            validate_action(action).refuse("action invalid")
        S = action.monoid
        A = action.algebra
        F = A.field
        self.action = action
        self.labels = []
        self.ideal_spans = action.ideals
        self.block_offset = []
        for s, span in enumerate(self.ideal_spans):
            self.block_offset.append(len(self.labels))
            self.labels.extend((s, j) for j in range(span.dim))
        l_dim = self.l_dim

        # a d_s - a d_t for a the j-th basis vector of 1_s A: label j of
        # block s minus a's coordinates in block t.  For a monomial action a
        # is b_k, at place positions[t][k] of block t, so N is spanned by
        # differences of labels and its quotient identifies labels.
        # s < t iff ss^-1 t = s != t (natural_leq), read off row r(s).
        leq = [(s, t) for s in range(S.size)
               for t, x in enumerate(S.table[S.rng(s)]) if x == s != t]
        off = self.block_offset
        if action.index is None:
            gens = []
            for s, t in leq:
                span_t = self.ideal_spans[t]
                for j, a in enumerate(self.ideal_spans[s].basis.columns):
                    gen = {off[s] + j: F.one}
                    for i, c in span_t.coords(a).items():
                        gen[off[t] + i] = F.neg(c)
                    gens.append(gen)
            q = self.n_space = quotient_space(
                F, l_dim, Matrix(F, l_dim, len(gens), gens))
        else:
            positions = action.index[1]
            q = self.n_space = label_quotient(F, l_dim, [
                (off[s] + j, off[t] + positions[t][k])
                for s, t in leq for k, j in positions[s].items()])
        # The section is standard vectors, so the quotient's constants are
        # the classes of the label products there.
        sec = [i for col in q.section.columns for i in col]
        sc = (self._products_by_index(sec) if action.index else
              [[self.class_of(self.l_mult(a, b)) for b in sec] for a in sec])
        self.algebra = Algebra(F, q.dim, sc,
                               self.class_of(self.place(S.unit, A.unit)))

        self.embed_A = Matrix(F, q.dim, A.dim, [
            self.class_of(self.place(S.unit, A.basis_vec(i)))
            for i in range(A.dim)])
        if self.embed_A.rank() != A.dim:
            raise ValueError("induced multiplication ill-defined: A does not embed")
        if not product_checks(
                self.embed_A, self.algebra, [A.basis_vec(i) for i in range(A.dim)],
                lambda x, y: self.embed_A.apply(A.mul(x, y)), [],
                generator_images(A, self.embed_A))[0]:
            raise ValueError(
                "induced multiplication ill-defined: embedding not multiplicative")
        self.gamma = [self.class_of(self.place(s, action.one[s]))
                      for s in range(S.size)]

    def _products_by_index(self, sec):
        """The constants on section labels by lookup, for a monomial action:
        b_i d_s * b_k d_t = b_m d_st with m = table[i][images[s][k]], or 0
        where m = dim, and b_m d_st is a label of block st."""
        S, A = self.action.monoid, self.action.algebra
        images, positions = self.action.index
        one, zero = A.field.one, A.dim
        cls = [next(iter(col)) for col in self.n_space.projection.columns]
        class_at = [{m: cls[off + j] for m, j in place.items()}
                    for off, place in zip(self.block_offset, positions)]
        at = [(s, next(iter(self.ideal_spans[s].basis.columns[j])))
              for s, j in (self.labels[k] for k in sec)]
        sc = []
        for s, i in at:
            row, t_s, st = A.table[i], images[s], S.table[s]
            sc.append([{} if (m := row[t_s[k]]) == zero
                       else {class_at[st[t]][m]: one} for t, k in at])
        return sc

    @property
    def l_dim(self):
        return len(self.labels)

    def place(self, s, a_vec):
        """The element a delta_s in L-coordinates (a must lie in 1_s A)."""
        off = self.block_offset[s]
        return {off + i: c
                for i, c in self.ideal_spans[s].coords(a_vec).items()}

    def l_mult(self, k1, k2):
        """The product of two L basis labels, a d_s * b d_t = a T_s(b) d_st,
        in L-coordinates."""
        s, j1 = self.labels[k1]
        t, j2 = self.labels[k2]
        w = self.action.algebra.mul(
            self.ideal_spans[s].basis.columns[j1],
            self.action.theta[s].apply(self.ideal_spans[t].basis.columns[j2]))
        return self.place(self.action.monoid.table[s][t], w) if w else {}

    def class_of(self, l_vec):
        """Image of an element of L in the quotient A x S."""
        return self.n_space.projection.apply(l_vec)

    def class_sums(self, l_vec):
        """Per sigma-class sums of the A-coefficients of an element of L."""
        S = self.action.monoid
        proj = S.sigma_class_index()
        terms = [[] for _ in S.sigma_classes()]
        for k, c in l_vec.items():
            s, j = self.labels[k]
            terms[proj[s]].append((c, self.ideal_spans[s].basis.columns[j]))
        return [sparse_sum(self.action.algebra.field, t) for t in terms]


def crossed_product(action):
    """A x_theta S as CrossedProduct builds it, refused unless gamma_s
    gamma_t = gamma_st."""
    S = action.monoid
    cp = CrossedProduct(action)
    # gamma_unit is the unit of an associative algebra, so the law on the
    # generators gives gamma_s gamma_t = gamma_st by induction on t.
    for s in range(S.size):
        for g in S.generators:
            if cp.algebra.mul(cp.gamma[s], cp.gamma[g]) != cp.gamma[S.table[s][g]]:
                raise ValueError(
                    "induced multiplication ill-defined: gamma not multiplicative")
    return cp


class PartialGroupAction(UnitalAction):
    """Partial action of a group: the domain D_g = 1_g A and theta_g stored
    as T_g.  theta_g theta_h is only contained in theta_gh, so the partial
    action axioms are checked on every pair, on construction."""

    __slots__ = ()

    def __init__(self, group, algebra, domains, maps):
        super().__init__(group, algebra, domains, maps)
        G, A = group, algebra
        rep = Report("partial group action")
        _check_each_element(self, rep)
        rep.check("1_unit = 1_A", domains[G.unit] == A.unit)
        rep.check("T_unit = id", maps[G.unit].is_identity())
        for g, h in itertools.product(range(G.size), repeat=2):
            gh = G.table[g][h]
            at = f"({G.name_of(g)},{G.name_of(h)})"
            rep.check(f"theta_s(1_s^-1 1_t) = 1_s 1_st at {at}",
                      maps[g].apply(A.mul(domains[G.inv[g]], domains[h]))
                      == A.mul(domains[g], domains[gh]))
            restrict = A.left_mult_matrix(
                A.mul(domains[G.inv[h]], domains[G.inv[gh]]))
            rep.check(f"T_s T_t = T_st on the composite domain at {at}",
                      maps[g] @ maps[h] @ restrict == maps[gh] @ restrict)
        rep.refuse("partial action invalid")


def _sum_ideal_unit(algebra, idempotents):
    """Unit of sum(e_i A) for central idempotents, by inclusion-exclusion
    (a repeated e_i leaves it unchanged)."""
    u = {}
    for e in idempotents:
        u = sparse_sum(algebra.field, ((1, u), (1, e), (-1, algebra.mul(u, e))))
    return u


def induced_partial_action(action):
    """The partial action of G(S) induced by a compatible action of S."""
    if not is_compatible(action):
        raise IncompatibleAction("action not compatible")
    S = action.monoid
    A = action.algebra
    F = A.field
    G = max_group_image(S)
    classes = S.sigma_classes()

    domains = []
    maps = []
    for g in range(G.size):
        cls = classes[g]
        domains.append(_sum_ideal_unit(A, [action.one[s] for s in cls]))
        # orthogonal decomposition of D_{g^-1} over the inverse idempotents;
        # a repeated idempotent meets a complement that is already 0 on it
        m = Matrix(F, A.dim, A.dim)
        complement = A.unit
        for s in cls:
            e = action.one[S.inv[s]]
            f = A.mul(complement, e)
            m = m + action.theta[s] @ A.left_mult_matrix(f)
            complement = sparse_sum(F, ((1, complement), (-1, f)))
        maps.append(m)
    return PartialGroupAction(G, A, domains, maps)


def phi_map(crossed):
    """Phi: A x_theta S -> A x_induced G(S), a delta_s + N -> a delta_[s].

    Returns (matrix, report); the report records surjectivity, the algebra
    homomorphism property, the A-bimodule property, and bijectivity.
    """
    action = crossed.action
    skew = CrossedProduct(induced_partial_action(action))
    S = action.monoid
    F = action.algebra.field
    proj = S.sigma_class_index()

    phi_l = Matrix(F, skew.algebra.dim, crossed.l_dim, [
        skew.place(proj[s], crossed.ideal_spans[s].basis.columns[j])
        for s, j in crossed.labels])

    rep = Report("phi: crossed product -> skew group algebra")
    rep.check("phi kills the relation subspace",
              (phi_l @ crossed.n_space.subspace_basis).is_zero())
    phi = phi_l @ crossed.n_space.section
    rep.data["dim_crossed"] = crossed.algebra.dim
    rep.data["dim_skew"] = skew.algebra.dim

    Q = crossed.algebra
    mult, bimod = product_checks(
        phi, skew.algebra, [Q.basis_vec(i) for i in range(Q.dim)],
        lambda x, y: phi.apply(Q.mul(x, y)),
        list(zip(crossed.embed_A.columns, skew.embed_A.columns)),
        generator_images(Q, phi))
    rep.check("phi is an algebra homomorphism",
              phi.apply(Q.unit) == skew.algebra.unit and mult)
    rank = phi.rank()
    rep.check("phi surjective", rank == skew.algebra.dim)
    rep.check("phi is an A-bimodule map", bimod)
    bijective = rank == Q.dim == skew.algebra.dim
    rep.data["bijective"] = bijective
    if S.is_e_unitary():
        rep.check("phi bijective (S is E-unitary)", bijective)
    return phi, rep


def ks_as_crossed_product(monoid, field):
    """KS = KE(S) x G(S) for E-unitary S.

    The partial action of G(S) on KE(S) is the one induced by the natural
    action, so tau_[s] sends s^-1 s to s s^-1.  Builds the skew group
    algebra and phi(s) = ss^-1 delta_[s]; checks phi is a bijective algebra
    homomorphism and a KE(S)-bimodule map.
    """
    if not monoid.is_e_unitary():
        raise ValueError("not E-unitary")
    S = monoid
    action = natural_ke_action(S, field)
    skew = CrossedProduct(induced_partial_action(action))
    proj = S.sigma_class_index()

    rep = Report("KS as crossed product over G(S)")
    rep.data["dim_KS"] = S.size
    rep.data["dim_skew"] = skew.algebra.dim
    rep.data["domain_dims"] = [span.dim for span in skew.ideal_spans]

    phi = Matrix(field, skew.algebra.dim, S.size,
                 [skew.place(proj[s], action.one[s]) for s in range(S.size)])
    rep.check("phi bijective",
              S.size == skew.algebra.dim and phi.rank() == S.size)
    # KS is held as its Cayley table: phi(st) is the column of S.table[s][t].
    mult, bimod = product_checks(
        phi, skew.algebra, range(S.size),
        lambda s, t: phi.columns[S.table[s][t]],
        list(zip(S.idempotents(), skew.embed_A.columns)),
        [(g, phi.columns[g]) for g in (S.unit, *S.generators)])
    rep.check("phi is an algebra homomorphism", mult)
    rep.check("phi(1) = 1", phi.columns[S.unit] == skew.algebra.unit)
    rep.check("phi is a KE(S)-bimodule map", bimod)
    return rep


def _conjugations(bimodule, monoid, gamma):
    """The matrices of x -> gamma_s x gamma_s^-1 on M, one per s."""
    return [bimodule.left_action(gamma[s])
            @ bimodule.right_action(gamma[monoid.inv[s]])
            for s in range(monoid.size)]


def coinvariants(bimodule, monoid, gamma, a_basis):
    """(M/[A,M], induced KS-action), for the subalgebra A spanned by a_basis
    and s acting by x -> gamma_s x gamma_s^-1, all in M's algebra."""
    F = bimodule.algebra.field
    gens = []
    for a in a_basis:
        diff = bimodule.left_action(a) - bimodule.right_action(a)
        gens.extend(col for col in diff.columns if col)
    q = quotient_space(F, bimodule.dim,
                       Matrix(F, bimodule.dim, len(gens), gens))
    return q, KSModule(monoid, F, q.dim, [
        induced_map(c, q, q) for c in _conjugations(bimodule, monoid, gamma)])


def invariants_sub(bimodule, monoid, gamma, a_basis):
    """M^A = {x : a x = x a for a in a_basis}, with the restricted KS-action
    s.x = gamma_s x gamma_s^-1."""
    F = bimodule.algebra.field
    # The kernel of every a x - x a at once: the maps stacked, row block i
    # for the i-th vector of a_basis.
    d = bimodule.dim
    stacked = Matrix(F, len(a_basis) * d, d)
    for i, a in enumerate(a_basis):
        diff = bimodule.left_action(a) - bimodule.right_action(a)
        for col, dcol in zip(stacked.columns, diff.columns):
            col.update((i * d + r, v) for r, v in dcol.items())
    basis = kernel_basis(stacked)
    span = ColumnSpan(basis)
    return KSModule(monoid, F, basis.cols, [
        Matrix(F, basis.cols, basis.cols,
               [span.coords(col) for col in (c @ basis).columns])
        for c in _conjugations(bimodule, monoid, gamma)])


def record_sides(rep, symbol, lhs, rhs):
    """Record both Betti lists and one check per degree that they agree."""
    rep.data["monoid_side"] = lhs
    rep.data["hochschild_side"] = rhs
    for n, (a, b) in enumerate(zip(lhs, rhs)):
        rep.check(f"{symbol}{n} agree", a == b, f"{a} vs {b}")


def mobius_family(crossed):
    """The nonzero [e] = 1_e prod_c (1 - 1_c), e in E(S), in A x S, where 1_e
    is gamma_e.  As e -> 1_e is a meet homomorphism (``validate_action``),
    they are orthogonal idempotents that sum to 1."""
    S, B = crossed.action.monoid, crossed.algebra
    left = {e: B.left_mult_matrix(crossed.gamma[e]) for e in S.idempotents()}
    family = (mobius_idempotent(S, e, left).apply(B.unit) for e in left)
    return [x for x in family if x]


def verify_separable_collapse_homology(crossed, bimodule, max_deg,
                                       cap=DEFAULT_COLUMN_CAP):
    """H_n(S, M/[A,M]) vs Hochschild H_n(A x S, M), degreewise."""
    if not is_separable(crossed.action.algebra):
        raise ValueError("A not separable")
    check_over(bimodule, crossed.algebra, "this crossed product")
    rep = Report("separable collapse (homology)")
    _, co = coinvariants(bimodule, crossed.action.monoid, crossed.gamma,
                         crossed.embed_A.columns)
    record_sides(rep, "H_", homology(crossed.action.monoid, co, max_deg, cap),
                 hochschild_homology(crossed.algebra, bimodule, max_deg, cap,
                                     mobius_family(crossed)))
    return rep


def verify_separable_collapse_cohomology(crossed, bimodule, max_deg,
                                         cap=DEFAULT_COLUMN_CAP):
    """H^n(S, M^A) vs Hochschild H^n(A x S, M), degreewise."""
    if not is_separable(crossed.action.algebra):
        raise ValueError("A not separable")
    check_over(bimodule, crossed.algebra, "this crossed product")
    rep = Report("separable collapse (cohomology)")
    inv = invariants_sub(bimodule, crossed.action.monoid, crossed.gamma,
                         crossed.embed_A.columns)
    record_sides(rep, "H^", cohomology(crossed.action.monoid, inv, max_deg, cap),
                 hochschild_cohomology(crossed.algebra, bimodule, max_deg, cap,
                                       mobius_family(crossed)))
    return rep
