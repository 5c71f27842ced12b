import random

import pytest
from hypothesis import given, settings, strategies as st

from invhom.algebras import (diagonal_algebra, field_algebra, matrix_algebra,
                             regular_bimodule)
from invhom.crossed import (CrossedProduct, UnitalAction, coinvariants,
                            crossed_product, induced_partial_action,
                            invariants_sub, is_compatible,
                            ks_as_crossed_product,
                            natural_ke_action, phi_map, trivial_action,
                            validate_action,
                            verify_separable_collapse_cohomology,
                            verify_separable_collapse_homology)
from invhom.linalg import Field, Matrix, image_basis
from invhom.monoids import (chain_semilattice, cyclic_group, direct_product,
                            symmetric_inverse_monoid, trivial_monoid)
from oracles import dense_col, from_cols, from_rows, sparse_vec
from test_monoids import inverse_submonoids_of_i3_or_i4

Q = Field(0)


def i1_on_k2():
    """I(1) acting on K x K: the empty map gets the first coordinate."""
    i1 = symmetric_inverse_monoid(1)
    a = diagonal_algebra(Q, 2)
    one = [{0: Q.one}, {0: Q.one, 1: Q.one}]
    theta = [from_rows(Q, [[1, 0], [0, 0]]), Matrix.identity(Q, 2)]
    return UnitalAction(i1, a, one, theta)


def test_validate_trivial_action():
    m = trivial_monoid()
    rep = validate_action(trivial_action(m, field_algebra(Q)))
    assert rep.ok


def test_validate_i1_action():
    assert validate_action(i1_on_k2()).ok


def test_validate_rejects_wrong_idempotent():
    act = i1_on_k2()
    bad = UnitalAction(act.monoid, act.algebra,
                       [{0: Q.one, 1: Q.one}, {0: Q.one, 1: Q.one}],
                       act.theta)
    rep = validate_action(bad)
    assert not rep.ok
    assert any("image(T_" in name for name, _ in rep.failures())


def test_validate_natural_ke_actions():
    for m in [symmetric_inverse_monoid(2), chain_semilattice(3),
              direct_product(chain_semilattice(2), cyclic_group(2))]:
        assert validate_action(natural_ke_action(m, Q)).ok


def test_compatibility():
    assert is_compatible(i1_on_k2())
    # any action of an E-unitary monoid is compatible
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    assert p.is_e_unitary()
    assert is_compatible(natural_ke_action(p, Q))
    assert is_compatible(trivial_action(p, field_algebra(Q)))


def test_crossed_product_trivial_monoid_keeps_algebra():
    a = matrix_algebra(Q, 2)
    cp = crossed_product(trivial_action(trivial_monoid(), a))
    assert cp.algebra.dim == a.dim
    assert cp.n_space.subspace_basis.cols == 0


def test_crossed_product_i1_dimensions():
    cp = crossed_product(i1_on_k2())
    assert cp.l_dim == 3
    assert cp.n_space.subspace_basis.cols == 1
    assert cp.algebra.dim == 2
    assert cp.algebra.is_commutative()


def test_crossed_product_chain2_z2_trivial():
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    cp = crossed_product(trivial_action(p, field_algebra(Q)))
    assert cp.l_dim == 4
    assert cp.n_space.subspace_basis.cols == 2
    assert cp.algebra.dim == 2


def test_gamma_multiplicativity():
    for action in (i1_on_k2(),
                   trivial_action(direct_product(chain_semilattice(2),
                                                 cyclic_group(2)),
                                  field_algebra(Q)),
                   natural_ke_action(chain_semilattice(3), Q)):
        cp = crossed_product(action)
        S = action.monoid
        for s in range(S.size):
            for t in range(S.size):
                assert cp.algebra.mul(cp.gamma[s], cp.gamma[t]) == \
                    cp.gamma[S.table[s][t]]


def test_embed_a_injective_homomorphism():
    cp = crossed_product(i1_on_k2())
    a = cp.action.algebra
    for i in range(a.dim):
        for j in range(a.dim):
            assert cp.algebra.mul(cp.embed_A.columns[i],
                                  cp.embed_A.columns[j]) == \
                cp.embed_A.apply(a.mul(a.basis_vec(i), a.basis_vec(j)))


def test_n_sigma_class_sums_vanish_on_random_elements():
    rng = random.Random(0)
    for action in (i1_on_k2(),
                   natural_ke_action(symmetric_inverse_monoid(2), Q)):
        cp = crossed_product(action)
        basis = cp.n_space.subspace_basis
        for _ in range(10):
            vec = [Q.zero] * cp.l_dim
            for j in range(basis.cols):
                c = Q.of(rng.randint(-4, 4))
                for i, v in enumerate(dense_col(basis, j)):
                    if v:
                        vec[i] += c * v
            assert all(not s for s in cp.class_sums(sparse_vec(vec)))


def test_e_unitary_converse_membership():
    # E-unitary: vanishing class sums characterize membership in N
    from invhom.linalg import kernel_basis
    rng = random.Random(1)
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    action = natural_ke_action(p, Q)
    assert p.is_e_unitary()
    cp = crossed_product(action)
    # build the class-sum matrix L -> A^{#classes}
    classes = p.sigma_classes()
    dimA = action.algebra.dim
    rows = []
    proj = p.sigma_class_index()
    for c in range(len(classes)):
        for coord in range(dimA):
            row = []
            for k, (s, j) in enumerate(cp.labels):
                vec = dense_col(cp.ideal_spans[s].basis, j)
                row.append(vec[coord] if proj[s] == c else Q.zero)
            rows.append(row)
    sums_mat = from_rows(Q, rows)
    ker = kernel_basis(sums_mat)
    assert ker.cols == cp.n_space.subspace_basis.cols
    for _ in range(10):
        vec = [Q.zero] * cp.l_dim
        for j in range(ker.cols):
            c = Q.of(rng.randint(-4, 4))
            for i, v in enumerate(dense_col(ker, j)):
                vec[i] += c * v
        assert not cp.n_space.projection.apply(sparse_vec(vec))


def test_induced_partial_action_group_case():
    z2 = cyclic_group(2)
    act = trivial_action(z2, field_algebra(Q))
    pa = induced_partial_action(act)
    assert pa.monoid.size == 2
    assert all(d == {0: Q.one} for d in pa.one)


def test_induced_partial_action_i1():
    pa = induced_partial_action(i1_on_k2())
    assert pa.monoid.size == 1
    assert pa.one[0] == {0: Q.one, 1: Q.one}
    assert pa.theta[0].is_identity()


def test_induced_partial_action_chain2_z2():
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    act = trivial_action(p, field_algebra(Q))
    pa = induced_partial_action(act)
    assert pa.monoid.size == 2
    assert all(d == {0: Q.one} for d in pa.one)
    assert all(m.is_identity() for m in pa.theta)


def test_skew_group_algebra_dimensions():
    z2 = cyclic_group(2)
    sk = CrossedProduct(induced_partial_action(
        trivial_action(z2, field_algebra(Q))))
    assert sk.algebra.dim == 2
    # partial Z/2-action on K x K with D_g = first component
    a = diagonal_algebra(Q, 2)
    from invhom.crossed import PartialGroupAction
    dom = [{0: Q.one, 1: Q.one}, {0: Q.one}]
    maps = [Matrix.identity(Q, 2), from_rows(Q, [[1, 0], [0, 0]])]
    pa = PartialGroupAction(z2, a, dom, maps)
    sk = CrossedProduct(pa)
    assert sk.algebra.dim == 3


def test_phi_bijective_for_compatible_examples():
    _, rep = phi_map(crossed_product(i1_on_k2()))
    assert rep.ok and rep.data["bijective"]
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    _, rep = phi_map(crossed_product(trivial_action(p, field_algebra(Q))))
    assert rep.ok and rep.data["bijective"]
    assert rep.data["dim_crossed"] == rep.data["dim_skew"] == 2


def test_phi_group_case_identity_shape():
    z2 = cyclic_group(2)
    phi, rep = phi_map(crossed_product(trivial_action(z2, field_algebra(Q))))
    assert rep.ok and rep.data["bijective"]
    assert phi.rows == phi.cols == 2


def test_ks_as_crossed_product_examples():
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    rep = ks_as_crossed_product(p, Q)
    assert rep.ok
    assert rep.data["dim_KS"] == 4 and rep.data["domain_dims"] == [2, 2]
    rep = ks_as_crossed_product(chain_semilattice(3), Q)
    assert rep.ok and rep.data["dim_skew"] == 3
    rep = ks_as_crossed_product(cyclic_group(3), Q)
    assert rep.ok
    with pytest.raises(ValueError, match="not E-unitary"):
        ks_as_crossed_product(symmetric_inverse_monoid(2), Q)


def over(cp):
    """The coefficient data of a crossed product: S, gamma and A's basis."""
    return cp.action.monoid, cp.gamma, cp.embed_A.columns


def test_coinvariants_idempotents_act_idempotently():
    act = i1_on_k2()
    cp = crossed_product(act)
    m = regular_bimodule(cp.algebra)
    q, co = coinvariants(m, *over(cp))
    assert co.dim == q.dim
    # idempotents act by idempotent matrices
    for e in act.monoid.idempotents():
        assert co.act[e] @ co.act[e] == co.act[e]


def test_coinvariants_trivial_monoid():
    a = matrix_algebra(Q, 2)
    cp = crossed_product(trivial_action(trivial_monoid(), a))
    _, co = coinvariants(regular_bimodule(cp.algebra), *over(cp))
    assert co.act[0].is_identity()


def test_coinvariants_commutative_is_everything():
    act = i1_on_k2()
    cp = crossed_product(act)
    m = regular_bimodule(cp.algebra)
    q, co = coinvariants(m, *over(cp))
    assert co.dim == m.dim  # commutative quotient algebra


def test_coinvariants_matrix_algebra_over_diagonal():
    # 2x2 matrices as bimodule over the crossed product of the trivial
    # monoid acting on the diagonal would not be a crossed-product module;
    # instead take S trivial acting on M2 itself and restrict commutators:
    # [M2, M2] is the 3-dim space of trace-zero matrices.
    a = matrix_algebra(Q, 2)
    cp = crossed_product(trivial_action(trivial_monoid(), a))
    q, co = coinvariants(regular_bimodule(cp.algebra), *over(cp))
    assert co.dim == 1


def test_invariants():
    a = matrix_algebra(Q, 2)
    cp = crossed_product(trivial_action(trivial_monoid(), a))
    inv = invariants_sub(regular_bimodule(cp.algebra), *over(cp))
    assert inv.dim == 1  # center of M2
    b = diagonal_algebra(Q, 3)
    cpb = crossed_product(trivial_action(trivial_monoid(), b))
    invb = invariants_sub(regular_bimodule(cpb.algebra), *over(cpb))
    assert invb.dim == 3  # commutative: everything


def test_gamma_that_is_not_multiplicative_is_refused():
    # K[Z_2]: the quotient and the invariants are all of M, and 2 gamma_g
    # conjugates by 4 times an involution, so g.(g.x) = 16 x, not x.
    z2 = cyclic_group(2)
    cp = crossed_product(trivial_action(z2, field_algebra(Q)))
    m = regular_bimodule(cp.algebra)
    (g,) = (s for s in range(z2.size) if s != z2.unit)
    bad = list(cp.gamma)
    bad[g] = {i: Q.mul(2, x) for i, x in cp.gamma[g].items()}
    a_basis = cp.embed_A.columns
    assert coinvariants(m, z2, cp.gamma, a_basis)[1].dim == 2
    with pytest.raises(ValueError, match="not a left module"):
        coinvariants(m, z2, bad, a_basis)
    with pytest.raises(ValueError, match="not a left module"):
        invariants_sub(m, z2, bad, a_basis)


def test_separable_verifiers_refuse_a_bimodule_over_another_algebra():
    cp = crossed_product(i1_on_k2())
    wrong = regular_bimodule(matrix_algebra(Q, 2))
    for verify in (verify_separable_collapse_homology,
                   verify_separable_collapse_cohomology):
        with pytest.raises(ValueError,
                           match="bimodule is not over this crossed product"):
            verify(cp, wrong, 1)


def test_separable_collapse_homology_examples():
    act = i1_on_k2()
    cp = crossed_product(act)
    rep = verify_separable_collapse_homology(cp, regular_bimodule(cp.algebra),
                                             2)
    assert rep.ok
    assert rep.data["monoid_side"] == [2, 0, 0]
    assert rep.data["hochschild_side"] == [2, 0, 0]


def test_separable_collapse_cohomology_examples():
    act = i1_on_k2()
    cp = crossed_product(act)
    rep = verify_separable_collapse_cohomology(
        cp, regular_bimodule(cp.algebra), 2)
    assert rep.ok
    assert rep.data["monoid_side"] == [2, 0, 0]


def test_separable_collapse_trivial_s_controls():
    for a in (matrix_algebra(Q, 2), diagonal_algebra(Q, 2)):
        act = trivial_action(trivial_monoid(), a)
        cp = crossed_product(act)
        m = regular_bimodule(cp.algebra)
        rh = verify_separable_collapse_homology(cp, m, 2)
        rc = verify_separable_collapse_cohomology(cp, m, 2)
        assert rh.ok and rc.ok


def test_separable_collapse_e_unitary_product():
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    act = trivial_action(p, field_algebra(Q))
    cp = crossed_product(act)
    m = regular_bimodule(cp.algebra)
    rep = verify_separable_collapse_homology(cp, m, 2)
    assert rep.ok and rep.data["monoid_side"] == [2, 0, 0]
    rep = verify_separable_collapse_cohomology(cp, m, 2)
    assert rep.ok and rep.data["monoid_side"] == [2, 0, 0]


def test_collapse_requires_separable():
    from invhom.algebras import dual_numbers
    act = trivial_action(trivial_monoid(), dual_numbers(Q))
    cp = crossed_product(act)
    with pytest.raises(ValueError, match="not separable"):
        verify_separable_collapse_homology(cp, regular_bimodule(cp.algebra),
                                           1)


def test_zero_bimodule_has_zero_coinvariants():
    from invhom.algebras import Bimodule
    act = i1_on_k2()
    cp = crossed_product(act)
    zero = Bimodule(
        cp.algebra, 0,
        [Matrix(Q, 0, 0) for _ in range(cp.algebra.dim)],
        [Matrix(Q, 0, 0) for _ in range(cp.algebra.dim)])
    q, co = coinvariants(zero, *over(cp))
    assert q.dim == 0 and co.dim == 0
    assert invariants_sub(zero, *over(cp)).dim == 0


def test_hochschild_degree_zero_is_commutator_quotient_and_centralizer():
    # H_0(A, M) = M/[A,M] and H^0(A, M) = M^A, computed directly
    from invhom.algebras import (dual_numbers, hochschild_cohomology,
                                 hochschild_homology)
    from invhom.linalg import kernel_basis, mat_rank
    from oracles import dense
    algebras = [matrix_algebra(Q, 2), dual_numbers(Q), diagonal_algebra(Q, 3),
                crossed_product(i1_on_k2()).algebra]
    for a in algebras:
        m = regular_bimodule(a)
        comm_cols = []
        stacked = []
        for i in range(a.dim):
            diff = m.left[i] - m.right[i]
            stacked.extend(dense(diff).data)
            for j in range(m.dim):
                comm_cols.append(dense_col(diff, j))
        span = from_cols(Q, m.dim, comm_cols)
        assert hochschild_homology(a, m, 0)[0] == m.dim - mat_rank(span)
        centralizer = kernel_basis(from_rows(Q, stacked))
        assert hochschild_cohomology(a, m, 0)[0] == centralizer.cols


def _desk_actions():
    """trivial: and ke: actions on small monoids over Q, F_2 and F_3, and
    the bisection actions of four small groupoids over Q."""
    from invhom.groupoids import bisections_with_masks, induced_action_hat
    from invhom.serialize import resolve_groupoid, resolve_monoid
    for spec in ("chain:2", "z:2", "z:3", "i:1", "i:2", "prod:chain:2,z:2"):
        m = resolve_monoid(spec)
        for F in (Q, Field(2), Field(3)):
            yield trivial_action(m, field_algebra(F))
            yield natural_ke_action(m, F)
    for spec in ("pair:2", "pair:3", "group:z:3", "discrete:2"):
        g = resolve_groupoid(spec)
        yield induced_action_hat(g, Q, *bisections_with_masks(g))


def _assert_matches_oracle(cp, expected):
    assert cp.n_space.subspace_basis.cols == expected["dim_N"]
    assert cp.n_space.subspace_basis == expected["subspace_basis"]
    assert cp.algebra.sc == expected["sc"]
    assert cp.algebra.unit == expected["unit"]
    assert cp.embed_A == expected["embed_A"]
    assert cp.gamma == expected["gamma"]


def test_crossed_product_matches_vector_oracle():
    from oracles import crossed_product_by_vectors
    n = 0
    for action in _desk_actions():
        _assert_matches_oracle(crossed_product(action),
                               crossed_product_by_vectors(action))
        n += 1
    assert n == 40


def _l_mult_calls(monkeypatch):
    """A list that gains one entry per CrossedProduct.l_mult call."""
    calls = []
    l_mult = CrossedProduct.l_mult
    monkeypatch.setattr(CrossedProduct, "l_mult",
                        lambda cp, k1, k2: calls.append(1) or l_mult(cp, k1, k2))
    return calls


def _shifted_dual_numbers(field):
    """K[x]/(x^2) in the basis (1, 1 + x): (1 + x)^2 = -1 + 2(1 + x), so
    its constants are not all basis vectors or 0."""
    from invhom.algebras import Algebra
    return Algebra(field, 2, [[{0: 1}, {1: 1}],
                              [{1: 1}, {0: field.neg(1), 1: field.of(2)}]],
                   {0: 1})


def test_crossed_product_forms_section_label_products_only(monkeypatch):
    # A monomial action reads every label product off its index tables, so
    # l_mult is not called for the bisection action of pair:3 (63 labels,
    # q.dim 9) or the natural action of i:2 (17 labels, q.dim 7).  Any
    # other action forms q.dim^2 label products in place of l_dim^2: chain:2
    # acting trivially on the shifted dual numbers has 4 labels, q.dim 2.
    from invhom.groupoids import bisections_with_masks, induced_action_hat
    from invhom.serialize import resolve_groupoid, resolve_monoid
    calls = _l_mult_calls(monkeypatch)
    g = resolve_groupoid("pair:3")
    for action, expected in (
            (induced_action_hat(g, Q, *bisections_with_masks(g)), (0, 63, 9)),
            (natural_ke_action(resolve_monoid("i:2"), Q), (0, 17, 7)),
            (trivial_action(chain_semilattice(2), _shifted_dual_numbers(Q)),
             (4, 4, 2))):
        calls.clear()
        cp = crossed_product(action)
        assert (len(calls), cp.l_dim, cp.algebra.dim) == expected
        assert (action.index is None) == bool(calls)


def _assert_matches_elimination(action):
    """The crossed product agrees, matrix for matrix, with the construction
    by quotient_space and l_mult in tests/oracles.py."""
    from oracles import crossed_product_by_elimination
    cp = CrossedProduct(action)
    expected = crossed_product_by_elimination(action)
    assert cp.labels == expected["labels"]
    for part in ("subspace_basis", "section", "projection"):
        assert getattr(cp.n_space, part) == getattr(expected["n_space"], part)
    assert cp.algebra.sc == expected["sc"]
    assert cp.algebra.unit == expected["unit"]
    assert cp.embed_A == expected["embed_A"]
    assert cp.gamma == expected["gamma"]


@settings(deadline=None, max_examples=40)
@given(inverse_submonoids_of_i3_or_i4(sizes=(3,)),
       st.sampled_from([Q, Field(2), Field(3)]))
def test_natural_actions_match_the_elimination_oracle(m, F):
    # The natural action on KE(S) is monomial, and so is the induced
    # partial action wherever every ideal it spans has basis vectors of
    # KE(S) as its basis.
    action = natural_ke_action(m, F)
    assert action.index is not None
    _assert_matches_elimination(action)
    if is_compatible(action):
        _assert_matches_elimination(induced_partial_action(action))


def test_bisection_actions_match_the_elimination_oracle():
    from invhom.groupoids import bisections_with_masks, induced_action_hat
    from invhom.serialize import resolve_groupoid
    compatible = []
    for spec in ("pair:2", "pair:3", "group:z:3", "discrete:4"):
        g = resolve_groupoid(spec)
        for F in (Q, Field(2), Field(3)):
            action = induced_action_hat(g, F, *bisections_with_masks(g))
            assert action.index is not None
            _assert_matches_elimination(action)
            if is_compatible(action):
                partial = induced_partial_action(action)
                assert partial.index is not None
                _assert_matches_elimination(partial)
                compatible.append(spec)
    # The pair groupoids' bisection actions are not compatible.
    assert compatible == ["group:z:3"] * 3 + ["discrete:4"] * 3


def _corrupted_actions(action):
    """Copies of a valid action with one 1_s or one T_s replaced (some of
    them are still valid actions)."""
    S = action.monoid
    A = action.algebra
    F = A.field
    zero = Matrix(F, A.dim, A.dim)
    for s in range(S.size):
        T = action.theta[s]
        for new in (T + T, zero, Matrix.identity(F, A.dim), T @ T,
                    *action.theta):
            theta = list(action.theta)
            theta[s] = new
            yield UnitalAction(S, A, action.one, theta)
        for new in ({}, dict(A.unit), *action.one):
            one = list(action.one)
            one[s] = new
            yield UnitalAction(S, A, one, action.theta)


def test_crossed_product_refuses_exactly_the_invalid_actions():
    # Both constructors refuse every corrupted action that validate_action
    # refuses, with its report, and agree with the oracle on every other one.
    from oracles import crossed_product_by_vectors
    bases = [i1_on_k2(), natural_ke_action(chain_semilattice(2), Q),
             natural_ke_action(direct_product(chain_semilattice(2),
                                              cyclic_group(2)), Q)]
    seen = refused = 0
    for bad in (bad for base in bases for bad in _corrupted_actions(base)):
        seen += 1
        rep = validate_action(bad)
        if rep.ok:
            _assert_matches_oracle(crossed_product(bad),
                                   crossed_product_by_vectors(bad))
            continue
        refused += 1
        message = "action invalid: " + "; ".join(n for n, _ in rep.failures())
        for build in (CrossedProduct, crossed_product):
            with pytest.raises(ValueError) as exc:
                build(bad)
            assert str(exc.value) == message
    assert (seen, refused) == (96, 56)


def _without_index(action):
    """The same action data with its index tables dropped, so that every
    check and the construction take the path of a non-monomial action."""
    bare = UnitalAction(action.monoid, action.algebra, action.one,
                        action.theta)
    bare.index = None
    return bare


def _outcome(action):
    """The report of validate_action, and the refusal text or the matrices
    of crossed_product."""
    try:
        cp = crossed_product(action)
    except ValueError as exc:
        built = str(exc)
    else:
        q = cp.n_space
        built = (cp.labels, q.subspace_basis, q.section, q.projection,
                 cp.algebra.sc, cp.algebra.unit, cp.embed_A, cp.gamma)
    return validate_action(action).checks, built


def test_both_paths_refuse_the_corrupted_actions_alike():
    # Every corrupted action is refused with the same text, or built into
    # the same matrices, with its index tables as without them.
    from invhom.groupoids import bisections_with_masks, induced_action_hat
    from invhom.serialize import resolve_groupoid
    g = resolve_groupoid("pair:2")
    bases = [i1_on_k2(), natural_ke_action(chain_semilattice(2), Q),
             natural_ke_action(direct_product(chain_semilattice(2),
                                              cyclic_group(2)), Q),
             natural_ke_action(symmetric_inverse_monoid(2), Field(3)),
             induced_action_hat(g, Field(2), *bisections_with_masks(g))]
    seen = by_index = 0
    for bad in (bad for base in bases for bad in _corrupted_actions(base)):
        assert _outcome(bad) == _outcome(_without_index(bad))
        seen += 1
        by_index += bad.index is not None
    assert (seen, by_index) == (376, 361)


def test_non_monomial_actions_take_the_elimination_path():
    # A constant that is not a basis vector, or a T_s that sends a basis
    # vector elsewhere, leaves the index tables off.
    shifted = trivial_action(cyclic_group(2), _shifted_dual_numbers(Q))
    A = matrix_algebra(Q, 2)
    # Conjugation on M_2 by p = e_00 + e_01 - e_11, with e_ij at 2i + j:
    # p^2 = 1, and p e_00 p = e_00 + e_01 is not a basis vector.
    p = {0: 1, 1: 1, 3: -1}
    conj = Matrix(Q, 4, 4, [A.mul(A.mul(p, A.basis_vec(j)), p)
                            for j in range(4)])
    z2_twist = UnitalAction(cyclic_group(2), A, [dict(A.unit)] * 2,
                            [Matrix.identity(Q, 4), conj])
    for action in (shifted, z2_twist):
        assert action.index is None
        _assert_matches_elimination(action)


def _ideals_by_element(action):
    """The basis of each 1_s A, formed from its own x -> 1_s x."""
    return [image_basis(action.algebra.left_mult_matrix(e))
            for e in action.one]


@st.composite
def cyclic_action_data(draw):
    """Action data of z:2 or z:3 on K^n or M_2, valid or not: each 1_s the
    unit, a basis vector or drawn entries, each T_s the shift of the basis
    by s places or drawn 0/1 entries.  On K^n with every 1_s the unit and
    every T_s a shift it is the action that rotates the coordinates."""
    n = draw(st.sampled_from([2, 3]))
    F = Field(draw(st.sampled_from([0, 2, 3])))
    A = draw(st.sampled_from([diagonal_algebra(F, n), matrix_algebra(F, 2)]))
    d = A.dim
    entries = st.lists(st.sampled_from([0, 1, 2]), min_size=d, max_size=d)
    one, theta = [], []
    for s in range(n):
        kind = draw(st.sampled_from(["unit", "basis", "drawn"]))
        one.append(dict(A.unit) if kind == "unit"
                   else {draw(st.integers(0, d - 1)): F.one}
                   if kind == "basis" else sparse_vec(map(F.of, draw(entries))))
        theta.append(from_cols(F, d, [[int(i == (j + s) % d)
                                       for i in range(d)] for j in range(d)])
                     if draw(st.booleans())
                     else from_cols(F, d, [draw(entries) for _ in range(d)]))
    return UnitalAction(cyclic_group(n), A, one, theta)


@settings(deadline=None, max_examples=80)
@given(cyclic_action_data())
def test_action_ideals_are_the_per_element_images(action):
    # One list of 1_s A per action: the per-element checks read its
    # dimensions and bases, and the crossed product its labels.
    assert [span.basis for span in action.ideals] == _ideals_by_element(action)
    assert [span.dim for span in action.ideals] == [
        action.algebra.left_mult_matrix(e).rank() for e in action.one]
    if validate_action(action).ok:
        assert crossed_product(action).ideal_spans is action.ideals


def test_crossed_products_share_the_actions_ideal_spans():
    from invhom.crossed import PartialGroupAction
    actions = list(_desk_actions())
    pa = induced_partial_action(natural_ke_action(
        direct_product(chain_semilattice(2), cyclic_group(2)), Q))
    assert isinstance(pa, PartialGroupAction)
    for action in actions + [pa]:
        cp = CrossedProduct(action)
        assert cp.ideal_spans is action.ideals
        assert [span.basis for span in cp.ideal_spans] == \
            _ideals_by_element(action)


def test_partial_action_axioms():
    from invhom.crossed import PartialGroupAction
    z2 = cyclic_group(2)
    a = diagonal_algebra(Q, 2)
    # An involution of K^2 that is not an algebra map: it fixes (1, 0) and
    # sends (0, 1) to (1, -1), whose square is (1, 1).
    flip = from_rows(Q, [[1, 1], [0, -1]])
    with pytest.raises(ValueError, match="partial action invalid: .*multiplicative"):
        PartialGroupAction(z2, a, [{0: Q.one, 1: Q.one}] * 2,
                           [Matrix.identity(Q, 2), flip])
    # The proper partial action with D_g = K x 0 is accepted.
    pa = PartialGroupAction(z2, a, [{0: Q.one, 1: Q.one}, {0: Q.one}],
                            [Matrix.identity(Q, 2),
                             from_rows(Q, [[1, 0], [0, 0]])])
    assert pa.one[1] == {0: Q.one}


def test_skew_products_follow_the_partial_action():
    # a d_g * b d_h = theta_g(theta_g^-1(a) b) d_gh on every pair of basis
    # labels, for the induced partial actions of small monoids.
    from invhom.serialize import monoid_from_dict, resolve_monoid
    monoids = [resolve_monoid(spec) for spec in
               ("chain:2", "z:2", "z:3", "i:1", "i:2", "prod:chain:2,z:2")]
    monoids.append(monoid_from_dict(
        {"size": 3, "table": [[0, 1, 2], [1, 1, 2], [2, 2, 1]], "unit": 0}))
    checked = 0
    for m in monoids:
        for F in (Q, Field(2), Field(3)):
            for action in (trivial_action(m, field_algebra(F)),
                           natural_ke_action(m, F)):
                if not is_compatible(action):
                    continue
                pa = induced_partial_action(action)
                skew = CrossedProduct(pa)
                G, A = pa.monoid, pa.algebra
                for k1, (g, j1) in enumerate(skew.labels):
                    a_vec = skew.ideal_spans[g].basis.columns[j1]
                    for k2, (h, j2) in enumerate(skew.labels):
                        b_vec = skew.ideal_spans[h].basis.columns[j2]
                        inner = A.mul(pa.theta[G.inv[g]].apply(a_vec), b_vec)
                        prod = skew.place(G.table[g][h],
                                          pa.theta[g].apply(inner))
                        assert skew.algebra.sc[k1][k2] == prod
                checked += 1
    assert checked == 39


def test_validate_action_agrees_with_exhaustive_oracle():
    # Every candidate (1_s, T_s) for the two 2-element monoids acting on
    # the two 2-dimensional F_2-algebras: 64 per element, 16,384 in all.
    import itertools
    from invhom.algebras import dual_numbers
    from invhom.serialize import resolve_monoid
    from oracles import is_unital_action
    F2 = Field(2)
    vecs = [sparse_vec(v) for v in itertools.product(range(2), repeat=2)]
    mats = [from_rows(F2, [r[:2], r[2:]])
            for r in itertools.product(range(2), repeat=4)]
    per_element = list(itertools.product(vecs, mats))
    seen = valid = 0
    for spec in ("chain:2", "z:2"):
        S = resolve_monoid(spec)
        for A in (diagonal_algebra(F2, 2), dual_numbers(F2)):
            for cand in itertools.product(per_element, repeat=S.size):
                action = UnitalAction(S, A, [one for one, _ in cand],
                                      [theta for _, theta in cand])
                verdict = validate_action(action).ok
                assert verdict == is_unital_action(action), (spec, cand)
                seen += 1
                valid += verdict
    assert (seen, valid) == (16384, 9)
