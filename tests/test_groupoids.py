import contextlib
import functools
import io
import itertools
import math
import sys
import time

import pytest
from hypothesis import event, given, settings, strategies as st

from invhom.algebras import Bimodule, regular_bimodule
from invhom.crossed import coinvariants, invariants_sub, validate_action
from invhom.groupoids import (FiniteGroupoid, _bisection_masks, bisections,
                              bisections_with_masks, discrete_groupoid, disjoint_union,
                              group_as_groupoid, induced_action_hat,
                              lx_embedding, pair_groupoid, psi_map,
                              steinberg_algebra, steinberg_data,
                              verify_steinberg_cohomology,
                              verify_steinberg_homology)
from invhom.homology import cohomology, homology
from invhom.linalg import Field, Matrix
from invhom.monoids import (MONOID_SIZE_CAP, chain_semilattice, cyclic_group,
                            symmetric_inverse_monoid)
from invhom.serialize import (groupoid_from_dict, groupoid_to_dict,
                              resolve_groupoid)
from oracles import (bisection_masks_by_filter, bisection_monoid_by_pairs,
                     crossed_coinvariants, crossed_invariants,
                     groupoid_failure, transport_bimodule)

Q = Field(0)


def test_pair_groupoid_shape():
    g = pair_groupoid(2)
    assert g.n_objects == 2 and g.n_arrows == 4
    # composition (i,j)(j,k) = (i,k)
    assert g.comp[0 * 2 + 1][1 * 2 + 0] == 0


def test_group_as_groupoid():
    g = group_as_groupoid(cyclic_group(2))
    assert g.n_objects == 1 and g.n_arrows == 2
    with pytest.raises(ValueError, match="invalid group table"):
        group_as_groupoid(chain_semilattice(2))


def test_disjoint_union_and_discrete():
    d = disjoint_union(pair_groupoid(1), pair_groupoid(1))
    assert d.n_objects == 2 and d.n_arrows == 2
    assert discrete_groupoid(3).n_arrows == 3


def test_discrete_groupoid_is_the_iterated_union():
    def fields(g):
        return (g.n_objects, g.src, g.rng, g.comp, g.inv, g.unit_of)

    union = pair_groupoid(1)
    for n in range(1, 6):
        assert fields(discrete_groupoid(n)) == fields(union)
        union = disjoint_union(union, pair_groupoid(1))


def test_bisection_counts():
    assert bisections(pair_groupoid(2)).size == 7
    assert bisections(group_as_groupoid(cyclic_group(2))).size == 3
    assert bisections(discrete_groupoid(2)).size == 4


def test_bisections_cap():
    # The monoid size cap is the only cap: 17 arrows with 18 bisections
    # are built.
    assert bisections(group_as_groupoid(cyclic_group(17))).size == 18
    # 9 arrows, but their 512 bisections exceed the monoid size cap, which
    # is checked before any table is built
    with pytest.raises(ValueError, match="size cap exceeded"):
        bisections(discrete_groupoid(9))
    for g in (discrete_groupoid(17),
              disjoint_union(pair_groupoid(4), pair_groupoid(1))):
        with pytest.raises(ValueError) as exc:
            bisections(g)
        assert str(exc.value) == ("size cap exceeded: groupoid has more "
                                  "than 256 bisections")


def test_bisection_listing_stops_past_the_cap():
    # discrete:n has 2^n bisections, and the partial ones double with each
    # object, so the listing refuses after 512 of them; at n = 60 a listing
    # that ran to the end would never finish.
    for n in (16, 60):
        with pytest.raises(ValueError, match="more than 256 bisections"):
            _bisection_masks(discrete_groupoid(n))


_SIZE_SWEEP = ("pair:4", "pair:5", "pair:15", "pair:16", "discrete:8",
               "discrete:9", "discrete:16", "discrete:255", "discrete:256",
               "group:z:16", "group:z:17", "group:z:255", "group:z:256")


def _closed_form_bisections(spec):
    """|I_n| = sum_k C(n,k)^2 k! for pair:n, 2^n for discrete:n and
    |G| + 1 for group:z:n."""
    kind, n = spec.rsplit(":", 1)
    n = int(n)
    if kind == "pair":
        return sum(math.comb(n, k) ** 2 * math.factorial(k)
                   for k in range(n + 1))
    return 2 ** n if kind == "discrete" else n + 1


def test_bisection_monoids_have_their_closed_form_size_or_are_refused():
    for spec in _SIZE_SWEEP:
        size = _closed_form_bisections(spec)
        start = time.monotonic()
        if size > MONOID_SIZE_CAP:
            with pytest.raises(ValueError, match="size cap exceeded"):
                bisections(resolve_groupoid(spec))
        else:
            assert bisections(resolve_groupoid(spec)).size == size, spec
        assert time.monotonic() - start < 2.0, spec


@functools.lru_cache(maxsize=None)
def _small_groupoid(spec):
    return resolve_groupoid(spec)


@st.composite
def groupoid_tables(draw):
    """A groupoid's fields, or a union of two, with one defined composite
    perhaps rewritten to another arrow of the same ends."""
    specs = ([f"pair:{n}" for n in range(2, 5)]
             + [f"group:z:{n}" for n in range(2, 7)]
             + ["group:prod:z:2,z:2"]
             + [f"discrete:{n}" for n in range(1, 5)])
    g = _small_groupoid(draw(st.sampled_from(specs)))
    if draw(st.booleans()):
        g = disjoint_union(g, _small_groupoid(draw(st.sampled_from(specs))))
    comp = [row[:] for row in g.comp]
    defined = [(a, b) for a in range(g.n_arrows) for b in range(g.n_arrows)
               if comp[a][b] is not None]
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(defined))
        c = comp[a][b]
        others = [x for x in range(g.n_arrows) if x != c
                  and (g.src[x], g.rng[x]) == (g.src[c], g.rng[c])]
        if others:
            comp[a][b] = draw(st.sampled_from(others))
    return g.n_objects, g.src, g.rng, comp, g.inv, g.unit_of


@settings(deadline=None, max_examples=300)
@given(groupoid_tables())
def test_groupoid_validation_refuses_as_the_triple_scan_does(fields):
    # Light's test on the table with a zero adjoined refuses exactly the
    # tables that the scan over every composable triple refuses, with the
    # same message but for the triple that an associativity refusal names.
    want = groupoid_failure(*fields)
    try:
        FiniteGroupoid(*fields)
    except ValueError as exc:
        got = str(exc)
    else:
        got = None
    event(want.split(" at ")[0].split(" of ")[0] if want else "accepted")
    if want is not None and want.startswith("composition not associative"):
        assert got is not None and got.startswith("not associative at (")
    else:
        assert got == want


def test_groupoid_of_255_arrows_validates_quickly():
    group = cyclic_group(255)
    start = time.perf_counter()
    g = group_as_groupoid(group)
    assert time.perf_counter() - start < 0.1
    assert g.n_arrows == 255


def test_groupoids_of_256_arrows_are_refused_when_built():
    # The table with a zero adjoined needs 257 symbols, one past a byte;
    # every arrow is a bisection, and so is the empty set.
    for build in (lambda: pair_groupoid(16), lambda: discrete_groupoid(256),
                  lambda: disjoint_union(group_as_groupoid(cyclic_group(255)),
                                         pair_groupoid(1))):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == ("size cap exceeded: groupoid has more "
                                  "than 256 bisections")


def test_missing_units_are_read_off_the_idempotent_arrows():
    # groupoid_to_dict writes no unit_of, so the loader infers it.
    built = 0
    for spec in _SIZE_SWEEP:
        try:
            g = resolve_groupoid(spec)
        except ValueError as exc:
            assert "more than 256 bisections" in str(exc), spec
            continue
        doc = groupoid_to_dict(g)
        assert "unit_of" not in doc
        assert groupoid_from_dict(doc).unit_of == g.unit_of, spec
        built += 1
    assert built == 10


def _assert_bisections_match_the_oracle(g):
    """Masks, table, unit and names as the 2^arrows filter and the pairwise
    product give them; past the size cap, the refusal."""
    masks = bisection_masks_by_filter(g)
    if len(masks) > MONOID_SIZE_CAP:
        for listing in (_bisection_masks, bisections_with_masks):
            with pytest.raises(ValueError, match="more than 256 bisections"):
                listing(g)
        return
    monoid, got = bisections_with_masks(g)
    assert got == masks
    assert (monoid.table, monoid.unit, monoid.names) == \
        bisection_monoid_by_pairs(g, masks)


def test_bisections_match_the_oracle_on_builtin_groupoids():
    for spec in ([f"pair:{n}" for n in range(1, 5)]
                 + [f"group:z:{n}" for n in range(1, 17)]
                 + [f"discrete:{n}" for n in range(1, 17)]):
        _assert_bisections_match_the_oracle(resolve_groupoid(spec))


@st.composite
def groupoid_documents(draw):
    """groupoid_to_dict of a disjoint union of pair groupoids and cyclic
    groups of at most 16 arrows in all, its arrows and objects renamed by
    drawn permutations and its units left for groupoid_from_dict to find."""
    pieces = draw(st.lists(st.one_of(
        st.integers(1, 3).map(pair_groupoid),
        st.integers(1, 5).map(lambda n: group_as_groupoid(cyclic_group(n)))),
        min_size=1, max_size=4))
    g = pieces[0]
    for piece in pieces[1:]:
        if g.n_arrows + piece.n_arrows <= 16:
            g = disjoint_union(g, piece)
    arrow = draw(st.permutations(range(g.n_arrows)))
    obj = draw(st.permutations(range(g.n_objects)))
    arrows, inv = [None] * g.n_arrows, [None] * g.n_arrows
    for a in range(g.n_arrows):
        arrows[arrow[a]] = {"src": obj[g.src[a]], "rng": obj[g.rng[a]]}
        inv[arrow[a]] = arrow[g.inv[a]]
    comp = [[arrow[a], arrow[b], arrow[c]]
            for a, b, c in groupoid_to_dict(g)["comp"]]
    return {"objects": g.n_objects, "arrows": arrows, "comp": comp,
            "inv": inv}


@settings(deadline=None, max_examples=40)
@given(groupoid_documents())
def test_bisections_match_the_oracle_on_groupoid_documents(doc):
    _assert_bisections_match_the_oracle(groupoid_from_dict(doc))


def test_bisections_pair_isomorphic_to_symmetric_inverse_monoid():
    # table isomorphism search, n <= 2
    for n in (1, 2):
        b = bisections(pair_groupoid(n))
        i_n = symmetric_inverse_monoid(n)
        assert b.size == i_n.size
        size = b.size
        b_idem = set(b.idempotents())
        i_idem = set(i_n.idempotents())
        found = False
        candidates = [p for p in itertools.permutations(range(size))
                      if p[b.unit] == i_n.unit
                      and all((x in b_idem) == (p[x] in i_idem)
                              for x in range(size))]
        for p in candidates:
            if all(p[b.table[x][y]] == i_n.table[p[x]][p[y]]
                   for x in range(size) for y in range(size)):
                found = True
                break
        assert found


def test_induced_action_hat_validates():
    for g in (pair_groupoid(2), group_as_groupoid(cyclic_group(2)),
              discrete_groupoid(2)):
        monoid, masks = bisections_with_masks(g)
        act = induced_action_hat(g, Q, monoid, masks)
        assert validate_action(act).ok
        assert act.algebra.dim == g.n_objects


def test_induced_action_hat_moves_coordinates():
    g = pair_groupoid(2)
    monoid, masks = bisections_with_masks(g)
    act = induced_action_hat(g, Q, monoid, masks)
    assert validate_action(act).ok
    # U = {arrow 1 -> 2}: arrow index (rng=1, src=0) -> a = 1*2+0 = 2
    u_idx = masks.index(1 << 2)
    assert act.one[u_idx] == {1: Q.one}
    assert act.theta[u_idx].columns[0][1] == Q.one
    # empty bisection: everything zero
    e_idx = masks.index(0)
    assert act.one[e_idx] == {}
    assert act.theta[e_idx].is_zero()


def test_discrete_groupoid_action_is_ideal_identities():
    g = discrete_groupoid(2)
    monoid, masks = bisections_with_masks(g)
    act = induced_action_hat(g, Q, monoid, masks)
    assert validate_action(act).ok
    for i, m in enumerate(masks):
        t = act.theta[i]
        assert t @ t == t  # projection onto the ideal
        assert t.apply(act.one[i]) == act.one[i]


def test_steinberg_algebra_structures():
    akz = steinberg_algebra(group_as_groupoid(cyclic_group(2)), Q)
    g = akz.basis_vec(1)
    assert akz.mul(g, g) == akz.basis_vec(0)  # group algebra

    ak = steinberg_algebra(pair_groupoid(2), Q)
    assert ak.dim == 4 and not ak.is_commutative()
    # e_{ij} e_{kl} = [j=k] e_{il} with arrow a=(i,j) at index 2i+j
    e01, e10 = ak.basis_vec(1), ak.basis_vec(2)
    assert ak.mul(e01, e10) == ak.basis_vec(0)
    assert ak.mul(e10, e01) == ak.basis_vec(3)

    akd = steinberg_algebra(discrete_groupoid(3), Q)
    assert akd.dim == 3 and akd.is_commutative()


def test_indicator_convolution_identity_exhaustive():
    for g in (pair_groupoid(2), group_as_groupoid(cyclic_group(2)),
              discrete_groupoid(2)):
        ak = steinberg_algebra(g, Q)
        monoid, masks = bisections_with_masks(g)

        def indicator(mask):
            return {a: Q.one for a in range(g.n_arrows) if mask >> a & 1}

        for i in range(monoid.size):
            for j in range(monoid.size):
                prod = monoid.table[i][j]
                assert ak.mul(indicator(masks[i]), indicator(masks[j])) == \
                    indicator(masks[prod])


def test_psi_trivial_groupoid():
    data = steinberg_data(pair_groupoid(1), Q)
    rep = data.psi_report
    assert rep.ok
    assert rep.data["dim_crossed"] == rep.data["dim_steinberg"] == 1


def test_psi_pair_groupoid():
    data = steinberg_data(pair_groupoid(2), Q)
    rep = data.psi_report
    assert rep.ok
    assert rep.data["dim_crossed"] == 4 and rep.data["dim_steinberg"] == 4


def test_psi_discrete():
    data = steinberg_data(discrete_groupoid(2), Q)
    rep = data.psi_report
    assert rep.ok and rep.data["dim_crossed"] == 2


def test_lx_embedding_is_unital():
    g = pair_groupoid(2)
    ak = steinberg_algebra(g, Q)
    emb = lx_embedding(g, Q)
    unit = {x: Q.one for x in range(g.n_objects)}
    assert emb.apply(unit) == ak.unit


def test_steinberg_homology_pair2():
    g = pair_groupoid(2)
    data = steinberg_data(g, Q)
    m = regular_bimodule(data.steinberg_algebra)
    rep = verify_steinberg_homology(data, m, 2)
    assert rep.ok
    assert rep.data["monoid_side"] == [1, 0, 0]
    assert rep.data["hochschild_side"] == [1, 0, 0]
    assert rep.data["coinvariants_dim"] == 2


def test_steinberg_cohomology_pair2():
    g = pair_groupoid(2)
    data = steinberg_data(g, Q)
    m = regular_bimodule(data.steinberg_algebra)
    rep = verify_steinberg_cohomology(data, m, 2)
    assert rep.ok
    assert rep.data["monoid_side"] == [1, 0, 0]
    assert rep.data["lx_cohomology"][1:] == [0, 0]
    assert rep.data["invariants_dim"] == 2


def test_steinberg_discrete_2():
    g = discrete_groupoid(2)
    data = steinberg_data(g, Q)
    m = regular_bimodule(data.steinberg_algebra)
    assert verify_steinberg_homology(data, m, 2).data["monoid_side"] == [2, 0, 0]
    assert verify_steinberg_cohomology(data, m, 2).data["monoid_side"] == [2, 0, 0]


def test_steinberg_group_z2_rational():
    g = group_as_groupoid(cyclic_group(2))
    data = steinberg_data(g, Q)
    m = regular_bimodule(data.steinberg_algebra)
    rh = verify_steinberg_homology(data, m, 2)
    rc = verify_steinberg_cohomology(data, m, 2)
    assert rh.ok and rh.data["monoid_side"] == [2, 0, 0]
    assert rc.ok and rc.data["monoid_side"] == [2, 0, 0]


def test_steinberg_data_bundle():
    data = steinberg_data(pair_groupoid(2), Q)
    assert data.bisection_monoid.size == 7
    assert data.crossed.action.algebra.dim == 2
    assert data.steinberg_algebra.dim == 4
    assert data.crossed.algebra.dim == 4
    assert data.psi_report.ok


def _count_calls(monkeypatch, targets):
    """Wrap each "module:name" wherever an invhom module refers to it."""
    counts = {}
    for target in targets:
        modname, name = target.split(":")
        original = getattr(sys.modules["invhom." + modname], name)
        counts[name] = 0

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for modkey, mod in list(sys.modules.items()):
            if modkey == "invhom" or modkey.startswith("invhom."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    return counts


def test_one_build_per_steinberg_job(monkeypatch):
    import invhom.cli
    targets = ["groupoids:bisections_with_masks", "groupoids:steinberg_algebra",
               "crossed:validate_action", "crossed:crossed_product"]
    jobs = [["steinberg", "--groupoid", "pair:2"],
            ["verify", "steinberg-homology", "--groupoid", "pair:2"]]
    for argv in jobs:
        with monkeypatch.context() as mp:
            counts = _count_calls(mp, targets)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert invhom.cli.main(argv) == 0
        assert counts == {"bisections_with_masks": 1, "steinberg_algebra": 1,
                          "validate_action": 1, "crossed_product": 1}, argv


def test_crossed_product_checks_compatibility_once(monkeypatch):
    # The CLI reads compatibility off the guard of induced_partial_action,
    # and the action is validated once, inside CrossedProduct.
    import invhom.cli
    for spec in ("ke:prod:chain:2,z:2", "ke:i:2"):
        with monkeypatch.context() as mp:
            counts = _count_calls(mp, ["crossed:is_compatible",
                                       "crossed:validate_action"])
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert invhom.cli.main(["crossed-product", "--action",
                                        spec]) == 0
        assert counts == {"is_compatible": 1, "validate_action": 1}, spec


def test_bimodule_over_another_algebra_is_refused():
    from invhom.algebras import (diagonal_algebra, dual_numbers,
                                 hochschild_homology)
    from invhom.crossed import (crossed_product, trivial_action,
                                verify_separable_collapse_homology)
    from invhom.monoids import trivial_monoid
    wrong = regular_bimodule(dual_numbers(Q))
    with pytest.raises(ValueError, match="not over"):
        hochschild_homology(diagonal_algebra(Q, 2), wrong, 1)
    cp = crossed_product(trivial_action(trivial_monoid(),
                                        diagonal_algebra(Q, 2)))
    assert cp.algebra.dim == 2
    with pytest.raises(ValueError, match="not over"):
        verify_separable_collapse_homology(cp, wrong, 1)
    data = steinberg_data(discrete_groupoid(2), Q)
    assert data.steinberg_algebra.sc == diagonal_algebra(Q, 2).sc
    for verify in (verify_steinberg_homology, verify_steinberg_cohomology):
        with pytest.raises(ValueError, match="not over"):
            verify(data, wrong, 1)


def test_action_checks_make_generator_many_products(monkeypatch):
    # The action law, the gamma check and the indicator check each run over
    # |S| elements times the monoid's generators, not over all |S|^2 pairs.
    import invhom.cli
    import invhom.crossed as crossed
    from invhom.algebras import Algebra
    from invhom.linalg import Matrix
    data = steinberg_data(pair_groupoid(3), Q)
    S = data.bisection_monoid
    action = data.crossed.action
    A = action.algebra
    assert (S.size, A.dim, len(S.generators)) == (34, 3, 3)
    counts = {"matmul": 0, "mul": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Matrix, "__matmul__",
                        counting("matmul", Matrix.__matmul__))
    monkeypatch.setattr(Algebra, "mul", counting("mul", Algebra.mul))
    assert validate_action(action).ok
    assert counts["matmul"] <= S.size * A.dim + S.size

    # The gamma loop alone: the build, action check included, is stubbed.
    monkeypatch.setattr(crossed, "CrossedProduct", lambda action: data.crossed)
    counts["mul"] = 0
    assert crossed.crossed_product(action) is data.crossed
    assert counts["mul"] == S.size * A.dim

    monkeypatch.setattr(invhom.cli, "steinberg_data", lambda g, field: data)
    counts["mul"] = 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert invhom.cli.main(["steinberg", "--groupoid", "pair:3"]) == 0
    assert counts["mul"] == S.size * len(S.generators)


GROUPOIDS = {
    **{f"pair:{n}": functools.partial(pair_groupoid, n) for n in (1, 2, 3)},
    **{f"group:z:{n}": functools.partial(group_as_groupoid, cyclic_group(n))
       for n in (2, 3, 4)},
    **{f"discrete:{n}": functools.partial(discrete_groupoid, n)
       for n in (1, 2, 3)},
    "pair:2+group:z:2": lambda: disjoint_union(
        pair_groupoid(2), group_as_groupoid(cyclic_group(2))),
}


@functools.lru_cache(maxsize=None)
def _bundle_and_psi(name, char):
    g = GROUPOIDS[name]()
    field = Field(char)
    data = steinberg_data(g, field)
    _, masks = bisections_with_masks(g)
    psi, _ = psi_map(g, masks, data.crossed, data.steinberg_algebra)
    return data, psi


def _transpose(m):
    t = Matrix(m.field, m.cols, m.rows)
    for j, col in enumerate(m.columns):
        for i, x in col.items():
            t.add_at(j, i, x)
    return t


def _block_sum(m1, m2):
    d1 = m1.rows
    return Matrix(m1.field, d1 + m2.rows, d1 + m2.cols,
                  [dict(c) for c in m1.columns]
                  + [{d1 + i: x for i, x in c.items()} for c in m2.columns])


def _bimodule(kind, algebra):
    """The regular bimodule, its dual (a.f = f(- a), f.a = f(a -)) or their
    direct sum."""
    reg = regular_bimodule(algebra)
    if kind == "regular":
        return reg
    dual = Bimodule(algebra, algebra.dim, list(map(_transpose, reg.right)),
                    list(map(_transpose, reg.left)))
    if kind == "dual":
        return dual
    return Bimodule(algebra, 2 * algebra.dim,
                    list(map(_block_sum, reg.left, dual.left)),
                    list(map(_block_sum, reg.right, dual.right)))


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(sorted(GROUPOIDS)), st.sampled_from((0, 2, 3)),
       st.sampled_from(("regular", "dual", "sum")))
def test_coefficients_in_steinberg_algebra_match_transported_route(
        name, char, kind):
    data, psi = _bundle_and_psi(name, char)
    S, crossed = data.bisection_monoid, data.crossed
    for u in range(S.size):
        assert psi.apply(crossed.gamma[u]) == data.indicators[u]
    module = _bimodule(kind, data.steinberg_algebra)
    units = lx_embedding(data.groupoid, Field(char)).columns
    co = coinvariants(module, S, data.indicators, units)[1]
    inv = invariants_sub(module, S, data.indicators, units)
    transported = transport_bimodule(module, crossed, psi)
    co_ref = crossed_coinvariants(transported, crossed)
    inv_ref = crossed_invariants(transported, crossed)
    assert (co.dim, inv.dim) == (co_ref.dim, inv_ref.dim)
    assert homology(S, co, 2) == homology(S, co_ref, 2)
    assert cohomology(S, inv, 2) == cohomology(S, inv_ref, 2)


def test_steinberg_verifier_builds_no_bimodule_over_crossed_product(
        monkeypatch):
    import invhom.cli
    built, bundles = [], []
    init = Bimodule.__init__

    def recording(self, algebra, *args, **kwargs):
        built.append(algebra)
        init(self, algebra, *args, **kwargs)

    def keep(g, field):
        bundles.append(steinberg_data(g, field))
        return bundles[-1]

    monkeypatch.setattr(Bimodule, "__init__", recording)
    monkeypatch.setattr(invhom.cli, "steinberg_data", keep)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert invhom.cli.main(["verify", "steinberg-homology",
                                "--groupoid", "pair:3"]) == 0
    (data,) = bundles
    assert any(a is data.steinberg_algebra for a in built)
    assert not any(a is data.crossed.algebra for a in built)


def test_steinberg_sides_add_over_a_union_of_21_arrows():
    # group:z:17 + pair:2 has 21 arrows and 18 * 7 = 126 bisections.  Both
    # sides of both verifiers are the sums of the parts' sides.
    parts = [group_as_groupoid(cyclic_group(17)), pair_groupoid(2)]

    def sides(g):
        data = steinberg_data(g, Q)
        module = regular_bimodule(data.steinberg_algebra)
        out = []
        for verify in (verify_steinberg_homology, verify_steinberg_cohomology):
            rep = verify(data, module, 1)
            assert rep.ok
            out += [rep.data["monoid_side"], rep.data["hochschild_side"]]
        return data.bisection_monoid.size, out

    size, whole = sides(disjoint_union(*parts))
    (size_z, side_z), (size_p, side_p) = map(sides, parts)
    assert (size, size_z, size_p) == (126, 18, 7)
    assert whole == [[x + y for x, y in zip(a, b)]
                     for a, b in zip(side_z, side_p)]
    assert whole[0] == [18, 0]
