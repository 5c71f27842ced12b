import functools
import itertools
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings, strategies as st

from invhom.algebras import (Algebra, Bimodule, diagonal_algebra,
                             dual_numbers, field_algebra, generator_images,
                             hochschild_cohomology, hochschild_homology,
                             is_separable, matrix_algebra, matrix_unit_table,
                             product_checks, regular_bimodule,
                             semigroup_algebra, table_algebra)
from invhom.cli import _resolve_action
from invhom.crossed import crossed_product, mobius_family
from invhom.groupoids import (discrete_groupoid, group_as_groupoid,
                              lx_embedding, pair_groupoid, steinberg_algebra)
from invhom.homology import mobius_idempotent
from invhom.linalg import Field, Matrix
from invhom.monoids import (chain_semilattice, cyclic_group,
                            symmetric_inverse_monoid)
from invhom.serialize import algebra_from_dict, resolve_groupoid, resolve_monoid
from oracles import (absolute_hochschild_cohomology,
                     absolute_hochschild_homology,
                     bimodule_sum_by_sparse_sum, dense_algebra_check,
                     dense_bimodule_check, dense_left_mult, dense_mul,
                     dense_vec, from_cols, from_rows, left_mult_by_sparse_sum,
                     right_mult_by_sparse_sum, sparse_sum_mul, sparse_vec)
from test_monoids import inverse_submonoids_of_i3_or_i4

Q = Field(0)
F2 = Field(2)


def test_algebra_validation_catches_nonassociative():
    # (b1 b1) b1 = b0 b1 = b0 but b1 (b1 b1) = b1 b0 = b1
    one = Q.one
    sc = [[{0: one}, {0: one}],
          [{1: one}, {0: one}]]
    with pytest.raises(ValueError, match="not associative"):
        Algebra(Q, 2, sc, {0: one})


def test_algebra_validation_catches_bad_unit():
    one = Q.one
    sc = [[{0: one}, {1: one}], [{1: one}, {}]]
    with pytest.raises(ValueError, match="unit"):
        Algebra(Q, 2, sc, {1: one})


def test_algebra_refuses_non_canonical_structure_constants():
    one = Q.one
    good = [[{0: one}, {1: one}], [{1: one}, {}]]
    Algebra(Q, 2, good, {0: one})
    for bad in ([one, Q.zero], {2: one}, {0: Q.zero}):
        sc = [[{0: one}, {1: one}], [{1: one}, bad]]
        with pytest.raises(ValueError, match="wrong shape"):
            Algebra(Q, 2, sc, {0: one})


def _sparse(dense):
    return [[{k: c for k, c in enumerate(vec) if c} for vec in row]
            for row in dense]


def _dense(alg):
    return [[[prod.get(k, alg.field.zero) for k in range(alg.dim)]
             for prod in row] for row in alg.sc]


def _accepts_as_oracle_does(field, dim, dense, unit):
    """Whether Algebra accepts these constants; it must refuse exactly
    where the dense oracle does, with the oracle's message."""
    expected = dense_algebra_check(field, dim, dense, unit)
    try:
        Algebra(field, dim, _sparse(dense), sparse_vec(unit))
    except ValueError as exc:
        assert str(exc) == expected
        return False
    assert expected is None
    return True


def test_algebra_check_agrees_with_dense_oracle_on_every_f2_plane():
    # All 2^8 structure constants and 2^2 units of a 2-dimensional
    # F_2-algebra.  12 are unital associative: an ordered basis of
    # F_2 x F_2 (3), of F_4 (3) or of F_2[x]/(x^2) (6), 6/|Aut| each.
    accepted = 0
    for bits in itertools.product((F2.zero, F2.one), repeat=10):
        dense = [[list(bits[0:2]), list(bits[2:4])],
                 [list(bits[4:6]), list(bits[6:8])]]
        accepted += _accepts_as_oracle_does(F2, 2, dense, list(bits[8:]))
    assert accepted == 12


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_algebra_check_agrees_with_dense_oracle_on_drawn_tables(data):
    F = data.draw(st.sampled_from([Field(3), Q]))
    dim = data.draw(st.integers(3, 4))
    scalar = st.sampled_from([0, 0, 0, 1, 1, -1, 2]).map(F.of)
    dense = [[[data.draw(scalar) for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
    unit = [data.draw(scalar) for _ in range(dim)]
    _accepts_as_oracle_does(F, dim, dense, unit)


def test_algebra_check_agrees_with_dense_oracle_on_corrupted_tables():
    # Each unital associative algebra, then each copy of it with one
    # structure constant or one unit coordinate moved by 1.
    refused = 0
    for F in (Field(3), Q):
        truncated = table_algebra(F, [[0, 1, 2], [1, 2, None],
                                      [2, None, None]], [0])
        algebras = [dual_numbers(F), truncated, matrix_algebra(F, 2),
                    semigroup_algebra(F, chain_semilattice(3)),
                    semigroup_algebra(F, cyclic_group(3)),
                    semigroup_algebra(F, symmetric_inverse_monoid(1))]
        for alg in algebras:
            dense = _dense(alg)
            unit = dense_vec(alg.unit, alg.dim)
            assert _accepts_as_oracle_does(F, alg.dim, dense, unit)
            for i, j, k in itertools.product(range(alg.dim), repeat=3):
                bad = [[list(vec) for vec in row] for row in dense]
                bad[i][j][k] = F.add(bad[i][j][k], F.one)
                refused += not _accepts_as_oracle_does(F, alg.dim, bad,
                                                       unit)
            for u in range(alg.dim):
                bad_unit = list(unit)
                bad_unit[u] = F.add(bad_unit[u], F.one)
                refused += not _accepts_as_oracle_does(F, alg.dim, dense,
                                                       bad_unit)
    assert refused


def test_light_test_refuses_corruption_away_from_the_generators():
    # b_i b_j with neither b_i nor b_j a generator: Light's test must still
    # refuse each corrupted constant there, with the dense oracle's message.
    for alg in (semigroup_algebra(Q, chain_semilattice(4)),
                matrix_algebra(Field(3), 2)):
        F = alg.field
        dense = _dense(alg)
        unit = dense_vec(alg.unit, alg.dim)
        off = [i for i in range(alg.dim) if i not in alg.generators]
        assert off
        for i, j in itertools.product(off, repeat=2):
            for k in range(alg.dim):
                bad = [[list(vec) for vec in row] for row in dense]
                bad[i][j][k] = F.add(bad[i][j][k], F.one)
                assert not _accepts_as_oracle_does(F, alg.dim, bad, unit)


@st.composite
def monomial_desk_tables(draw):
    """(table, units) of a desk monomial algebra, b_i b_j = b_table[i][j]
    or 0 where it is None: a monoid's Cayley table, the matrix units of
    M_1 or M_2, K^n, a groupoid's composition, or KE(S) for S a drawn
    inverse submonoid of I_3."""
    kind = draw(st.sampled_from(("semigroup", "matrix", "diagonal",
                                 "groupoid", "ke")))
    if kind == "semigroup":
        m = resolve_monoid(draw(st.sampled_from((
            "z:1", "z:3", "z:4", "chain:3", "chain:5", "i:1",
            "prod:chain:2,z:2"))))
        return m.table, [m.unit]
    if kind == "matrix":
        n = draw(st.integers(1, 2))
        return matrix_unit_table(n), [i * n + i for i in range(n)]
    if kind == "diagonal":
        n = draw(st.integers(1, 5))
        return [[i if i == j else None for j in range(n)]
                for i in range(n)], list(range(n))
    if kind == "groupoid":
        g = resolve_groupoid(draw(st.sampled_from((
            "pair:1", "pair:2", "group:z:3", "discrete:3"))))
        return g.comp, list(g.unit_of)
    m = draw(inverse_submonoids_of_i3_or_i4(sizes=(3,)))
    idems = m.idempotents()
    pos = {e: i for i, e in enumerate(idems)}
    return [[pos[m.table[e][f]] for f in idems] for e in idems], [pos[m.unit]]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_table_path_refuses_what_the_dense_oracle_refuses(data):
    # A desk monomial table as drawn, with one entry changed, two rows
    # swapped or one unit moved, all still monomial; or, over F_3 and Q,
    # with a 1 made a 2, which is not.  Algebra must refuse exactly what
    # the dense oracle refuses, with its message.
    F = data.draw(st.sampled_from((Q, F2, Field(3))))
    table, units = data.draw(monomial_desk_tables())
    table, n = [list(row) for row in table], len(table)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(("none", "entry", "swap", "unit")
                                     + ("two",) * (F.char != 2)))
    if kind == "entry":
        table[i][j] = data.draw(st.sampled_from((None, *range(n))))
    elif kind == "swap":
        table[i], table[j] = table[j], table[i]
    elif kind == "unit":
        units[data.draw(st.integers(0, len(units) - 1))] = i
    sc = [[{} if k is None else {k: F.one} for k in row] for row in table]
    if kind == "two":
        sc[i][j] = {k: F.of(2) for k in sc[i][j]}
    dense = [[[vec.get(k, F.zero) for k in range(n)] for vec in row]
             for row in sc]
    unit = dense_vec(dict.fromkeys(units, F.one), n)
    event(f"{kind}: " + ("accepted" if _accepts_as_oracle_does(
        F, n, dense, unit) else "refused"))


def test_dual_numbers_are_the_monomial_table_algebra():
    # The constants written out, b_0 = 1 and b_1 = x with x^2 = 0, give
    # the same algebra as the table.
    for F in (Q, F2, Field(3)):
        dn = dual_numbers(F)
        by_hand = Algebra(F, 2, [[{0: F.one}, {1: F.one}], [{1: F.one}, {}]],
                          {0: F.one})
        assert (dn.sc, dn.unit, dn.table, dn.generators) == \
            (by_hand.sc, by_hand.unit, by_hand.table, by_hand.generators)


def test_only_monomial_constants_take_the_table_path(monkeypatch):
    # Monomial constants, dual_numbers' among them, are checked on their
    # table, then the unit law alone runs through _failure(()).  K[x]/(x^2)
    # in the basis (1, 1 + x), where (1 + x)^2 = -1 + 2(1 + x), has a 2 and
    # keeps Light's test on the generators as sparse sums.
    calls, failure = [], Algebra._failure
    monkeypatch.setattr(Algebra, "_failure", lambda self, ks: calls.append(
        list(ks)) or failure(self, ks))
    F3 = Field(3)
    for F in (Q, F2, F3):
        for build in (dual_numbers, field_algebra,
                      lambda F: matrix_algebra(F, 2),
                      lambda F: semigroup_algebra(F, cyclic_group(3))):
            calls.clear()
            build(F)
            assert calls == [[]], (build, F)
    for F in (Q, F3):
        calls.clear()
        shifted = _shifted_dual_numbers(F)
        assert calls == [shifted.generators] and shifted.generators, F
    # A refusal on the table path reruns every triple and nothing else;
    # a unit that fails after the table passes comes after _failure(()).
    for table, units, first in (
            ([[0, 1, 2], [1, 2, None], [2, None, 1]], [0], "not associative"),
            ([[0, 1], [1, 0]], [1], "unit is not a two-sided identity")):
        calls.clear()
        with pytest.raises(ValueError, match=f"^{first}"):
            table_algebra(Q, table, units)
        assert calls[-1] == list(range(len(table)))
        assert calls[:-1] in ([], [[]])


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mul_equals_the_sparse_sum_form(data):
    # Drawn constants, mostly not monomial and not associative, and drawn
    # vectors: the in-place product gives the same entries, in the same
    # order and of the same types, as one sparse_sum over the pairs.
    F = data.draw(st.sampled_from((Q, F2, Field(3))))
    dim = data.draw(st.integers(1, 4))
    scalar = (st.integers(1, F.char - 1) if F.char else st.sampled_from(
        (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))))
    vec = st.dictionaries(st.integers(0, dim - 1), scalar, max_size=dim)
    alg = SimpleNamespace(field=F, sc=[[data.draw(vec) for _ in range(dim)]
                                       for _ in range(dim)])
    u, v = data.draw(vec), data.draw(vec)
    got, want = Algebra.mul(alg, u, v), sparse_sum_mul(alg, u, v)
    assert [(k, x, type(x)) for k, x in got.items()] == \
        [(k, x, type(x)) for k, x in want.items()]


def test_mul_drops_terms_that_cancel():
    # b_0 b_0 = b_0 + b_1 + b_2 and b_1 b_0 = -b_1 + b_2: in (b_0 + b_1) b_0
    # the b_1 terms cancel in every field, and the b_2 terms sum to 2,
    # which vanishes over F_2.  Over Q the halves sum to the Fraction 1, as
    # sparse_sum gives it.
    for F, u, want in ((Q, {0: 1, 1: 1}, {0: 1, 2: 2}),
                       (Field(3), {0: 1, 1: 1}, {0: 1, 2: 2}),
                       (F2, {0: 1, 1: 1}, {0: 1}),
                       (Q, {0: Fraction(1, 2), 1: Fraction(1, 2)},
                        {0: Fraction(1, 2), 2: Fraction(1)})):
        sc = [[{0: 1, 1: 1, 2: 1}, {}, {}], [{1: F.neg(1), 2: 1}, {}, {}],
              [{}, {}, {}]]
        alg = SimpleNamespace(field=F, sc=sc)
        got = Algebra.mul(alg, u, {0: 1})
        assert got == sparse_sum_mul(alg, u, {0: 1}) == want, F
        assert [type(x) for x in got.values()] == \
            [type(x) for x in want.values()]


@settings(deadline=None, max_examples=40)
@given(inverse_submonoids_of_i3_or_i4())
def test_generators_right_closure_spans_ks(m):
    # The unit and its left-to-right products with Algebra.generators span
    # KS: the premise of Light's test, checked with an exact rank.
    ks = semigroup_algebra(Q, m)
    seen, closure, frontier = set(), [], [ks.unit]
    while frontier:
        v = frontier.pop()
        key = tuple(sorted(v.items()))
        if key not in seen:
            seen.add(key)
            closure.append(v)
            frontier.extend(ks.mul(v, ks.basis_vec(g)) for g in ks.generators)
    assert Matrix(Q, ks.dim, len(closure), closure).rank() == ks.dim


def test_ks_needs_no_more_generators_than_its_monoid():
    # Taking b_i by decreasing support of b_i KS finds a generating set no
    # larger than the monoid's own, which is chosen by right-ideal size.
    for spec in ("i:2", "i:3", "prod:i:2,z:3"):
        m = resolve_monoid(spec)
        for F in (Q, F2):
            assert len(semigroup_algebra(F, m).generators) <= len(
                m.generators), (spec, F)


def test_matrix_algebra_is_matrix_units():
    m2 = matrix_algebra(Q, 2)
    # e_01 * e_10 = e_00, e_01 * e_01 = 0
    e01, e10 = m2.basis_vec(1), m2.basis_vec(2)
    assert m2.mul(e01, e10) == m2.basis_vec(0)
    assert m2.mul(e01, e01) == {}
    assert not m2.is_commutative()


def test_group_algebra_multiplication():
    kz2 = semigroup_algebra(Q, cyclic_group(2))
    g = kz2.basis_vec(1)
    assert kz2.mul(g, g) == kz2.basis_vec(0)


def test_semigroup_algebra_of_inverse_monoid():
    ki1 = semigroup_algebra(Q, symmetric_inverse_monoid(1))
    zero_elt = ki1.basis_vec(0)
    assert ki1.mul(zero_elt, zero_elt) == zero_elt


def test_table_algebras_multiply_by_their_table():
    # b_i b_j = b_table[i][j], or 0 where the table has no entry, for the
    # Cayley tables of i:2 and z:3 and the composition of pair:2 and z:3.
    for F in (Q, Field(3)):
        cases = [(semigroup_algebra(F, m), m.table, [m.unit])
                 for m in (symmetric_inverse_monoid(2), cyclic_group(3))]
        cases += [(steinberg_algebra(g, F), g.comp, g.unit_of)
                  for g in (pair_groupoid(2),
                            group_as_groupoid(cyclic_group(3)))]
        for alg, table, units in cases:
            zero = {}
            for i, row in enumerate(table):
                for j, k in enumerate(row):
                    want = zero if k is None else alg.basis_vec(k)
                    assert alg.mul(alg.basis_vec(i), alg.basis_vec(j)) == want
            assert alg.unit == {k: F.one for k in units}


def test_groupoid_algebras_are_matrix_and_diagonal_algebras():
    for F in (Q, Field(3)):
        for n in range(1, 4):
            pair = steinberg_algebra(pair_groupoid(n), F)
            mat = matrix_algebra(F, n)
            assert (pair.sc, pair.unit) == (mat.sc, mat.unit)
            disc = steinberg_algebra(discrete_groupoid(n), F)
            diag = diagonal_algebra(F, n)
            assert (disc.sc, disc.unit) == (diag.sc, diag.unit)


def test_table_algebra_is_validated():
    # (b1 b1) b2 = b2 b2 = b1, but b1 (b1 b2) = 0.
    with pytest.raises(ValueError, match="not associative"):
        table_algebra(Q, [[0, 1, 2], [1, 2, None], [2, None, 1]], [0])
    with pytest.raises(ValueError, match="unit"):
        table_algebra(Q, [[0, 1], [1, 0]], [1])


def test_bimodule_validation():
    k = field_algebra(Q)
    good = Bimodule(k, 1, [Matrix.identity(Q, 1)], [Matrix.identity(Q, 1)])
    assert good.dim == 1
    twisted = [from_rows(Q, [[2]])]
    with pytest.raises(ValueError, match="bimodule axioms fail"):
        Bimodule(k, 1, twisted, [Matrix.identity(Q, 1)])


def _corrupted_bimodules(bimodule):
    """Copies of a bimodule with one left or one right matrix set to zero
    or the identity, doubled, or swapped for another basis element's."""
    F = bimodule.algebra.field
    n = bimodule.dim
    for side in (0, 1):
        mats = (bimodule.left, bimodule.right)[side]
        for k, m in enumerate(mats):
            for new in (Matrix(F, n, n), Matrix.identity(F, n), m + m,
                        *(mats[:k] + mats[k + 1:])):
                sides = [list(bimodule.left), list(bimodule.right)]
                sides[side][k] = new
                yield sides


def test_bimodule_check_agrees_with_dense_oracle_on_corrupted_bimodules():
    refused = seen = 0
    for F in (Q, F2, Field(3)):
        for alg in (semigroup_algebra(F, symmetric_inverse_monoid(2)),
                    matrix_algebra(F, 2), dual_numbers(F),
                    diagonal_algebra(F, 3)):
            reg = regular_bimodule(alg)
            assert dense_bimodule_check(alg, alg.dim, reg.left,
                                        reg.right) is None
            Bimodule(alg, alg.dim, reg.left, reg.right)
            for left, right in _corrupted_bimodules(reg):
                expected = dense_bimodule_check(alg, alg.dim, left, right)
                seen += 1
                try:
                    Bimodule(alg, alg.dim, left, right)
                except ValueError as exc:
                    assert str(exc) == expected
                    refused += 1
                else:
                    assert expected is None
    assert (seen, refused) == (660, 636)


def test_product_checks_catch_a_non_homomorphism():
    # the identity on coordinates is an algebra map from K^2 to itself, but
    # not from the dual numbers K[x]/(x^2) to K^2: f(x x) = 0, f(x)^2 = f(x)
    diag, dual = diagonal_algebra(Q, 2), dual_numbers(Q)
    idm = Matrix.identity(Q, 2)
    for src, expected in ((diag, (True, True)), (dual, (False, False))):
        basis = [src.basis_vec(i) for i in range(2)]
        x = src.basis_vec(1)
        # every basis pair
        assert product_checks(idm, diag, basis,
                              lambda u, v: idm.apply(src.mul(u, v)),
                              [(x, x)],
                              list(zip(basis, idm.columns))) == expected
        # the same verdicts from the unit and the generators alone
        assert product_checks(idm, diag, basis,
                              lambda u, v: idm.apply(src.mul(u, v)),
                              [(x, x)], generator_images(src, idm)) == expected
    # a source held as its Cayley table: K[Z/2] -> K^2 by the two
    # characters is an algebra map; sending g to (1, 0) is not
    z2 = cyclic_group(2)
    for g_image, expected in (([1, -1], (True, True)), ([1, 0], (False, True))):
        f = from_cols(Q, 2, [[Q.one, Q.one], [Q.of(v) for v in g_image]])
        assert product_checks(f, diag, range(2),
                              lambda s, t: f.columns[z2.table[s][t]],
                              [(z2.unit, f.columns[z2.unit])],
                              list(zip(range(2), f.columns))) == expected
        assert product_checks(f, diag, range(2),
                              lambda s, t: f.columns[z2.table[s][t]],
                              [(z2.unit, f.columns[z2.unit])],
                              [(g, f.columns[g]) for g in
                               (z2.unit, *z2.generators)]) == expected


def _vector_entries(field):
    """Over Q the scalars 0, +-1/2, +-2, +-3; over F_p all of F_p."""
    if field.char:
        return st.integers(0, field.char - 1)
    return st.sampled_from((0, Fraction(1, 2), Fraction(-1, 2), 2, -2, 3, -3))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_sparse_products_agree_with_dense_helpers(data):
    # mul and left_mult_matrix on {i: x} vectors against the list-vector
    # helpers, with the zero vector on either side.
    F = data.draw(st.sampled_from((Q, F2, Field(3))))
    alg = data.draw(st.sampled_from((
        dual_numbers, lambda F: matrix_algebra(F, 2),
        lambda F: semigroup_algebra(F, symmetric_inverse_monoid(2)),
        lambda F: semigroup_algebra(F, cyclic_group(3)))))(F)
    vector = st.lists(_vector_entries(F).map(F.of), min_size=alg.dim,
                      max_size=alg.dim)
    u, v = data.draw(vector), data.draw(vector)
    zero = [F.zero] * alg.dim
    for x, y in ((u, v), (v, u), (u, zero), (zero, v)):
        assert alg.mul(sparse_vec(x), sparse_vec(y)) == \
            sparse_vec(dense_mul(alg, x, y))
    for x in (u, zero):
        assert alg.left_mult_matrix(sparse_vec(x)) == dense_left_mult(alg, x)


def test_hochschild_base_field():
    k = field_algebra(Q)
    m = regular_bimodule(k)
    assert hochschild_homology(k, m, 2) == [1, 0, 0]
    assert hochschild_cohomology(k, m, 2) == [1, 0, 0]


def test_hochschild_matrix_algebra_separable():
    m2 = matrix_algebra(Q, 2)
    m = regular_bimodule(m2)
    assert hochschild_homology(m2, m, 2) == [1, 0, 0]
    assert hochschild_cohomology(m2, m, 2) == [1, 0, 0]


def test_hochschild_dual_numbers():
    dn = dual_numbers(Q)
    m = regular_bimodule(dn)
    assert hochschild_homology(dn, m, 2) == [2, 1, 1]
    assert hochschild_cohomology(dn, m, 2) == [2, 1, 1]


def test_hochschild_degree_zero_dimensions():
    # H_0 = M/[A,M] and H^0 = M^A, spot-checked on the 2x2 matrix algebra:
    # commutators with all of A span a 3-dim space, the center is 1-dim.
    m2 = matrix_algebra(Q, 2)
    m = regular_bimodule(m2)
    assert hochschild_homology(m2, m, 0) == [1]
    assert hochschild_cohomology(m2, m, 0) == [1]


def test_hochschild_group_algebra_char_3():
    # K[Z_3] over F_3 is commutative and not separable; every degree of
    # HH_n and HH^n is 3-dimensional.  In characteristic 3, -1 != 1, so a
    # wrong face sign changes these numbers.
    kz3 = semigroup_algebra(Field(3), cyclic_group(3))
    m = regular_bimodule(kz3)
    assert hochschild_homology(kz3, m, 3) == [3, 3, 3, 3]
    assert hochschild_cohomology(kz3, m, 3) == [3, 3, 3, 3]


def _ks_family(field, monoid):
    """KS with its Möbius idempotents [e] = e prod_c (1 - c), e in E(S)."""
    A = semigroup_algebra(field, monoid)
    left = {e: A.left_mult_matrix({e: field.one})
            for e in monoid.idempotents()}
    family = (mobius_idempotent(monoid, e, left).apply(A.unit) for e in left)
    return A, [x for x in family if x]


def _crossed_family(field, spec):
    cp = crossed_product(_resolve_action(spec, field))
    return cp.algebra, mobius_family(cp)


def _steinberg_family(field, spec):
    g = resolve_groupoid(spec)
    return steinberg_algebra(g, field), lx_embedding(g, field).columns


def _fixture_family(field, name):
    doc = json.loads((Path(__file__).parent / "fixtures" / name).read_text())
    A = algebra_from_dict(doc)
    return A, [A.unit]


# name -> (chars, top degree, algebra and natural family from a field)
_DESK_ALGEBRAS = {
    "dual numbers": ((0, 2, 3), 4, lambda F: (dual_numbers(F),
                                              [dual_numbers(F).unit])),
    "M_2": ((0, 2, 3), 3, lambda F: (matrix_algebra(F, 2),
                                     [{0: F.one}, {3: F.one}])),
    "K^2": ((0, 2, 3), 3, lambda F: (diagonal_algebra(F, 2),
                                     [{0: F.one}, {1: F.one}])),
    # Upper triangular 2 x 2 matrices, basis e_11, e_12, e_22: not
    # symmetric, so e_i B e_j and e_j B e_i differ in dimension.
    "T_2": ((0, 2, 3), 3, lambda F: (table_algebra(
        F, [[0, 1, None], [None, None, 1], [None, None, 2]], [0, 2]),
        [{0: F.one}, {2: F.one}])),
    "KZ_3": ((0, 2, 3), 3, lambda F: _ks_family(F, cyclic_group(3))),
    "KS(i:2)": ((0, 2, 3), 2,
                lambda F: _ks_family(F, symmetric_inverse_monoid(2))),
    "dual-numbers-f3.json": ((3,), 3, lambda F: _fixture_family(
        F, "dual-numbers-f3.json")),
    "ke:chain:2": ((0, 2, 3), 3, lambda F: _crossed_family(F, "ke:chain:2")),
    "ke:i:2": ((0, 2, 3), 2, lambda F: _crossed_family(F, "ke:i:2")),
    "trivial:prod:chain:2,z:2": ((0, 2, 3), 3, lambda F: _crossed_family(
        F, "trivial:prod:chain:2,z:2")),
    "A_K(pair:2)": ((0, 2, 3), 3, lambda F: _steinberg_family(F, "pair:2")),
    "A_K(pair:3)": ((0, 2, 3), 2, lambda F: _steinberg_family(F, "pair:3")),
    "A_K(group:z:3)": ((0, 2, 3), 3,
                       lambda F: _steinberg_family(F, "group:z:3")),
}


def _transpose(m):
    cols = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, x in col.items():
            cols[i][j] = x
    return Matrix(m.field, m.cols, m.rows, cols)


def _dual(module):
    """M* with (a f b)(x) = f(b x a): a acts by the transpose of b's right
    action on M and b by that of a's left action."""
    return Bimodule(module.algebra, module.dim,
                    list(map(_transpose, module.right)),
                    list(map(_transpose, module.left)))


def _dual_bimodule(algebra):
    """B*: a acts by the transpose of x -> x a and b by that of x -> b x."""
    return _dual(regular_bimodule(algebra))


def _shifted_dual_numbers(field):
    """K[x]/(x^2) in the basis (1, 1 + x), where (1 + x)^2 = -1 + 2(1 + x):
    over F_3 and Q its constants hold a 2, and over F_2 it is K[Z_2]."""
    square = {0: field.neg(1), 1: field.of(2)}
    return Algebra(field, 2, [[{0: 1}, {1: 1}],
                              [{1: 1}, {k: c for k, c in square.items() if c}]],
                   {0: 1})


@functools.lru_cache(maxsize=None)
def _desk_algebra(name, char):
    return _DESK_ALGEBRAS[name][2](Field(char))[0]


def _typed_columns(m):
    """m's shape and entries, each scalar with its type."""
    return m.rows, m.cols, [[(i, x, type(x)) for i, x in col.items()]
                            for col in m.columns]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_action_matrices_equal_the_sparse_sum_forms(data):
    # The multiplication matrices and Bimodule._sum, summed in place, give
    # the entries, order and types of one sparse_sum per column: on the
    # desk algebras, drawn monomial tables and K[x]/(x^2) in the basis
    # (1, 1 + x), with a drawn vector that may hold a pair c b_i - c b_k,
    # whose terms cancel wherever b_i and b_k act alike.
    F = data.draw(st.sampled_from((Q, F2, Field(3))))
    kind = data.draw(st.sampled_from(("desk", "table", "shifted")))
    if kind == "desk":
        A = _desk_algebra(data.draw(st.sampled_from(sorted(
            name for name, (chars, _, _) in _DESK_ALGEBRAS.items()
            if F.char in chars))), F.char)
    elif kind == "table":
        A = table_algebra(F, *data.draw(monomial_desk_tables()))
    else:
        A = _shifted_dual_numbers(F)
    index = st.integers(0, A.dim - 1)
    scalar = (st.integers(1, F.char - 1) if F.char else st.sampled_from(
        (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))))
    v = data.draw(st.dictionaries(index, scalar, max_size=4))
    if data.draw(st.booleans()):
        i, k, c = data.draw(index), data.draw(index), data.draw(scalar)
        v.pop(k, None)
        v.update({i: c, k: F.neg(c)} if i != k else {})
    for got, want, sc in (
            (A.left_mult_matrix(v), left_mult_by_sparse_sum(A, v), A.sc),
            (A.right_mult_matrix(v), right_mult_by_sparse_sum(A, v),
             [list(col) for col in zip(*A.sc)])):
        assert _typed_columns(got) == _typed_columns(want)
        rows = sum(len(set().union(*(sc[i][j] for i in v)))
                   for j in range(A.dim))
        event("a term cancels" if got.nnz() < rows else "no term cancels")
    module = (_dual_bimodule if data.draw(st.booleans())
              else regular_bimodule)(A)
    cols = data.draw(st.none() | st.sets(index))
    for mats in (module.left, module.right):
        assert _typed_columns(module._sum(mats, v.items(), cols)) == \
            _typed_columns(bimodule_sum_by_sparse_sum(module, mats,
                                                      v.items(), cols))


def test_action_matrices_drop_terms_that_cancel():
    # b_0 b_0 = b_0 + b_1 + b_2 and b_1 b_0 = -b_1 + b_2, so column 0 of the
    # left multiplication by b_0 + b_1 is b_0 + 2 b_2: the b_1 terms cancel
    # in every field and 2 b_2 vanishes over F_2.  Column 0 of the action
    # of b_0 + b_1 on the regular bimodule, alone in cols, is the same.
    for F, want in ((Q, {0: 1, 2: 2}), (Field(3), {0: 1, 2: 2}),
                    (F2, {0: 1})):
        sc = [[{0: 1, 1: 1, 2: 1}, {}, {}], [{1: F.neg(1), 2: 1}, {}, {}],
              [{}, {}, {}]]
        alg = SimpleNamespace(field=F, sc=sc, dim=3)
        got = Algebra.left_mult_matrix(alg, {0: 1, 1: 1})
        assert got == left_mult_by_sparse_sum(alg, {0: 1, 1: 1})
        assert got.columns == [want, {}, {}], F
        module = SimpleNamespace(algebra=alg, dim=3, left=[
            Algebra.left_mult_matrix(alg, {k: 1}) for k in range(3)])
        assert Bimodule._sum(module, module.left, {0: 1, 1: 1}.items(),
                             {0}).columns == [want, {}, {}]


@functools.lru_cache(maxsize=None)
def _desk_case(name, char, dual):
    """The algebra, the regular bimodule or its dual, the natural family,
    the top degree, and the absolute complex's Betti numbers in both
    variances."""
    _, top, build = _DESK_ALGEBRAS[name]
    algebra, family = build(Field(char))
    m = (_dual_bimodule if dual else regular_bimodule)(algebra)
    return (algebra, m, family, top, absolute_hochschild_homology(algebra, m, top),
            absolute_hochschild_cohomology(algebra, m, top))


@st.composite
def desk_cases(draw):
    name = draw(st.sampled_from(sorted(_DESK_ALGEBRAS)))
    char = draw(st.sampled_from(_DESK_ALGEBRAS[name][0]))
    algebra, m, family, top, homology, cohomology = _desk_case(
        name, char, draw(st.booleans()))
    order = draw(st.permutations(range(len(family))))
    return (algebra, m, top, homology, cohomology,
            [None, family, [family[i] for i in order]])


@settings(deadline=None, max_examples=100)
@given(desk_cases())
def test_relative_betti_numbers_equal_the_absolute_complexs(case):
    # HH(B, M) = HH(B | E, M) for E spanned by any complete family of
    # orthogonal idempotents: [1], the natural one, and it reordered.
    algebra, m, top, homology, cohomology, families = case
    for family in families:
        assert hochschild_homology(algebra, m, top,
                                   idempotents=family) == homology
        assert hochschild_cohomology(algebra, m, top,
                                     idempotents=family) == cohomology


def _assert_duality(algebra, module, top, idempotents):
    """dim HH^n(A, M) = dim HH_n(A, M*) and dim HH_n(A, M) = dim HH^n(A, M*)
    over a field, Tor and Ext being dual; returns both sides for M."""
    dual = _dual(module)
    homology = hochschild_homology(algebra, module, top, idempotents=idempotents)
    cohomology = hochschild_cohomology(algebra, module, top,
                                       idempotents=idempotents)
    assert cohomology == hochschild_homology(algebra, dual, top,
                                             idempotents=idempotents)
    assert homology == hochschild_cohomology(algebra, dual, top,
                                             idempotents=idempotents)
    return homology, cohomology


def test_hochschild_homology_and_cohomology_are_dual():
    # Every desk algebra over each of its fields, relative to [1] and to
    # its natural family, with the regular bimodule and with its dual.
    sides = {}
    for name, (chars, top, build) in _DESK_ALGEBRAS.items():
        for char in chars:
            algebra, family = build(Field(char))
            for dual, module in ((False, regular_bimodule(algebra)),
                                 (True, _dual_bimodule(algebra))):
                for idempotents in (None, family):
                    sides[name, char, dual] = _assert_duality(
                        algebra, module, top, idempotents)
    # T_2 keeps the identity from holding by symmetry: its homology and
    # cohomology with coefficients in itself differ.
    for char in (0, 2):
        assert sides["T_2", char, False] == ([2, 0, 0, 0], [1, 0, 0, 0])
        assert sides["T_2", char, True] == ([1, 0, 0, 0], [2, 0, 0, 0])


def test_duality_on_the_steinberg_algebra_of_z8():
    # A_K(group:z:8) relative to its unit arrow, to degree 3 over Q: one
    # direction runs both the cochain and the chain path at walls scale.
    algebra, family = _steinberg_family(Q, "group:z:8")
    module = regular_bimodule(algebra)
    assert hochschild_cohomology(algebra, module, 3, idempotents=family) \
        == hochschild_homology(algebra, _dual(module), 3,
                               idempotents=family) == [8, 0, 0, 0]


def test_natural_family_sizes():
    # The property above compares families of these sizes.  A local algebra
    # has only [1]; under the trivial action every 1_e is 1_A, so only the
    # least idempotent's [e] is nonzero; group:z:3 has one unit arrow.
    sizes = {name: len(build(Field(chars[0]))[1])
             for name, (chars, _, build) in _DESK_ALGEBRAS.items()}
    assert sizes == {"dual numbers": 1, "M_2": 2, "K^2": 2, "T_2": 2,
                     "KZ_3": 1, "KS(i:2)": 4, "dual-numbers-f3.json": 1,
                     "ke:chain:2": 2, "ke:i:2": 4,
                     "trivial:prod:chain:2,z:2": 1, "A_K(pair:2)": 2,
                     "A_K(pair:3)": 3, "A_K(group:z:3)": 1}


def test_hochschild_boundary_squares_to_zero():
    from invhom.algebras import (RelativeBar, _hochschild_chain_boundary,
                                 _hochschild_cochain_boundary)
    for name in ("dual numbers", "M_2", "K^2", "KZ_3", "ke:i:2",
                 "A_K(pair:3)"):
        for char in (0, 2, 3):
            algebra, family = _DESK_ALGEBRAS[name][2](Field(char))
            m = regular_bimodule(algebra)
            for idempotents in (None, family):
                chains = RelativeBar(algebra, m, idempotents, True, 3, 50_000)
                cochains = RelativeBar(algebra, m, idempotents, False, 3,
                                       50_000)
                for n in (2, 3):
                    b_low = _hochschild_chain_boundary(chains, n - 1)
                    b_high = _hochschild_chain_boundary(chains, n)
                    assert (b_low @ b_high).is_zero()
                    d_low = _hochschild_cochain_boundary(cochains, n - 2)
                    d_high = _hochschild_cochain_boundary(cochains, n - 1)
                    assert (d_high @ d_low).is_zero()


def test_relative_degrees_are_the_composable_strings():
    # A_K(pair:4) = M_4 relative to its unit arrows: strings j_0..j_n with
    # j_k != j_{k+1}, 4 * 3^n of them, each with a one-dimensional block.
    from invhom.algebras import RelativeBar
    algebra, family = _steinberg_family(Q, "pair:4")
    bar = RelativeBar(algebra, regular_bimodule(algebra), family, True, 3,
                      50_000)
    assert bar.dims == [4, 12, 36, 108]
    assert [len(bar.degrees[n]) for n in range(4)] == [4, 12, 36, 108]
    # With [1] the normalized complex has (dim B - 1)^n tuples.
    bar = RelativeBar(algebra, regular_bimodule(algebra), None, True, 2,
                      50_000)
    assert bar.dims == [16 * 15 ** n for n in range(3)]


def _assert_split_matches_products(algebra, module, idempotents):
    from invhom.algebras import RelativeBar
    from oracles import peirce_split_by_products
    for chains in (True, False):
        bar = RelativeBar(algebra, module, idempotents, chains, 1, 50_000)
        spans, blocks, letters = peirce_split_by_products(
            algebra, module, idempotents, chains)
        assert [[s.basis for s in row] for row in bar.spans] == spans
        assert {key: (span.basis, base, d) for key, (span, base, d)
                in bar.blocks.items()} == blocks
        assert bar.letters == letters


def test_peirce_split_is_the_product_split():
    from invhom.algebras import RelativeBar
    # One image per family member, then R_j on its basis, picks the same
    # vectors as image_basis(L_i R_j): every desk algebra with [1] and with
    # its natural family, with the regular bimodule and its dual.
    cases = 0
    for name, (chars, _, build) in _DESK_ALGEBRAS.items():
        for char in chars:
            algebra, family = build(Field(char))
            for module in (regular_bimodule(algebra),
                           _dual_bimodule(algebra)):
                for idempotents in (None, family):
                    _assert_split_matches_products(algebra, module,
                                                   idempotents)
                    cases += 1
    assert cases == 4 * (3 * 12 + 1)
    # K = e_1 K over K^2, with e_2 acting by 0: e_2 M = 0, so every block
    # of e_2 has no columns.
    for char in (0, 2, 3):
        F = Field(char)
        k2 = diagonal_algebra(F, 2)
        act = [Matrix.identity(F, 1), Matrix(F, 1, 1)]
        module = Bimodule(k2, 1, act, act)
        family = [{0: F.one}, {1: F.one}]
        _assert_split_matches_products(k2, module, family)
        bar = RelativeBar(k2, module, family, True, 1, 50_000)
        assert [[s.dim for s in row] for row in bar.spans] == [[1, 0], [0, 0]]


def _family_error(algebra, family):
    with pytest.raises(ValueError) as exc:
        hochschild_homology(algebra, regular_bimodule(algebra), 1,
                            idempotents=family)
    return str(exc.value)


def test_family_that_is_not_complete_and_orthogonal_is_refused():
    m2 = matrix_algebra(Q, 2)
    one = Q.one
    e11, e22 = {0: one}, {3: one}
    assert _family_error(m2, [e11, {0: one, 3: one}]) == \
        "idempotent family: member 0 is not orthogonal to 1"
    assert _family_error(m2, [e11, {3: Q.of(2)}]) == \
        "idempotent family: member 1 is not idempotent"
    assert _family_error(m2, [e11, {}, e22]) == \
        "idempotent family: member 1 is zero"
    assert _family_error(m2, [e11]) == \
        "idempotent family does not sum to the unit"
    assert _family_error(m2, []) == \
        "idempotent family does not sum to the unit"
    # e_11 + e_12 and e_22 - e_12 are orthogonal idempotents that sum to 1:
    # a family need not be made of basis vectors.
    family = [{0: one, 1: one}, {3: one, 1: Q.neg(one)}]
    assert hochschild_homology(m2, regular_bimodule(m2), 2,
                               idempotents=family) == [1, 0, 0]


def test_family_is_refused_before_any_block_is_listed(monkeypatch):
    from invhom import algebras
    listed = []
    monkeypatch.setattr(algebras, "Block", lambda *args: listed.append(args))
    m2 = matrix_algebra(Q, 2)
    with pytest.raises(ValueError, match="idempotent family"):
        hochschild_cohomology(m2, regular_bimodule(m2), 1,
                              idempotents=[{0: Q.one}])
    with pytest.raises(ValueError, match="size cap exceeded"):
        hochschild_cohomology(m2, regular_bimodule(m2), 1, cap=11)
    assert listed == []


def test_hochschild_size_cap():
    m2 = matrix_algebra(Q, 2)
    with pytest.raises(ValueError, match="size cap exceeded"):
        hochschild_homology(m2, regular_bimodule(m2), 2, cap=10)


def test_separability():
    assert is_separable(field_algebra(Q))
    assert is_separable(diagonal_algebra(Q, 3))
    assert is_separable(matrix_algebra(Q, 2))
    assert not is_separable(dual_numbers(Q))
    assert is_separable(semigroup_algebra(Q, cyclic_group(2)))
    # char divides the group order: not separable (Maschke fails)
    assert not is_separable(semigroup_algebra(F2, cyclic_group(2)))
    assert is_separable(semigroup_algebra(Field(3), cyclic_group(2)))
