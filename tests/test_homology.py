import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from invhom.groupoids import bisections_with_masks, induced_action_hat
from invhom.homology import (Block, KSModule, _d_class_split, assemble,
                             build_resolution, cohomology, cohomology_complex,
                             d_class_summands, group_resolution, homology,
                             homology_complex, regular_ks_module,
                             trivial_module_ke)
from invhom.linalg import ColumnSpan, Field, Matrix
from invhom.monoids import (chain_semilattice, cyclic_group, direct_product,
                            from_table, symmetric_inverse_monoid,
                            trivial_monoid)
from invhom.serialize import resolve_groupoid, resolve_monoid
import oracles
from oracles import (bar_cohomology_complex, bar_group_cohomology,
                     bar_group_homology, bar_homology_complex, dense,
                     from_cols, from_rows, is_module)
from test_monoids import inverse_submonoids_of_i3_or_i4

Q = Field(0)
F2 = Field(2)
F3 = Field(3)


def test_trivial_module_ke_group_is_one_dimensional():
    z3 = cyclic_group(3)
    v = trivial_module_ke(z3, Q)
    assert v.dim == 1
    assert all(m.is_identity() for m in v.act)


def test_trivial_module_ke_i2_swaps_rank_one_idempotents():
    i2 = symmetric_inverse_monoid(2)
    v = trivial_module_ke(i2, Q)
    assert v.dim == 4
    idems = i2.idempotents()
    swap = i2.names.index("[12->21]")
    e1 = idems.index(i2.names.index("[1->1]"))
    e2 = idems.index(i2.names.index("[2->2]"))
    m = v.act[swap]
    assert m.columns[e1][e2] == Q.one and m.columns[e2][e1] == Q.one
    assert m.columns[e1].get(e1, Q.zero) == Q.zero


def test_trivial_module_ke_chain():
    c2 = chain_semilattice(2)
    v = trivial_module_ke(c2, Q)
    assert v.dim == 2
    # e1 sends e0 -> e1 and fixes e1
    assert v.act[1].columns[0] == {1: Q.one}
    assert v.act[1].columns[1] == {1: Q.one}


def test_ks_module_rejects_bad_action():
    z2 = cyclic_group(2)
    bad = [Matrix.identity(Q, 2), from_rows(Q, [[1, 0], [1, 0]])]
    with pytest.raises(ValueError, match="not a left module"):
        KSModule(z2, Q, 2, bad)


def _oracle_accepts(module_monoid, field, act):
    return is_module(module_monoid.table, module_monoid.unit, field.char,
                     [dense(a).data for a in act])


@pytest.mark.parametrize("side, build", [
    ("left", lambda m: regular_ks_module(m, Q)),
])
def test_module_corrupted_off_the_generators_is_rejected(side, build):
    i3 = symmetric_inverse_monoid(3)
    act = build(i3).act
    others = [x for x in range(i3.size) if x not in i3.generators]
    for x in others[::5]:
        bad = Matrix(Q, act[x].rows, act[x].cols,
                     [dict(col) for col in act[x].columns])
        bad.add_at(0, 0, Q.one)
        corrupted = act[:x] + [bad] + act[x + 1:]
        assert not _oracle_accepts(i3, Q, corrupted)
        with pytest.raises(ValueError, match=f"not a {side} module"):
            KSModule(i3, Q, bad.rows, corrupted)


_SMALL_MONOIDS = [symmetric_inverse_monoid(2), cyclic_group(3),
                  chain_semilattice(3),
                  direct_product(chain_semilattice(2), cyclic_group(2))]


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_module_check_agrees_with_exhaustive_oracle(data):
    # act[x] is replaced by act[y]: sometimes still a module, mostly not
    m = data.draw(st.sampled_from(_SMALL_MONOIDS))
    field = data.draw(st.sampled_from([Q, F2]))
    build = data.draw(st.sampled_from([trivial_module_ke, regular_ks_module]))
    act = build(m, field).act
    x, y = (data.draw(st.integers(0, m.size - 1)) for _ in range(2))
    act = act[:x] + [act[y]] + act[x + 1:]
    try:
        KSModule(m, field, act[0].rows, act)
        accepted = True
    except ValueError as exc:
        assert "not a left module" in str(exc)
        accepted = False
    assert accepted == _oracle_accepts(m, field, act)


def _in_partial_sums(module):
    """The same module written in the basis e_0 + .. + e_j, j = 0..dim-1,
    so that its matrices have columns that are not a single 1."""
    F, n = module.field, module.dim
    to_sums = Matrix(F, n, n, [{i: F.one for i in range(j + 1)}
                               for j in range(n)])
    from_sums = Matrix(F, n, n, [{j: F.one, j - 1: F.neg(F.one)} if j
                                 else {0: F.one} for j in range(n)])
    return KSModule(module.monoid, F, n,
                    [from_sums @ a @ to_sums for a in module.act])


def _law_modules():
    """(monoid, act) over F_3: trivial-ke and regular-ks of I_3, regular-ks
    in the basis of partial sums, and the restricted action of its
    D-class summand over S_3 (the group of units)."""
    i3 = symmetric_inverse_monoid(3)
    regular = regular_ks_module(i3, F3)
    sums = _in_partial_sums(regular)
    s3, w = max(d_class_summands(i3, sums), key=lambda gw: gw[0].size)
    return [(i3, trivial_module_ke(i3, F3).act), (i3, regular.act),
            (i3, sums.act), (s3, w.act)]


_LAW_MODULES = _law_modules()


@st.composite
def corrupted_actions(draw):
    """One matrix of a module of _LAW_MODULES with a 1 changed to 2, a
    second entry added to a column that is a single 1, or a column
    emptied."""
    monoid, act = draw(st.sampled_from(_LAW_MODULES))
    kind = draw(st.sampled_from(["one to two", "second entry", "emptied"]))
    spots = [(s, j, col) for s, m in enumerate(act)
             for j, col in enumerate(m.columns) if col]
    if kind == "one to two":
        spots = [(s, j, i) for s, j, col in spots
                 for i, x in col.items() if x == 1]
    elif kind == "second entry":
        spots = [(s, j, col) for s, j, col in spots
                 if len(col) == 1 and 1 in col.values()]
    s, j, spot = draw(st.sampled_from(spots))
    m = act[s]
    columns = [dict(col) for col in m.columns]
    if kind == "one to two":
        columns[j][spot] = 2
    elif kind == "second entry":
        i = draw(st.integers(0, m.rows - 1).filter(lambda i: i not in spot))
        columns[j][i] = draw(st.sampled_from([1, 2]))
    else:
        columns[j] = {}
    bad = Matrix(F3, m.rows, m.cols, columns)
    return monoid, act[:s] + [bad] + act[s + 1:]


@settings(deadline=None, max_examples=200)
@given(corrupted_actions())
def test_module_law_check_refuses_as_the_product_oracle_does(case):
    monoid, act = case
    expected = oracles.ks_module_failure(monoid, act)
    if expected is None:
        KSModule(monoid, F3, act[0].rows, act)
    else:
        with pytest.raises(ValueError) as exc:
            KSModule(monoid, F3, act[0].rows, act)
        assert str(exc.value) == expected


def test_law_modules_have_columns_that_are_not_a_single_one():
    for monoid, act in _LAW_MODULES:
        assert oracles.ks_module_failure(monoid, act) is None
    general = [[col for m in act for col in m.columns
                if not (len(col) == 1 and 1 in col.values())]
               for _, act in _LAW_MODULES]
    assert [bool(cols) for cols in general] == [False, False, True, True]


@st.composite
def monomial_module_monoids(draw, chain_sizes=st.integers(1, 48)):
    """An inverse submonoid of I_3 or I_4, a chain:n, or a prod: of two
    small monoids."""
    kind = draw(st.sampled_from(["submonoid", "chain", "prod"]))
    if kind == "submonoid":
        return draw(inverse_submonoids_of_i3_or_i4())
    if kind == "chain":
        return chain_semilattice(draw(chain_sizes))
    factors = st.sampled_from(["i:1", "i:2", "z:1", "z:3", "chain:2",
                               "chain:3", "trivial"])
    return resolve_monoid(f"prod:{draw(factors)},{draw(factors)}")


_INDEX_BUILDERS = [(trivial_module_ke, oracles.trivial_module_ke_by_columns),
                   (regular_ks_module, oracles.regular_ks_module_by_columns)]


@settings(deadline=None, max_examples=60)
@given(monomial_module_monoids(), st.sampled_from([Q, F2, F3]))
def test_index_built_modules_have_the_column_builders_matrices(m, field):
    for build, by_columns in _INDEX_BUILDERS:
        v, w = build(m, field), by_columns(m, field)
        assert (v.monoid, v.field, v.dim) == (m, field, w.dim)
        assert len(v.act) == len(w.act) == m.size
        assert v.act[m.unit] == w.act[m.unit]
        assert v.act[1:] == w.act[1:] and v.act[::-1] == w.act[::-1]
        assert list(v.act) == w.act


def _index_of(act):
    """The index table of matrices whose every column is a single 1."""
    return [bytes(min(col) for col in m.columns) for m in act]


def _refusal(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(deadline=None, max_examples=150)
@given(monomial_module_monoids(), st.data())
def test_corrupted_index_table_is_refused_as_its_matrices_are(m, data):
    by_columns = data.draw(st.sampled_from(_INDEX_BUILDERS))[1]
    index = _index_of(by_columns(m, F3).act)
    dim = len(index[0])
    s = data.draw(st.integers(0, m.size - 1))
    j = data.draw(st.integers(0, dim - 1))
    row = bytearray(index[s])
    # dim is the zero symbol, a column of 0s
    row[j] = data.draw(st.integers(0, dim))
    index[s] = bytes(row)
    matrices = [Matrix(F3, dim, dim, [{i: F3.one} if i < dim else {}
                                      for i in r]) for r in index]
    expected = oracles.ks_module_failure(m, matrices)
    assert _refusal(lambda: KSModule(m, F3, dim, index=index)) == expected
    assert _refusal(lambda: KSModule(m, F3, dim, matrices)) == expected
    assert expected is None or expected.startswith("not a left module")


def test_index_table_of_wrong_shape_is_refused():
    z3 = cyclic_group(3)
    rows = z3.rows
    for bad in ([rows[0], rows[1]], [rows[0], rows[1], rows[2][:2]],
                [rows[0], rows[1], b"\0\1\4"]):
        with pytest.raises(ValueError, match="mismatch|wrong shape"):
            KSModule(z3, Q, 3, index=bad)
    # Symbol 3 is a zero column at dim 3: a shape, so the law refuses it.
    index = [rows[0], rows[1], b"\0\1\3"]
    matrices = [Matrix(Q, 3, 3, [{i: Q.one} if i < 3 else {} for i in r])
                for r in index]
    expected = oracles.ks_module_failure(z3, matrices)
    assert expected.startswith("not a left module: action law fails at")
    assert _refusal(lambda: KSModule(z3, Q, 3, index=index)) == expected
    # chain:2 = {e < 1}, with e killing the second basis vector
    c2 = chain_semilattice(2)
    e = 1 - c2.unit
    index = [b"\0\1", b"\0\1"]
    index[e] = b"\0\2"
    v = KSModule(c2, F2, 2, index=index)
    assert v.act[e].columns == [{0: 1}, {}]


def _bisection_actions(field):
    """(monoid, T) of the action of the bisections on L(X), a module whose
    matrices are partial permutations."""
    out = []
    for spec in ("pair:2", "pair:3", "group:z:3", "discrete:4"):
        g = resolve_groupoid(spec)
        monoid, masks = bisections_with_masks(g)
        out.append((monoid,
                    induced_action_hat(g, field, monoid, masks).theta))
    return out


_BISECTION_ACTIONS = {F.char: _bisection_actions(F) for F in (Q, F2, F3)}


@st.composite
def module_matrices(draw):
    """(monoid, field, act): a total monomial module from the index
    builders' matrices, a bisection action on L(X) or the matrices of KE(S),
    perhaps with one column redirected to a basis vector or zeroed, or made
    not monomial by one entry 2 or a second entry."""
    field = draw(st.sampled_from([Q, F2, F3]))
    base = draw(st.sampled_from(["index builder", "bisection", "ke"]))
    if base == "bisection":
        monoid, act = draw(st.sampled_from(_BISECTION_ACTIONS[field.char]))
    else:
        monoid = draw(monomial_module_monoids(chain_sizes=st.integers(1, 12)))
        builders = (_INDEX_BUILDERS if base == "index builder"
                    else _INDEX_BUILDERS[:1])
        act = draw(st.sampled_from(builders))[1](monoid, field).act
    kinds = ["none", "redirect", "zero", "second entry"]
    if field.char != 2:
        kinds.append("entry 2")
    kind = draw(st.sampled_from(kinds))
    dim = act[0].rows
    if kind == "none" or dim == 0:
        return monoid, field, act
    s = draw(st.integers(0, monoid.size - 1))
    j = draw(st.integers(0, dim - 1))
    columns = [dict(col) for col in act[s].columns]
    col = columns[j]
    if kind == "redirect":
        columns[j] = {draw(st.integers(0, dim - 1)): field.one}
    elif kind == "zero":
        columns[j] = {}
    elif kind == "second entry" and len(col) < dim:
        col[draw(st.integers(0, dim - 1).filter(lambda i: i not in col))] = 1
    elif kind == "entry 2" and col:
        col[draw(st.sampled_from(sorted(col)))] = 2
    bad = Matrix(field, dim, dim, columns)
    return monoid, field, act[:s] + [bad] + act[s + 1:]


@settings(deadline=None, max_examples=200)
@given(module_matrices())
def test_module_check_on_matrices_refuses_as_the_product_oracle_does(case):
    monoid, field, act = case
    assert (_refusal(lambda: KSModule(monoid, field, act[0].rows, act))
            == oracles.ks_module_failure(monoid, act))


def test_modules_whose_symbols_fit_no_byte_take_the_product_path(
        monkeypatch):
    # Symbol 256 fits no byte, so such matrices are checked by products;
    # KS itself, with no zero column, is checked as a table.
    tables = []
    # invhom.homology is the function the package exports; this is the module.
    module = sys.modules["invhom.homology"]
    check_index = module._check_index
    monkeypatch.setattr(module, "_check_index",
                        lambda *args: tables.append(1) or check_index(*args))
    m = resolve_monoid("prod:chain:16,z:16")
    act = [Matrix(F2, 256, 256, [{t: 1} for t in row]) for row in m.table]
    KSModule(m, F2, 256, act)
    assert tables == [1]
    s = m.generators[-1]
    columns = [dict(col) for col in act[s].columns]
    columns[0] = {}
    act = act[:s] + [Matrix(F2, 256, 256, columns)] + act[s + 1:]
    expected = oracles.ks_module_failure(m, act)
    assert expected.startswith("not a left module: action law fails at")
    assert _refusal(lambda: KSModule(m, F2, 256, act)) == expected
    # Past 256 dimensions the unit's symbols fit no byte either.
    one = trivial_monoid()
    KSModule(one, F2, 300, [Matrix.identity(F2, 300)])
    shift = Matrix(F2, 300, 300, [{(j + 1) % 300: 1} for j in range(300)])
    assert (_refusal(lambda: KSModule(one, F2, 300, [shift]))
            == oracles.ks_module_failure(one, [shift]))
    assert tables == [1]


def test_regular_ks_on_256_elements():
    # KS is free over itself, so H_n(S, KS) = Tor_n(KE(S), KS) is KE(S) in
    # degree 0 and 0 above.
    for spec in ("chain:256", "prod:chain:16,z:16"):
        m = resolve_monoid(spec)
        v = regular_ks_module(m, F2)
        assert (m.size, v.dim) == (256, 256)
        assert v.act[255] == oracles.regular_ks_module_by_columns(
            m, F2).act[255]
        assert homology(m, v, 0) == [len(m.idempotents())]
    bad = list(m.rows)
    bad[255] = bad[254]
    with pytest.raises(ValueError, match="not a left module"):
        KSModule(m, F2, 256, index=bad)


def test_d_class_split_forms_only_the_matrices_it_reads():
    # The split of an index table reads the table alone: none of the 209
    # matrices of I_4 is formed, and every summand is an index table.
    i4 = symmetric_inverse_monoid(4)
    for build in (trivial_module_ke, regular_ks_module):
        v = build(i4, F2)
        groups = list(d_class_summands(i4, v))
        assert all(m is None for m in v.act.formed)
        assert all(w.index is not None for _, w in groups)


def test_table_split_refuses_a_group_element_that_leaves_its_points():
    # KS over I_2 with the swap's row replaced, after the law check, by
    # that of the idempotent [1->1]: the swap then sends the unit, a point
    # of X_1, to [1->1], whose least fixing idempotent is [1->1].
    i2 = symmetric_inverse_monoid(2)
    v = regular_ks_module(i2, F2)
    v.index = list(v.index)
    v.index[i2.names.index("[12->21]")] = v.index[i2.names.index("[1->1]")]
    with pytest.raises(ValueError, match="vector not in column span"):
        list(d_class_summands(i2, v))


def test_module_monoid_mismatch():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    v = trivial_module_ke(z3, Q)
    with pytest.raises(ValueError, match="module/monoid mismatch"):
        homology_complex(z2, v, 1)


def test_homology_complex_trivial_monoid():
    # K is free over K1, so the resolution stops at P_0 = K.
    t = trivial_monoid()
    v = trivial_module_ke(t, Q)
    cx = homology_complex(t, v, 3)
    assert cx.space_dims == [1, 0, 0, 0]
    assert cx.check_composites()
    assert homology(t, v, 2) == [1, 0, 0]


def test_homology_complex_dims_group_f2():
    z2 = cyclic_group(2)
    v = trivial_module_ke(z2, F2)
    # The resolution of Z_2 is periodic: KG <- KG <- ... by g - 1, g + 1.
    cx = homology_complex(z2, v, 3)
    assert cx.space_dims == [1, 1, 1, 1]


def test_complex_property_chain2_ke():
    c2 = chain_semilattice(2)
    v = trivial_module_ke(c2, Q)
    assert bar_homology_complex(c2, v, 3).check_composites()
    assert bar_cohomology_complex(c2, v, 2).check_composites()


def test_chain2_ke_homology():
    c2 = chain_semilattice(2)
    v = trivial_module_ke(c2, Q)
    assert homology(c2, v, 2) == [2, 0, 0]


def test_z2_homology_classical_values():
    z2 = cyclic_group(2)
    assert homology(z2, trivial_module_ke(z2, F2), 3) == [1, 1, 1, 1]
    assert homology(z2, trivial_module_ke(z2, Q), 2) == [1, 0, 0]


def test_z2_cohomology_classical_values():
    z2 = cyclic_group(2)
    assert cohomology(z2, trivial_module_ke(z2, Q), 2) == [1, 0, 0]
    assert cohomology(z2, trivial_module_ke(z2, F2), 3) == [1, 1, 1, 1]


def test_cochain_complex_trivial_monoid():
    t = trivial_monoid()
    v = trivial_module_ke(t, Q)
    cx = cohomology_complex(t, v, 2)
    assert cx.boundaries[0].is_zero()
    assert cx.space_dims == [1, 0, 0, 0]


def test_cochain_ranks_z2():
    z2 = cyclic_group(2)
    cx_q = cohomology_complex(z2, trivial_module_ke(z2, Q), 2)
    assert cx_q.boundaries[0].is_zero()
    # d_2 = g + 1, so on the trivial module the coboundary out of C^1 is
    # multiplication by 2: rank 1 over Q, and 0 over F2
    assert cx_q.boundaries[1].rank() == 1
    cx_2 = cohomology_complex(z2, trivial_module_ke(z2, F2), 2)
    assert cx_2.boundaries[1].rank() == 0
    # the bar complex has C^1 = K^2, and the rank is 2 over Q, 1 over F2
    assert bar_cohomology_complex(
        z2, trivial_module_ke(z2, Q), 2).boundaries[1].rank() == 2
    assert bar_cohomology_complex(
        z2, trivial_module_ke(z2, F2), 2).boundaries[1].rank() == 1


def test_cochain_complex_property_i2():
    i2 = symmetric_inverse_monoid(2)
    v = trivial_module_ke(i2, Q)
    assert bar_cohomology_complex(i2, v, 2).check_composites()


def test_group_specialization_matches_bar_oracle():
    groups = [cyclic_group(2), cyclic_group(3),
              direct_product(cyclic_group(2), cyclic_group(2))]
    fields = [Q, F2, F3]
    for g in groups:
        for f in fields:
            v = trivial_module_ke(g, f)
            assert homology(g, v, 3) == bar_group_homology(g, v, 3)
            assert cohomology(g, v, 3) == bar_group_cohomology(g, v, 3)


def test_klein_four_f2_known_betti():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    v = trivial_module_ke(klein, F2)
    assert homology(klein, v, 3) == [1, 2, 3, 4]
    assert cohomology(klein, v, 3) == [1, 2, 3, 4]


def test_semilattice_vanishing():
    for n in (1, 2, 3, 4):
        s = chain_semilattice(n)
        for v in (trivial_module_ke(s, Q), regular_ks_module(s, Q),
                  trivial_module_ke(s, F2)):
            betti = homology(s, v, 3)
            assert betti[0] == v.dim
            assert betti[1:] == [0, 0, 0]


def test_complex_shape_field_independent():
    i2 = symmetric_inverse_monoid(2)
    dims_q = bar_homology_complex(i2, trivial_module_ke(i2, Q), 2).space_dims
    dims_2 = bar_homology_complex(i2, trivial_module_ke(i2, F2), 2).space_dims
    assert dims_q == dims_2


def test_degree_blocks_share_one_span_per_idempotent(monkeypatch):
    i2 = symmetric_inverse_monoid(2)
    v = trivial_module_ke(i2, Q)
    sources = []

    def recording(field, rows, cols, terms):
        terms = list(terms)
        sources.append({id(src): src for src, _, _, _ in terms})
        return assemble(field, rows, cols, terms)

    monkeypatch.setattr(oracles, "assemble", recording)
    cx = bar_homology_complex(i2, v, 2)
    degree_2 = sources[1].values()
    assert len(degree_2) == i2.size ** 2
    assert sum(blk.span.dim for blk in degree_2) == cx.space_dims[2]
    assert len({id(blk.span) for blk in degree_2}) <= len(i2.idempotents())


def test_assemble_memo_keeps_membership_check():
    plane = ColumnSpan(Matrix.identity(Q, 2))
    line = ColumnSpan(from_cols(Q, 2, [[1, 0]]))
    onto_line = from_rows(Q, [[1, 0], [0, 0]])
    swap = from_rows(Q, [[0, 1], [1, 0]])
    first, second, target = Block(plane, 0), Block(plane, 2), Block(line, 0)
    d = assemble(Q, 1, 4, [(first, target, onto_line, 1),
                           (second, target, onto_line, -1)])
    assert d.columns == [{0: 1}, {}, {0: -1}, {}]
    # The first term memoizes (plane, line, onto_line); the second has the
    # same spans but leaves the line, and must still raise.
    for op in (swap, None):
        with pytest.raises(ValueError, match="not in column span"):
            assemble(Q, 1, 4, [(first, target, onto_line, 1),
                               (second, target, op, 1)])


def test_size_cap():
    i2 = symmetric_inverse_monoid(2)
    v = trivial_module_ke(i2, Q)
    with pytest.raises(ValueError, match="size cap exceeded"):
        bar_homology_complex(i2, v, 3, cap=100)


def test_complexes_refuse_a_monoid_that_is_not_a_group():
    c2 = chain_semilattice(2)
    v = trivial_module_ke(c2, Q)
    for build in (homology_complex, cohomology_complex):
        with pytest.raises(ValueError, match="not a group"):
            build(c2, v, 1)


def _symmetric_group(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return from_table([[index[tuple(p[x] for x in q)] for q in perms]
                       for p in perms], unit=0)


def test_known_group_homology_and_cohomology():
    # H_*(S_4; F_2) has Poincaré series (1 + t^2) / ((1 - t)(1 - t^3)), and
    # H_*(S_3; F_3) = H_*(Z_3; F_3)^{Z_2} has period 4.  Over F_p, Z_m has
    # one class in each degree when p | m; otherwise, and over Q, only H_0.
    series = [n // 3 + 1 for n in range(7)]
    s4_f2 = [series[n] + (series[n - 2] if n >= 2 else 0) for n in range(7)]
    assert s4_f2 == [1, 1, 2, 3, 3, 4, 5]
    cases = [(_symmetric_group(4), F2, s4_f2),
             (_symmetric_group(3), F3, [1, 0, 0, 1, 1, 0, 0, 1, 1])]
    for m in (2, 3, 4, 6):
        for F in (Q, F2, F3):
            divides = F.char != 0 and m % F.char == 0
            cases.append((cyclic_group(m), F, [1] + [int(divides)] * 5))
    for group, F, betti in cases:
        v = trivial_module_ke(group, F)
        assert homology(group, v, len(betti) - 1) == betti
        assert cohomology(group, v, len(betti) - 1) == betti


def _dual_module(module):
    """V* with s acting by act(s^-1)^T, a left module since
    (st)^-1 = t^-1 s^-1."""
    monoid, F, n = module.monoid, module.field, module.dim
    act = []
    for s in range(monoid.size):
        cols = [{} for _ in range(n)]
        for j, col in enumerate(module.act[monoid.inv[s]].columns):
            for i, x in col.items():
                cols[i][j] = x
        act.append(Matrix(F, n, n, cols))
    return KSModule(monoid, F, n, act)


def test_monoid_homology_and_cohomology_are_dual():
    # dim H^n(S, V) = dim H_n(S, V*) and dim H_n(S, V) = dim H^n(S, V*),
    # Tor and Ext being dual over a field: I_2 to degree 3 and I_3 to
    # degree 1, with KE(S) and KS, over Q, F_2 and F_3.
    seen = set()
    for n, top in ((2, 3), (3, 1)):
        monoid = symmetric_inverse_monoid(n)
        for F in (Q, F2, F3):
            for build in (trivial_module_ke, regular_ks_module):
                v = build(monoid, F)
                dual = _dual_module(v)
                assert cohomology(monoid, v, top) == homology(monoid, dual, top)
                assert homology(monoid, v, top) == cohomology(monoid, dual, top)
                seen.add(tuple(homology(monoid, v, top)))
    # Some of these are not concentrated in degree 0.
    assert (3, 1, 1, 1) in seen and (4, 2) in seen


def test_betti_rejects_negative_degree():
    from invhom.algebras import (field_algebra, hochschild_cohomology,
                                 hochschild_homology, regular_bimodule)
    z2 = cyclic_group(2)
    v = trivial_module_ke(z2, Q)
    k = field_algebra(Q)
    for betti in (lambda: homology(z2, v, -1),
                  lambda: cohomology(z2, v, -1),
                  lambda: hochschild_homology(k, regular_bimodule(k), -1),
                  lambda: hochschild_cohomology(k, regular_bimodule(k), -1)):
        with pytest.raises(ValueError, match="max degree must be non-negative"):
            betti()


def test_resolution_trivial_monoid():
    res = build_resolution(trivial_monoid(), Q, 3)
    assert res.dims() == [1, 1, 1, 1]
    assert res.verify_composites() and res.verify_homotopy()


def test_resolution_chain2():
    res = build_resolution(chain_semilattice(2), Q, 2)
    assert res.verify_composites() and res.verify_homotopy()


def test_resolution_i1_p1_dimension():
    res = build_resolution(symmetric_inverse_monoid(1), Q, 2)
    assert res.dims()[1] == 3
    assert res.verify_composites() and res.verify_homotopy()


def test_resolution_homotopy_several_monoids():
    for m in [cyclic_group(2), cyclic_group(3), chain_semilattice(3),
              direct_product(chain_semilattice(2), cyclic_group(2)),
              symmetric_inverse_monoid(2)]:
        if m.size > 4:
            deg = 1
        else:
            deg = 2
        res = build_resolution(m, Q, deg)
        assert res.verify_composites()
        assert res.verify_homotopy()


def test_resolution_cap():
    i2 = symmetric_inverse_monoid(2)
    with pytest.raises(ValueError, match="size cap exceeded"):
        build_resolution(i2, Q, 3, cap=50)


def _desk_monoids():
    from invhom.serialize import resolve_monoid
    specs = ("trivial", "chain:2", "chain:3", "chain:4", "z:2", "z:3", "z:4",
             "i:1", "i:2", "prod:chain:2,z:2", "prod:z:2,z:2",
             "file:tests/fixtures/monoid-1-e-ge.json")
    root = Path(__file__).resolve().parent.parent
    return [resolve_monoid(spec.replace("file:", f"file:{root}/"))
            for spec in specs]


def test_resolution_matches_dense_oracle():
    from oracles import dense_resolution
    for m in _desk_monoids():
        for F in (Q, F2):
            bases, boundary, homotopy = dense_resolution(m, F, 3)
            res = build_resolution(m, F, 3)
            assert res.dims() == [len(b) for b in bases]
            d = res.complex.boundaries
            assert d[0] is None and len(d) == len(boundary) + 1
            assert [dense(x) for x in d[1:]] == boundary
            assert [dense(h) for h in res.homotopy] == homotopy
            assert res.verify_composites() and res.verify_homotopy()


def test_resolution_checks_catch_one_corrupted_entry():
    for m, F in ((symmetric_inverse_monoid(1), Q), (cyclic_group(2), F2),
                 (symmetric_inverse_monoid(2), Q)):
        res = build_resolution(m, F, 2)
        # Each entry of each sigma in turn: scaled by 2 over Q, removed over
        # F_2.  sigma_0 e() = e(e) is a cycle for an idempotent e, so a
        # change there may leave a contracting homotopy; it is skipped.
        idems = set(m.idempotents())
        for k, h in enumerate(res.homotopy):
            for j, col in enumerate(h.columns):
                if k == 1 and j in idems:
                    continue
                for i, v in list(col.items()):
                    col[i] = F.add(v, F.one)
                    if not col[i]:
                        del col[i]
                    assert not res.verify_homotopy()
                    assert res.verify_composites()
                    col[i] = v
        assert res.verify_homotopy()
    # d_0 sends g() to r(g) = 1; doubled, d_0 d_1 (1(g)) = 2 - 1 is not 0.
    z2 = cyclic_group(2)
    res = build_resolution(z2, Q, 1)
    g = next(s for s in range(z2.size) if s != z2.unit)
    d0 = res.complex.boundaries[1]
    d0.columns[g] = {i: Q.add(v, v) for i, v in d0.columns[g].items()}
    assert not res.verify_composites()


# --- the D-class split against the undivided complex ----------------------

@st.composite
def embedded_submonoids_of_i3_or_i4(draw):
    """(S, images, n): the inverse submonoid S of I_n (n = 3 or 4) that a
    few drawn elements generate, relabelled by a drawn permutation, with
    images[s] the image tuple of s (entry x is the image of x + 1, or 0)."""
    n = draw(st.sampled_from([3, 4]))
    big = symmetric_inverse_monoid(n)
    gens = draw(st.lists(st.integers(0, big.size - 1), min_size=1,
                         max_size=3))
    elems = {big.unit} | set(gens) | {big.inv[g] for g in gens}
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        for y in list(elems):
            for z in (big.table[x][y], big.table[y][x]):
                if z not in elems:
                    elems.add(z)
                    frontier.append(z)
    elems = sorted(elems)
    perm = draw(st.permutations(range(len(elems))))
    table = [[0] * len(elems) for _ in elems]
    images = [None] * len(elems)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[perm[i]][perm[j]] = perm[elems.index(big.table[a][b])]
        images[perm[i]] = _image_tuple(big.names[a], n)
    return from_table(table, unit=perm[elems.index(big.unit)]), images, n


def _image_tuple(name, n):
    """The image tuple of the partial bijection named "[12->21]"."""
    out = [0] * n
    if name != "[]":
        dom, img = name[1:-1].split("->")
        for x, y in zip(dom, img):
            out[int(x) - 1] = int(y)
    return out


def exterior_module(monoid, images, n, k, field):
    """Λ^k K^n, each s acting on e_x1 ^ .. ^ e_xk as e_s(x1) ^ .. ^ e_s(xk)
    where s is defined at every x_i, and as 0 elsewhere; Λ^1 K^n is the
    natural partial-permutation module K^n."""
    subsets = list(itertools.combinations(range(n), k))
    pos = {xs: i for i, xs in enumerate(subsets)}
    act = []
    for s in range(monoid.size):
        cols = []
        for xs in subsets:
            ys = [images[s][x] - 1 for x in xs]
            if min(ys) < 0:
                cols.append({})
                continue
            inversions = sum(a > b for a, b in itertools.combinations(ys, 2))
            cols.append({pos[tuple(sorted(ys))]: field.of((-1) ** inversions)})
        act.append(Matrix(field, len(subsets), len(subsets), cols))
    return KSModule(monoid, field, len(subsets), act)


def direct_sum(a, b):
    dim = a.dim + b.dim
    act = [Matrix(a.field, dim, dim,
                  [dict(col) for col in x.columns]
                  + [{i + a.dim: v for i, v in col.items()}
                     for col in y.columns])
           for x, y in zip(a.act, b.act)]
    return KSModule(a.monoid, a.field, dim, act)


_MODULES = {
    "trivial-ke": lambda m, images, n, F: trivial_module_ke(m, F),
    "regular-ks": lambda m, images, n, F: regular_ks_module(m, F),
    "natural": lambda m, images, n, F: exterior_module(m, images, n, 1, F),
    "wedge2": lambda m, images, n, F: exterior_module(m, images, n, 2, F),
}


@settings(deadline=None, max_examples=60)
@given(embedded_submonoids_of_i3_or_i4(), st.data())
def test_d_class_split_equals_undivided_complex(drawn, data):
    m, images, n = drawn
    field = data.draw(st.sampled_from([Q, F2, F3]))
    kinds = data.draw(st.lists(st.sampled_from(sorted(_MODULES)),
                               min_size=1, max_size=2))
    modules = [_MODULES[kind](m, images, n, field) for kind in kinds]
    module = modules[0] if len(modules) == 1 else direct_sum(*modules)
    # The undivided complex has |S|^(deg + 1) tuples in its top degree.
    budget = 2000
    assume(m.size * module.dim <= budget)
    deg = max(d for d in (0, 1, 2) if m.size ** (d + 1) * module.dim <= budget)
    assert homology(m, module, deg) == \
        bar_homology_complex(m, module, deg + 1).betti(deg)
    assert cohomology(m, module, deg) == \
        bar_cohomology_complex(m, module, deg).betti(deg)


@settings(deadline=None, max_examples=40)
@given(embedded_submonoids_of_i3_or_i4(), st.data())
def test_group_complexes_equal_the_bar_oracle(drawn, data):
    # The maximal subgroups of a drawn submonoid, with the summands of a
    # drawn module: the complexes from the resolution against the bar
    # complex of the group, and the resolution itself exact.
    m, images, n = drawn
    field = data.draw(st.sampled_from([Q, F2, F3]))
    kinds = data.draw(st.lists(st.sampled_from(sorted(_MODULES)),
                               min_size=1, max_size=2))
    modules = [_MODULES[kind](m, images, n, field) for kind in kinds]
    module = modules[0] if len(modules) == 1 else direct_sum(*modules)
    for group, w in d_class_summands(m, module):
        # The bar complex has |G|^(deg + 1) tuples in its top degree.
        deg = max(d for d in (0, 1, 2)
                  if d == 0 or group.size ** (d + 1) * w.dim <= 1000)
        chains = homology_complex(group, w, deg + 1)
        cochains = cohomology_complex(group, w, deg)
        assert chains.check_composites() and cochains.check_composites()
        assert chains.betti(deg) == \
            bar_homology_complex(group, w, deg + 1).betti(deg)
        assert cochains.betti(deg) == \
            bar_cohomology_complex(group, w, deg).betti(deg)
        maps = group_resolution(group, field, 3, w.dim)
        for lower, upper in zip(maps, maps[1:]):
            assert upper.rank() == lower.cols - lower.rank()


@settings(deadline=None, max_examples=60)
@given(embedded_submonoids_of_i3_or_i4(), st.data())
def test_table_split_equals_the_mobius_split(drawn, data):
    # An index-table module split by its table (W_e the permutation module
    # on the points whose least fixing idempotent is e) and by the image of
    # [e] with each g restricted through coords: the same G_e, dim W_e and
    # Betti numbers per summand.  The natural module has zero symbols; a
    # sum past 255 dimensions has symbols that fit no byte, and no table.
    m, images, n = drawn
    field = data.draw(st.sampled_from([Q, F2, F3]))
    kinds = data.draw(st.lists(
        st.sampled_from(["trivial-ke", "regular-ks", "natural"]),
        min_size=1, max_size=2))
    modules = [_MODULES[kind](m, images, n, field) for kind in kinds]
    module = modules[0] if len(modules) == 1 else direct_sum(*modules)
    assume(module.index is not None)
    deg = _split_degree(m)
    tables = list(_d_class_split(m, module, True))
    spans = list(_d_class_split(m, module, False))
    assert len(tables) == len(spans)
    for (group, w), (other, v) in zip(tables, spans):
        assert w.index is not None
        assert (group.names, group.table) == (other.names, other.table)
        assert w.dim == v.dim
        assert homology_complex(group, w, deg + 1).betti(deg) == \
            homology_complex(other, v, deg + 1).betti(deg)
        assert cohomology_complex(group, w, deg).betti(deg) == \
            cohomology_complex(other, v, deg).betti(deg)


def test_d_class_summands_of_i3():
    # I_3 has one D-class per rank, with maximal subgroups S_3, S_2, S_1 and
    # S_0, and KE(I_3) = K𝒢^(0) puts one line in each summand.
    i3 = symmetric_inverse_monoid(3)
    summands = list(d_class_summands(i3, trivial_module_ke(i3, F2)))
    assert sorted(g.size for g, _ in summands) == [1, 1, 2, 6]
    assert all(g.is_group() and w.dim == 1 for g, w in summands)
    # [e]KS is spanned by the arrows that end at e, the R-class of e: for
    # e of rank r it has C(3, r) r! elements.
    summands = list(d_class_summands(i3, regular_ks_module(i3, F2)))
    assert sorted(w.dim for _, w in summands) == [1, 3, 6, 6]


def _relabelled(m, perm):
    table = [[0] * m.size for _ in range(m.size)]
    for a in range(m.size):
        for b in range(m.size):
            table[perm[a]][perm[b]] = perm[m.table[a][b]]
    return from_table(table, unit=perm[m.unit])


def _split_degree(m):
    """A degree the D-class split reaches quickly at the default cap: the
    largest maximal subgroup G has at most 250 tuples in the top degree,
    so S_3 goes to degree 2, D_4 and A_4 to degree 1, and S_4 to 0."""
    largest = max(sum(m.dom(s) == e == m.rng(s) for s in range(m.size))
                  for e in m.idempotents())
    return max(d for d in (0, 1, 2) if largest ** (d + 1) <= 250)


@settings(deadline=None, max_examples=25)
@given(inverse_submonoids_of_i3_or_i4(), st.data())
def test_betti_numbers_do_not_depend_on_labels(m, data):
    # Relabelling moves the least-index idempotent of a D-class, so the
    # split picks another representative e and another G_e.
    other = _relabelled(m, data.draw(st.permutations(range(m.size))))
    deg = _split_degree(m)
    for field in (F2, F3):
        for build in (trivial_module_ke, regular_ks_module):
            v, w = build(m, field), build(other, field)
            assert homology(m, v, deg) == homology(other, w, deg)
            assert cohomology(m, v, deg) == cohomology(other, w, deg)


@settings(deadline=None, max_examples=25)
@given(embedded_submonoids_of_i3_or_i4(),
       st.sampled_from(["trivial-ke", "regular-ks", "natural"]))
def test_rational_betti_numbers_are_at_most_modular_ones(drawn, kind):
    # An integral module V_Z has V_Q and V_Z / p: by universal coefficients
    # b_n over Q is the free rank of H_n(V_Z), which H_n(V_Z / p) bounds.
    m, images, n = drawn
    deg = _split_degree(m)
    for fn in (homology, cohomology):
        betti = {F.char: fn(m, _MODULES[kind](m, images, n, F), deg)
                 for F in (Q, F2, F3)}
        for p in (2, 3):
            assert all(q <= b for q, b in zip(betti[0], betti[p])), betti
