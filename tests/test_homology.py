import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from invhom.homology import (Block, KSModule, assemble, build_resolution,
                             cohomology, cohomology_complex, homology,
                             homology_complex, regular_ks_module,
                             trivial_module_ke)
from invhom.linalg import ColumnSpan, Field, Matrix
from invhom.monoids import (chain_semilattice, cyclic_group, direct_product,
                            symmetric_inverse_monoid, trivial_monoid)
from oracles import (bar_group_cohomology, bar_group_homology, dense,
                     is_module)

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
    assert m.col(e1)[e2] == Q.one and m.col(e2)[e1] == Q.one
    assert m.col(e1)[e1] == Q.zero


def test_trivial_module_ke_chain():
    c2 = chain_semilattice(2)
    v = trivial_module_ke(c2, Q)
    assert v.dim == 2
    # e1 sends e0 -> e1 and fixes e1
    assert v.act[1].col(0) == [Q.zero, Q.one]
    assert v.act[1].col(1) == [Q.zero, Q.one]


def test_ks_module_rejects_bad_action():
    z2 = cyclic_group(2)
    bad = [Matrix.identity(Q, 2), Matrix.from_rows(Q, [[1, 0], [1, 0]])]
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


def test_module_monoid_mismatch():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    v = trivial_module_ke(z3, Q)
    with pytest.raises(ValueError, match="module/monoid mismatch"):
        homology_complex(z2, v, 1)


def test_homology_complex_trivial_monoid():
    t = trivial_monoid()
    v = trivial_module_ke(t, Q)
    cx = homology_complex(t, v, 3)
    assert cx.space_dims == [1, 1, 1, 1]
    assert cx.check_composites()
    assert homology(t, v, 2) == [1, 0, 0]


def test_homology_complex_dims_group_f2():
    z2 = cyclic_group(2)
    v = trivial_module_ke(z2, F2)
    cx = homology_complex(z2, v, 3)
    assert cx.space_dims == [1, 2, 4, 8]


def test_complex_property_chain2_ke():
    c2 = chain_semilattice(2)
    v = trivial_module_ke(c2, Q)
    assert homology_complex(c2, v, 3).check_composites()
    assert cohomology_complex(c2, v, 2).check_composites()


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
    assert all(d == 1 for d in cx.space_dims)


def test_cochain_ranks_z2():
    z2 = cyclic_group(2)
    cx_q = cohomology_complex(z2, trivial_module_ke(z2, Q), 2)
    assert cx_q.boundaries[0].is_zero()
    # over Q the coboundary out of C^1 has rank 2 (cocycles are 1-dim);
    # over F2 it degenerates to rank 1
    assert cx_q.boundaries[1].rank() == 2
    cx_2 = cohomology_complex(z2, trivial_module_ke(z2, F2), 2)
    assert cx_2.boundaries[1].rank() == 1


def test_cochain_complex_property_i2():
    i2 = symmetric_inverse_monoid(2)
    v = trivial_module_ke(i2, Q)
    assert cohomology_complex(i2, v, 2).check_composites()


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
    dims_q = homology_complex(i2, trivial_module_ke(i2, Q), 2).space_dims
    dims_2 = homology_complex(i2, trivial_module_ke(i2, F2), 2).space_dims
    assert dims_q == dims_2


def test_degree_blocks_share_one_span_per_idempotent(monkeypatch):
    i2 = symmetric_inverse_monoid(2)
    v = trivial_module_ke(i2, Q)
    sources = []

    def recording(field, rows, cols, terms):
        terms = list(terms)
        sources.append({id(src): src for src, _, _, _ in terms})
        return assemble(field, rows, cols, terms)

    # The package's `homology` function hides the module of the same name.
    monkeypatch.setattr(importlib.import_module("invhom.homology"),
                        "assemble", recording)
    cx = homology_complex(i2, v, 2)
    degree_2 = sources[1].values()
    assert len(degree_2) == i2.size ** 2
    assert sum(blk.span.dim for blk in degree_2) == cx.space_dims[2]
    assert len({id(blk.span) for blk in degree_2}) <= len(i2.idempotents())


def test_assemble_memo_keeps_membership_check():
    plane = ColumnSpan(Matrix.identity(Q, 2))
    line = ColumnSpan(Matrix.from_cols(Q, 2, [[1, 0]]))
    onto_line = Matrix.from_rows(Q, [[1, 0], [0, 0]])
    swap = Matrix.from_rows(Q, [[0, 1], [1, 0]])
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
        homology_complex(i2, v, 3, cap=100)


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
