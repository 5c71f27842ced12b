"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
All arithmetic is exact; every comparison below is equality, no tolerances.
"""

import random
import subprocess
import sys
import time

from invhom.algebras import (diagonal_algebra, field_algebra, matrix_algebra,
                             regular_bimodule)
from invhom.crossed import (UnitalAction, crossed_product,
                            ks_as_crossed_product, natural_ke_action,
                            phi_map, trivial_action,
                            verify_separable_collapse_cohomology,
                            verify_separable_collapse_homology)
from invhom.groupoids import (bisections_with_masks, discrete_groupoid,
                              group_as_groupoid, pair_groupoid,
                              steinberg_algebra, steinberg_data,
                              verify_steinberg_cohomology,
                              verify_steinberg_homology)
from invhom.homology import (build_resolution, cohomology, homology,
                             regular_ks_module, trivial_module_ke)
from invhom.linalg import Field, Matrix, kernel_basis
from invhom.monoids import (chain_semilattice, cyclic_group, direct_product,
                            symmetric_inverse_monoid, trivial_monoid)
from oracles import (bar_cohomology_complex, bar_group_cohomology,
                     bar_group_homology, bar_homology_complex, dense_col,
                     from_rows, sparse_vec)

Q = Field(0)
F2 = Field(2)
F3 = Field(3)


def _verdict(number, name, ok, started, budget):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s / budget {budget}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def _builtin_monoids_up_to_7():
    return [
        ("trivial", trivial_monoid()),
        ("chain:2", chain_semilattice(2)),
        ("chain:3", chain_semilattice(3)),
        ("chain:4", chain_semilattice(4)),
        ("z:2", cyclic_group(2)),
        ("z:3", cyclic_group(3)),
        ("z:4", cyclic_group(4)),
        ("i:1", symmetric_inverse_monoid(1)),
        ("i:2", symmetric_inverse_monoid(2)),
        ("prod:chain:2,z:2", direct_product(chain_semilattice(2),
                                            cyclic_group(2))),
        ("prod:z:2,z:2", direct_product(cyclic_group(2), cyclic_group(2))),
    ]


def test_criterion_1_complex_property_suite():
    t0 = time.monotonic()
    ok = True
    for name, m in _builtin_monoids_up_to_7():
        assert m.size <= 7
        modules = [trivial_module_ke(m, Q)]
        if m.size <= 6:
            modules.append(regular_ks_module(m, Q))
        modules = [v for v in modules if v.dim <= 6]
        for v in modules:
            ok = ok and bar_homology_complex(m, v, 3).check_composites()
            ok = ok and bar_cohomology_complex(m, v, 3).check_composites()
        res = build_resolution(m, Q, 3)
        ok = ok and res.verify_composites()
    _verdict(1, "complex property suite", ok, t0, 60)


def test_criterion_2_resolution_exactness():
    t0 = time.monotonic()
    ok = True
    small = [m for _, m in _builtin_monoids_up_to_7() if m.size <= 4]
    for m in small:
        res = build_resolution(m, Q, 3)
        ok = ok and res.verify_homotopy()
    _verdict(2, "resolution exactness (homotopy identity)", ok, t0, 30)


def test_criterion_3_group_specialization_oracle():
    t0 = time.monotonic()
    ok = True
    groups = [cyclic_group(2), cyclic_group(3),
              direct_product(cyclic_group(2), cyclic_group(2))]
    for g in groups:
        for field in (Q, F2, F3):
            v = trivial_module_ke(g, field)
            ok = ok and homology(g, v, 3) == bar_group_homology(g, v, 3)
            ok = ok and cohomology(g, v, 3) == bar_group_cohomology(g, v, 3)
    z2 = cyclic_group(2)
    ok = ok and homology(z2, trivial_module_ke(z2, F2), 3) == [1, 1, 1, 1]
    _verdict(3, "group specialization vs bar oracle", ok, t0, 60)


def test_criterion_4_semilattice_vanishing():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        s = chain_semilattice(n)
        for v in (trivial_module_ke(s, Q), regular_ks_module(s, Q),
                  trivial_module_ke(s, F2), regular_ks_module(s, F3)):
            betti = homology(s, v, 3)
            ok = ok and betti[0] == v.dim and betti[1:] == [0, 0, 0]
    _verdict(4, "semilattice vanishing", ok, t0, 10)


def _i1_on_k2():
    i1 = symmetric_inverse_monoid(1)
    a = diagonal_algebra(Q, 2)
    one = [{0: Q.one}, {0: Q.one, 1: Q.one}]
    theta = [from_rows(Q, [[1, 0], [0, 0]]), Matrix.identity(Q, 2)]
    return UnitalAction(i1, a, one, theta)


def test_criterion_5_crossed_product_structure():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(0)

    # sigma-class sums vanish on random elements of the relation subspace
    for action in (_i1_on_k2(),
                   natural_ke_action(symmetric_inverse_monoid(2), Q),
                   trivial_action(direct_product(chain_semilattice(2),
                                                 cyclic_group(2)),
                                  field_algebra(Q))):
        cp = crossed_product(action)
        basis = cp.n_space.subspace_basis
        for _ in range(12):
            vec = [Q.zero] * cp.l_dim
            for j in range(basis.cols):
                c = Q.of(rng.randint(-5, 5))
                for i, val in enumerate(dense_col(basis, j)):
                    if val:
                        vec[i] += c * val
            ok = ok and all(not s for s in cp.class_sums(sparse_vec(vec)))

    # E-unitary: vanishing class sums characterize membership, and phi is
    # bijective
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    for action in (trivial_action(p, field_algebra(Q)),
                   natural_ke_action(p, Q)):
        cp = crossed_product(action)
        proj = p.sigma_class_index()
        rows = []
        for c in range(len(p.sigma_classes())):
            for coord in range(action.algebra.dim):
                rows.append([
                    cp.ideal_spans[s].basis.columns[j].get(coord, Q.zero)
                    if proj[s] == c else Q.zero
                    for (s, j) in cp.labels])
        ker = kernel_basis(from_rows(Q, rows))
        ok = ok and ker.cols == cp.n_space.subspace_basis.cols
        for _ in range(12):
            vec = [Q.zero] * cp.l_dim
            for j in range(ker.cols):
                c = Q.of(rng.randint(-5, 5))
                for i, val in enumerate(dense_col(ker, j)):
                    vec[i] += c * val
            ok = ok and not cp.n_space.projection.apply(sparse_vec(vec))
        _, rep = phi_map(cp)
        ok = ok and rep.ok and rep.data["bijective"]

    ok = ok and ks_as_crossed_product(p, Q).ok
    _verdict(5, "crossed-product structure", ok, t0, 30)


def _separable_instances():
    instances = [_i1_on_k2()]
    for a in (matrix_algebra(Q, 2), field_algebra(Q), diagonal_algebra(Q, 3)):
        instances.append(trivial_action(trivial_monoid(), a))
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    instances.append(trivial_action(p, field_algebra(Q)))
    instances.append(natural_ke_action(p, Q))
    return instances


def test_criterion_6_separable_collapse_homology():
    t0 = time.monotonic()
    ok = True
    for action in _separable_instances():
        cp = crossed_product(action)
        m = regular_bimodule(cp.algebra)
        rep = verify_separable_collapse_homology(cp, m, 2)
        ok = ok and rep.ok
    _verdict(6, "separable collapse, homology", ok, t0, 60)


def test_criterion_7_separable_collapse_cohomology():
    t0 = time.monotonic()
    ok = True
    for action in _separable_instances():
        cp = crossed_product(action)
        m = regular_bimodule(cp.algebra)
        rep = verify_separable_collapse_cohomology(cp, m, 2)
        ok = ok and rep.ok
    _verdict(7, "separable collapse, cohomology", ok, t0, 60)


def test_criterion_8_steinberg_theorems():
    t0 = time.monotonic()
    ok = True
    groupoids = [pair_groupoid(2), group_as_groupoid(cyclic_group(2)),
                 discrete_groupoid(1), discrete_groupoid(2),
                 discrete_groupoid(3)]
    for g in groupoids:
        data = steinberg_data(g, Q)
        m = regular_bimodule(data.steinberg_algebra)
        rh = verify_steinberg_homology(data, m, 2)
        rc = verify_steinberg_cohomology(data, m, 2)
        ok = ok and rh.ok and rc.ok
    data = steinberg_data(pair_groupoid(2), Q)
    m = regular_bimodule(data.steinberg_algebra)
    rh = verify_steinberg_homology(data, m, 2)
    ok = ok and rh.data["monoid_side"] == [1, 0, 0]
    ok = ok and rh.data["hochschild_side"] == [1, 0, 0]
    _verdict(8, "Steinberg theorems at desk scale", ok, t0, 120)


def test_criterion_9_psi_suite():
    t0 = time.monotonic()
    ok = True
    groupoids = [pair_groupoid(1), pair_groupoid(2),
                 group_as_groupoid(cyclic_group(2)),
                 group_as_groupoid(cyclic_group(3)),
                 discrete_groupoid(2), discrete_groupoid(3)]
    for g in groupoids:
        ak = steinberg_algebra(g, Q)
        monoid, masks = bisections_with_masks(g)

        def indicator(mask):
            return {a: Q.one for a in range(g.n_arrows) if mask >> a & 1}

        for i in range(monoid.size):
            for j in range(monoid.size):
                lhs = ak.mul(indicator(masks[i]), indicator(masks[j]))
                ok = ok and lhs == indicator(masks[monoid.table[i][j]])
        rep = steinberg_data(g, Q).psi_report
        ok = ok and rep.ok
    _verdict(9, "psi suite (indicator identity + isomorphism)", ok, t0, 30)


def test_criterion_10_cli_determinism():
    t0 = time.monotonic()
    jobs = [
        ["homology", "--monoid", "i:2", "--module", "trivial-ke",
         "--field", "q", "--max-degree", "2", "--format", "json"],
        ["cohomology", "--monoid", "prod:chain:2,z:2", "--field", "fp:2",
         "--max-degree", "2"],
        ["verify", "steinberg-homology", "--groupoid", "pair:2",
         "--module", "regular", "--max-degree", "2", "--format", "json"],
        ["crossed-product", "--action", "ke:prod:chain:2,z:2", "--seed", "9"],
        ["resolution-check", "--monoid", "i:1", "--max-degree", "3"],
    ]
    ok = True
    for job in jobs:
        runs = [subprocess.run([sys.executable, "-m", "invhom.cli", *job],
                               capture_output=True, text=True)
                for _ in range(2)]
        ok = ok and runs[0].stdout == runs[1].stdout
        ok = ok and runs[0].returncode == runs[1].returncode == 0
    _verdict(10, "CLI determinism (byte-identical reports)", ok, t0, 60)
