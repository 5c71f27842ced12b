import functools
import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from invhom.groupoids import bisections, pair_groupoid
from invhom.homology import KSModule, trivial_module_ke
from invhom.linalg import Field, Matrix
from invhom.monoids import (MONOID_SIZE_CAP, InverseMonoid, chain_semilattice,
                            cyclic_group, direct_product, from_table,
                            max_group_image, symmetric_inverse_monoid,
                            trivial_monoid)
from invhom.serialize import resolve_groupoid, resolve_monoid
from oracles import (from_table_failure, greedy_generators,
                     group_image_table_by_scan, is_associative,
                     is_e_unitary_by_scan, is_inverse_monoid,
                     natural_order_by_search, sigma_classes_by_union_find,
                     symmetric_inverse_table_by_composition)


def test_trivial_monoid():
    m = from_table([[0]], unit=0)
    assert m.size == 1 and m.inv == [0]


def test_z2_from_table():
    m = from_table([[0, 1], [1, 0]])
    assert m.unit == 0
    assert m.inv == [0, 1]


def test_not_associative_rejected():
    # x*y = x except 1*1 = 0 breaks associativity
    with pytest.raises(ValueError, match="not associative"):
        from_table([[0, 0], [1, 0]])


def test_no_identity_rejected():
    # left-zero semigroup: x*y = x, no unit
    with pytest.raises(ValueError, match="no identity"):
        from_table([[0, 0], [1, 1]])


def test_inverse_not_unique_rejected():
    # two-element left-zero semigroup with adjoined unit: for s=0,
    # both 0 and 1 satisfy s x s = s, x s x = x.
    table = [[0, 0, 0],
             [1, 1, 1],
             [0, 1, 2]]
    with pytest.raises(ValueError, match="inverse not unique"):
        from_table(table, unit=2)


def test_rectangular_band_with_a_unit_names_every_inverse_candidate():
    # The 2 x 2 rectangular band (i, j)(k, l) = (i, l), with a unit 0
    # adjoined: every band element s has sxs = s and xsx = x for all four
    # band elements x, and its idempotents do not commute.  The first
    # candidate's xsx is an inverse, so the refusal comes from the scan.
    band = [(i, j) for i in range(2) for j in range(2)]
    table = [list(range(5))] + [
        [1 + s] + [1 + band.index((i, l)) for _, l in band]
        for s, (i, _) in enumerate(band)]
    message = "inverse not unique for element 1: candidates [1, 2, 3, 4]"
    assert from_table_failure(table) == message
    with pytest.raises(ValueError) as exc:
        from_table(table)
    assert str(exc.value) == message


def test_symmetric_inverse_monoid_sizes():
    # |I(n)| = sum C(n,k)^2 k!
    import math
    for n in range(4):
        expected = sum(math.comb(n, k) ** 2 * math.factorial(k)
                       for k in range(n + 1))
        assert symmetric_inverse_monoid(n).size == expected
    assert symmetric_inverse_monoid(1).size == 2
    assert symmetric_inverse_monoid(2).size == 7
    assert symmetric_inverse_monoid(3).size == 34


def test_chain_semilattice():
    m = chain_semilattice(3)
    assert m.size == 3 and m.unit == 0
    assert m.table[1][2] == 2  # e1 * e2 = e2 (minimum in the order)
    assert all(m.is_idempotent(e) for e in range(3))
    for n in (1, 2, 3, 17, 256):
        assert chain_semilattice(n).table == [
            [max(i, j) for j in range(n)] for i in range(n)]


def test_direct_product_basics():
    t = trivial_monoid()
    z2 = cyclic_group(2)
    p = direct_product(t, z2)
    assert p.size == 2 and p.table == z2.table
    klein = direct_product(z2, z2)
    assert klein.size == 4 and klein.is_group()
    q = direct_product(chain_semilattice(2), z2)
    assert q.size == 4 and q.is_e_unitary()


def test_idempotents():
    assert cyclic_group(2).idempotents() == [0]
    assert len(symmetric_inverse_monoid(2).idempotents()) == 4
    assert chain_semilattice(3).idempotents() == [0, 1, 2]


def test_dom_range():
    i2 = symmetric_inverse_monoid(2)
    for e in i2.idempotents():
        assert (i2.dom(e), i2.rng(e)) == (e, e)
    names = i2.names
    swap = names.index("[12->21]")
    unit = i2.unit
    assert (i2.dom(swap), i2.rng(swap)) == (unit, unit)
    one_to_two = names.index("[1->2]")
    d, r = i2.dom(one_to_two), i2.rng(one_to_two)
    assert names[d] == "[1->1]" and names[r] == "[2->2]"


def test_size_cap():
    assert MONOID_SIZE_CAP >= symmetric_inverse_monoid(4).size == 209
    too_big = [
        lambda: symmetric_inverse_monoid(5),
        lambda: cyclic_group(MONOID_SIZE_CAP + 1),
        lambda: chain_semilattice(MONOID_SIZE_CAP + 1),
        lambda: direct_product(cyclic_group(16), cyclic_group(17)),
        lambda: from_table([[0] * (MONOID_SIZE_CAP + 1)]
                           * (MONOID_SIZE_CAP + 1)),
    ]
    for build in too_big:
        with pytest.raises(ValueError, match="size cap exceeded"):
            build()


def test_natural_leq():
    i2 = symmetric_inverse_monoid(2)
    empty = i2.names.index("[]")
    for s in range(i2.size):
        assert i2.natural_leq(s, s)
        assert i2.natural_leq(empty, s)
    c2 = chain_semilattice(2)
    assert c2.natural_leq(1, 0)
    assert not c2.natural_leq(0, 1)


def test_natural_leq_partial_order_and_compatibility():
    for m in [symmetric_inverse_monoid(2), chain_semilattice(3),
              direct_product(chain_semilattice(2), cyclic_group(2))]:
        assert m.size <= 8
        for s in range(m.size):
            for t in range(m.size):
                if m.natural_leq(s, t) and m.natural_leq(t, s):
                    assert s == t
                for u in range(m.size):
                    if m.natural_leq(s, t) and m.natural_leq(t, u):
                        assert m.natural_leq(s, u)
                    # compatibility with multiplication on both sides
                    if m.natural_leq(s, t):
                        assert m.natural_leq(m.table[s][u], m.table[t][u])
                        assert m.natural_leq(m.table[u][s], m.table[u][t])


def test_sigma_classes():
    for n in (2, 3, 5):
        g = cyclic_group(n)
        assert g.sigma_classes() == [[i] for i in range(n)]
    assert len(symmetric_inverse_monoid(2).sigma_classes()) == 1
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    assert len(p.sigma_classes()) == 2


def test_sigma_matches_common_lower_bound_definition():
    # (s,t) in sigma iff some u <= s and u <= t, for small monoids
    for m in [symmetric_inverse_monoid(2), chain_semilattice(3),
              direct_product(chain_semilattice(2), cyclic_group(2)),
              cyclic_group(3)]:
        assert m.size <= 7
        proj = m.sigma_class_index()
        for s in range(m.size):
            for t in range(m.size):
                related = any(m.natural_leq(u, s) and m.natural_leq(u, t)
                              for u in range(m.size))
                assert related == (proj[s] == proj[t])


def test_sigma_is_congruence():
    for m in [symmetric_inverse_monoid(2),
              direct_product(chain_semilattice(2), cyclic_group(2))]:
        proj = m.sigma_class_index()
        for s, s2, t, t2 in itertools.product(range(m.size), repeat=4):
            if proj[s] == proj[s2] and proj[t] == proj[t2]:
                assert proj[m.table[s][t]] == proj[m.table[s2][t2]]


def test_max_group_image():
    z2 = cyclic_group(2)
    assert max_group_image(z2).table == z2.table
    assert z2.sigma_class_index() == [0, 1]
    assert max_group_image(symmetric_inverse_monoid(2)).size == 1
    p = direct_product(chain_semilattice(2), cyclic_group(2))
    assert max_group_image(p).size == 2
    # projection is a homomorphism by construction; re-check surjectivity
    assert sorted(set(p.sigma_class_index())) == [0, 1]


def test_max_group_image_of_group_is_same_table():
    for g in (cyclic_group(3), direct_product(cyclic_group(2), cyclic_group(2))):
        image = max_group_image(g)
        relabel = g.sigma_class_index()
        n = g.size
        assert sorted(relabel) == list(range(n))
        for a in range(n):
            for b in range(n):
                assert image.table[relabel[a]][relabel[b]] == relabel[g.table[a][b]]


def test_is_e_unitary():
    assert chain_semilattice(4).is_e_unitary()
    assert not symmetric_inverse_monoid(2).is_e_unitary()
    assert direct_product(chain_semilattice(2), cyclic_group(2)).is_e_unitary()
    assert cyclic_group(5).is_e_unitary()


def test_e_unitary_sigma_characterization():
    # for E-unitary monoids: s sigma t iff s^-1 t and s t^-1 idempotent
    for m in [chain_semilattice(3),
              direct_product(chain_semilattice(2), cyclic_group(2)),
              cyclic_group(4)]:
        assert m.is_e_unitary()
        proj = m.sigma_class_index()
        for s in range(m.size):
            for t in range(m.size):
                via_idem = (m.is_idempotent(m.table[m.inv[s]][t])
                            and m.is_idempotent(m.table[s][m.inv[t]]))
                assert via_idem == (proj[s] == proj[t])


def test_inverse_involution():
    for m in [symmetric_inverse_monoid(2), chain_semilattice(3)]:
        for s in range(m.size):
            assert m.table[m.table[s][m.inv[s]]][s] == s
            assert m.inv[m.inv[s]] == s


def _right_closure(m):
    """Every left-to-right product of the monoid's generators."""
    reached = set(m.generators)
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for g in m.generators:
            y = m.table[x][g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def test_generators_generate():
    z2 = cyclic_group(2)
    monoids = [symmetric_inverse_monoid(2), symmetric_inverse_monoid(3),
               symmetric_inverse_monoid(4), cyclic_group(1), cyclic_group(7),
               cyclic_group(12), chain_semilattice(1), chain_semilattice(5),
               direct_product(chain_semilattice(2), z2),
               max_group_image(symmetric_inverse_monoid(3)),
               bisections(pair_groupoid(3))]
    for m in monoids:
        assert _right_closure(m) == set(range(m.size)), m
    assert len(symmetric_inverse_monoid(4).generators) <= 5
    # a semilattice is generated by nothing less than all of its elements
    assert chain_semilattice(5).generators == [0, 1, 2, 3, 4]


class _CountingRow(list):
    """A table row that records every entry read from it."""

    def __init__(self, row, reads):
        super().__init__(row)
        self.reads = reads

    def __getitem__(self, g):
        self.reads.append(g)
        return list.__getitem__(self, g)


def test_module_check_makes_at_most_s_times_a_products(monkeypatch):
    i4 = symmetric_inverse_monoid(4)
    products = []
    matmul = Matrix.__matmul__

    def counting(self, other):
        products.append(1)
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    act = trivial_module_ke(i4, Field(2)).act
    # At most |S||A| law checks, and not one matrix product: every column
    # of the action on KE(I_4) is a single 1, so the law is checked on the
    # index table, which reads no entry of the table when it holds and sg
    # as entry g of row s once for each pair (s, g) it scans when it fails.
    reads = []
    rows = [_CountingRow(row, reads) for row in i4.table]
    counted = InverseMonoid(i4.size, rows, i4.inv, i4.unit, i4.generators,
                            i4.names, i4.rows, i4.cols)
    KSModule(counted, Field(2), act[0].rows, act)
    assert len(reads) <= i4.size * len(i4.generators)
    zero = i4.names.index("[]")
    bad = act[:zero] + [Matrix.identity(Field(2), act[0].rows)] + act[zero + 1:]
    with pytest.raises(ValueError, match="not a left module: action law"):
        KSModule(counted, Field(2), act[0].rows, bad)
    assert 0 < len(reads) <= i4.size * len(i4.generators)
    assert not products


def _verdicts(table):
    """from_table's verdict next to the exhaustive oracles' verdict."""
    try:
        from_table(table)
        ours = "accepted"
    except ValueError as exc:
        ours = "not associative" if "not associative" in str(exc) else "rejected"
    if not is_associative(table):
        oracle = "not associative"
    else:
        oracle = "accepted" if is_inverse_monoid(table) else "rejected"
    return ours, oracle


def test_light_test_agrees_with_exhaustive_check_up_to_order_3():
    associative = 0
    for n in range(1, 4):
        for flat in itertools.product(range(n), repeat=n * n):
            table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            ours, oracle = _verdicts(table)
            assert ours == oracle, table
            associative += oracle != "not associative"
    # 1 + 8 + 113 associative magmas (semigroup tables) of orders 1, 2, 3
    assert associative == 122


def _relabel(table, perm):
    out = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    return out


# Associative tables of orders 4 and 5: monoids, and semigroups without
# a unit.
_SEMIGROUPS = [cyclic_group(4).table, chain_semilattice(4).table,
               direct_product(chain_semilattice(2), cyclic_group(2)).table,
               direct_product(cyclic_group(2), cyclic_group(2)).table,
               direct_product(chain_semilattice(2), chain_semilattice(2)).table,
               cyclic_group(5).table, chain_semilattice(5).table,
               [[i] * 4 for i in range(4)], [[0] * 5 for _ in range(5)],
               [[j] * 5 for j in range(5)]]


@st.composite
def tables_of_order_4_or_5(draw):
    """A random table, or an associative one relabelled with a few entries
    changed."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([4, 5]))
        return draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                      max_size=n), min_size=n, max_size=n))
    base = draw(st.sampled_from(_SEMIGROUPS))
    n = len(base)
    table = _relabel(base, draw(st.permutations(range(n))))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(st.integers(0, n - 1))
    return table


@settings(deadline=None, max_examples=300)
@given(tables_of_order_4_or_5())
def test_light_test_agrees_with_exhaustive_check_orders_4_and_5(table):
    ours, oracle = _verdicts(table)
    assert ours == oracle


FIXTURE = Path(__file__).resolve().parent / "fixtures" / "monoid-1-e-ge.json"

# Built-in monoids for the closed forms: I_n, chains, cyclic groups,
# products, {1, e, ge} and four bisection monoids.
_SPECS = ["i:0", "i:1", "i:2", "i:3", "i:4", "chain:2", "chain:5", "z:1",
          "z:3", "z:6", "prod:chain:2,z:2", "prod:chain:2,z:3",
          "prod:i:2,z:3", "prod:chain:3,z:2,z:2", "prod:chain:8,z:16",
          f"file:{FIXTURE}"]
_GROUPOIDS = ["pair:2", "pair:3", "group:z:3", "discrete:3"]


def _assert_closed_forms_match_search(m):
    leq = natural_order_by_search(m)
    for s in range(m.size):
        for t in range(m.size):
            assert m.natural_leq(s, t) == leq[s][t], (s, t)
    classes = sigma_classes_by_union_find(m)
    assert m.sigma_classes() == classes
    assert m.sigma_class_index() == [
        next(k for k, cls in enumerate(classes) if s in cls)
        for s in range(m.size)]
    assert m.is_e_unitary() == is_e_unitary_by_scan(m)
    assert max_group_image(m).table == group_image_table_by_scan(m)


def test_closed_forms_match_search_on_builtin_monoids():
    monoids = [resolve_monoid(spec) for spec in _SPECS]
    monoids += [bisections(resolve_groupoid(spec)) for spec in _GROUPOIDS]
    assert len(monoids) == 20
    verdicts = [m.is_e_unitary() for m in monoids]
    assert True in verdicts and False in verdicts
    for m in monoids:
        _assert_closed_forms_match_search(m)


@st.composite
def inverse_submonoids_of_i3_or_i4(draw, sizes=(3, 4)):
    """The inverse submonoid of I_n, n drawn from sizes, generated by a few
    drawn elements, relabelled by a drawn permutation through from_table."""
    big = symmetric_inverse_monoid(draw(st.sampled_from(sizes)))
    gens = draw(st.lists(st.integers(0, big.size - 1), min_size=1,
                         max_size=3))
    elems = {big.unit} | set(gens) | {big.inv[g] for g in gens}
    frontier = list(elems)
    # closure under products of a set closed under inverses is inverse
    while frontier:
        x = frontier.pop()
        for y in list(elems):
            for z in (big.table[x][y], big.table[y][x]):
                if z not in elems:
                    elems.add(z)
                    frontier.append(z)
    elems = sorted(elems)
    perm = draw(st.permutations(range(len(elems))))
    label = {e: perm[i] for i, e in enumerate(elems)}
    table = [[0] * len(elems) for _ in elems]
    for a in elems:
        for b in elems:
            table[label[a]][label[b]] = label[big.table[a][b]]
    return from_table(table, unit=label[big.unit])


@settings(deadline=None, max_examples=60)
@given(inverse_submonoids_of_i3_or_i4())
def test_closed_forms_match_search_on_random_inverse_submonoids(m):
    _assert_closed_forms_match_search(m)


# sha256 of the JSON of [table, unit, names] of I_0 .. I_4, recorded from
# the (domain, image)-pair construction that the image tuples replaced.
_I_N_FINGERPRINTS = [
    "bf023efad04300dcdb5de40f0e85965f471760b41797e61b438396024eb50ee7",
    "1a9a21778510b5a32464a81f80cc5cad65f0edb64de7bf54df612541193155ef",
    "7c70321af097dae6c48e5972649e3af3ae2e47f296854433290b245ba21557c9",
    "643c2b37e38f7e83ed9cf615ba4c5fdcb4cf0301f592fcaba3c11aa71875f4e5",
    "5356c75e240eaa5f065f2d8fecc03541b9244210ae0b47aa7d7117b011979101",
]


def test_symmetric_inverse_monoid_fingerprints():
    for n, expected in enumerate(_I_N_FINGERPRINTS):
        m = symmetric_inverse_monoid(n)
        doc = json.dumps([m.table, m.unit, m.names]).encode()
        assert hashlib.sha256(doc).hexdigest() == expected, n


def test_symmetric_inverse_monoid_matches_pairwise_composition():
    for n in range(5):
        m = symmetric_inverse_monoid(n)
        assert (m.table, m.unit) == symmetric_inverse_table_by_composition(n)


# Desk tables of sizes 1, 2, 5, 7, 34, 209 and 256: from_table reads rows
# and columns as bytes through a translate table padded by 256 - n bytes,
# none at the size cap.  bytes() refuses -1 and 256 with a message of its
# own, so the range check must come first; 255 is in range only at the cap.
# z:256 is drawn at the cap, since it has two generators; the oracle scans
# every (i, j, k) of an associative chain:256 (all 256 elements generate),
# about two seconds, so chain:256 has a few cases of its own below.
_DESK_SPECS = ["z:1", "z:2", "z:5", "chain:1", "chain:2", "chain:5", "i:1",
               "i:2", "i:3", "i:4", "z:256"]


@functools.lru_cache(maxsize=None)
def _desk_table(spec):
    m = resolve_monoid(spec)
    return m.table, m.unit


def _changed(spec, unit, change):
    """spec's table with entry (i, j) set to v, or rows i and j swapped
    for v = None, as a case of the test below."""
    table = [row[:] for row in _desk_table(spec)[0]]
    if change is not None:
        i, j, v = change
        if v is None:
            table[i], table[j] = table[j], table[i]
        else:
            table[i][j] = v
    return table, unit


@st.composite
def corrupted_desk_tables(draw):
    """A desk table with one entry changed, possibly out of range; two rows
    swapped; one entry moved to the row after or before its own, so that
    the rows are ragged but hold n*n entries; a row cut short beside an
    entry set to -1 or 256; or an entry changed in each of two generator
    columns.  Its unit or no unit goes with it."""
    table, unit = _desk_table(draw(st.sampled_from(_DESK_SPECS)))
    n = len(table)
    gens = greedy_generators(table)
    table = [row[:] for row in table]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["entry", "swap", "short", "columns"]
                                + ["ragged"] * (n > 1)))
    if kind == "entry":
        table[i][j] = draw(st.one_of(st.integers(-1, n),
                                     st.sampled_from([255, 256])))
    elif kind == "swap":
        table[i], table[j] = table[j], table[i]
    elif kind == "ragged":
        short, long = draw(st.permutations([min(i, n - 2), min(i, n - 2) + 1]))
        table[long].append(table[short].pop())
    elif kind == "short":
        table[i][j] = draw(st.sampled_from([-1, 256]))
        table[draw(st.integers(0, n - 1))].pop()
    else:
        for k in draw(st.permutations(gens))[:2]:
            table[draw(st.integers(0, n - 1))][k] = draw(st.integers(0, n - 1))
    return table, draw(st.sampled_from([None, unit]))


# Each fails Light's test in two generator columns, and the generator that
# fails first in the generating set's order is not the k of the first
# failing (i, j, k) in scan order: z:3 with entry (1, 0) set to 0, and
# chain:3 with entry (0, 2) set to 0.
_TWO_FAILING_COLUMNS = [[[0, 1, 2], [0, 2, 0], [2, 0, 1]],
                        [[0, 1, 0], [1, 1, 2], [2, 2, 2]]]


@settings(deadline=None, max_examples=500)
@given(corrupted_desk_tables())
@example(([[0]], None))
@example(([[1]], None))
@example(([[0]], 0))
@example(([[1, 1], [1, 1]], None))
@example(([[0, 1], [1, 1]], 1))
@example(([[1, 0], [0, 1]], None))
@example(([[0, 0, 0], [1, 1, 1], [0, 1, 2]], 2))
# ragged rows of n*n entries in all: z:2 and z:3
@example(([[0], [1, 0, 1]], None))
@example(([[0, 1, 2, 1], [2, 0], [2, 0, 1]], 0))
# -1 or 256 beside a short row, before it and after it: z:3
@example(([[0, -1, 2], [1, 2], [2, 0, 1]], None))
@example(([[0, 1, 2], [1, 2], [2, 256, 1]], 0))
@example(([[0, 256, 2], [1, 2, 0], [2, 0]], None))
@example((_TWO_FAILING_COLUMNS[0], None))
@example((_TWO_FAILING_COLUMNS[1], 0))
def test_from_table_refuses_with_the_scalar_checks_first_message(case):
    _assert_refused_as_the_oracle_refuses(*case)


def test_two_failing_generator_columns_are_named_in_scan_order():
    for table in _TWO_FAILING_COLUMNS:
        n = range(len(table))
        gens = greedy_generators(table)
        bad = [(i, j, k) for i in n for j in n for k in gens
               if table[table[i][j]][k] != table[i][table[j][k]]]
        failing = [k for k in gens if k in {k for _, _, k in bad}]
        assert len(failing) == 2 and bad[0][2] == failing[1]
        with pytest.raises(ValueError) as exc:
            from_table(table)
        assert str(exc.value) == "not associative at ({},{},{})".format(*bad[0])


# chain:256 at the cap: left as it is, an entry set to 255 (in range),
# 256 or -1, and two rows swapped.
@pytest.mark.parametrize("unit, change", [
    (0, None), (0, (0, 0, 255)), (None, (255, 255, 256)), (0, (3, 200, -1)),
    (None, (40, 7, 255)), (0, (1, 2, None))])
def test_from_table_refuses_chain_256_with_the_scalar_checks_first_message(
        unit, change):
    _assert_refused_as_the_oracle_refuses(
        *_changed("chain:256", unit, change))


def _assert_refused_as_the_oracle_refuses(table, unit):
    expected = from_table_failure(table, unit)
    if expected is None:
        assert from_table(table, unit=unit).table == table
    else:
        with pytest.raises(ValueError) as exc:
            from_table(table, unit=unit)
        assert str(exc.value) == expected


def test_generators_are_the_oracles():
    # KSModule, crossed_product and the CLI's indicator check loop over
    # monoid.generators, so a refusal names an (s, g) of this set.
    for spec in _DESK_SPECS + ["prod:chain:16,z:16", "chain:256"]:
        m = resolve_monoid(spec)
        assert m.generators == greedy_generators(m.table), spec


@settings(deadline=None, max_examples=60)
@given(inverse_submonoids_of_i3_or_i4())
def test_generators_are_the_oracles_on_random_inverse_submonoids(m):
    assert m.generators == greedy_generators(m.table)
