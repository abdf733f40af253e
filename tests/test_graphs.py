import copy
import hashlib
import math
import re
from collections import Counter
from math import isqrt

import numpy as np
import pytest

import gpaley.graphs
import gpaley.oracles
from gpaley.cli import dispatch
from gpaley.errors import (
    CompositeP,
    DirectedUnsupported,
    InternalCheckError,
    MixedBase,
    NotDivisible,
    NotInFamily,
    ZeroScale,
)
from gpaley.field import get_field
from gpaley.graphs import (
    GraphSpec,
    apply_affine_frobenius,
    build_graph,
    connection_set,
    dimacs_lines,
    edge_list_lines,
    enumerate_family,
    family_lattice,
    is_subgraph,
    is_symmetric,
    write_bit_dump,
)
from gpaley.oracles import count_srg_params, run_suite
from gpaley.spec import FieldParams, normalize
from gpaley.spectra import record_json, spectrum, srg_params
from reference import (
    digit_add,
    digit_neg,
    permutation_preserves_edges,
    read_bit_dump,
)

SMALL_PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _orders_up_to(limit):
    for p, s in SMALL_PRIME_POWERS:
        q = p**s
        m = 1
        while q ** (m) <= limit:
            yield p, s, m
            m += 1


# ---------------------------------------------------------------------------
# connection sets
# ---------------------------------------------------------------------------

def test_connection_cardinality_examples():
    f = get_field(2, 1, 4)
    assert connection_set(GraphSpec(2, 1, 4, 1), f).cardinality == 5
    f8 = get_field(2, 1, 3)
    conn = connection_set(GraphSpec(2, 1, 3, 1), f8)
    assert conn.cardinality == 7  # all of F_8^*: complete-graph case
    assert not conn.members[0]
    f81 = get_field(3, 1, 4)
    assert connection_set(GraphSpec(3, 1, 4, 1), f81).cardinality == 20


def test_connection_members_are_the_powers_bruteforce():
    # independent oracle: enumerate x^(q^ell+1) elementwise
    for p, s, m in _orders_up_to(1 << 10):
        f = get_field(p, s, m)
        q = p**s
        for ell in range(0, m):
            conn = connection_set(GraphSpec(p, s, m, ell), f)
            powers = {f.pow(x, q**ell + 1) for x in range(1, f.order)}
            assert powers == set(np.flatnonzero(conn.members).tolist())


def test_cardinality_rule_all_small_orders():
    # |S_ell| = q^m-1 (m_ell odd, q even); (q^m-1)/2 (m_ell odd, q odd);
    # (q^m-1)/(q^(m,ell)+1) (m_ell even) -- via log-space enumeration
    for p, s, m in _orders_up_to(1 << 12):
        f = get_field(p, s, m)
        q = p**s
        N = q**m
        for ell in range(0, m):
            e = q**ell + 1
            size = len(np.unique((np.arange(N - 1, dtype=np.int64) * e) % (N - 1)))
            m_ell = m // math.gcd(m, ell) if ell else 1
            if m_ell % 2 == 1 and q % 2 == 0:
                assert size == N - 1
            elif m_ell % 2 == 1:
                assert size == (N - 1) // 2
            else:
                assert size == (N - 1) // (q ** math.gcd(m, ell) + 1)


def test_connection_reduces_to_gcd_exponent():
    # S_ell = S_(m,ell) for m_ell even
    f = get_field(2, 1, 12)
    s6 = connection_set(GraphSpec(2, 1, 12, 6), f)
    # ell = 10: (12,10) = 2, m_ell = 6 even -> equals S_2
    s10 = connection_set(GraphSpec(2, 1, 12, 10), f)
    s2 = connection_set(GraphSpec(2, 1, 12, 2), f)
    assert np.array_equal(s10.members, s2.members)
    assert not np.array_equal(s6.members, s2.members)


def test_symmetry():
    f = get_field(2, 1, 4)
    assert is_symmetric(connection_set(GraphSpec(2, 1, 4, 1), f))
    f81 = get_field(3, 1, 4)
    assert is_symmetric(connection_set(GraphSpec(3, 1, 4, 1), f81))
    f3 = get_field(3, 1, 1)
    assert not is_symmetric(connection_set(GraphSpec(3, 1, 1, 0), f3))  # 3 = 3 mod 4
    f13 = get_field(13, 1, 1)
    assert is_symmetric(connection_set(GraphSpec(13, 1, 1, 0), f13))  # 13 = 1 mod 4


def test_complement_symmetry_agrees_with_the_primal():
    # -1 is nonzero, so it lies in exactly one of S and its complement; both
    # sets must report the symmetry of the primal set
    count = 0
    for p, s, m in _orders_up_to(1 << 12):
        f = get_field(p, s, m)
        for ell in range(0, m):
            primal = connection_set(GraphSpec(p, s, m, ell), f)
            direct = bool(primal.members[f.neg(1)])
            assert is_symmetric(primal) == direct
            assert is_symmetric(connection_set(GraphSpec(p, s, m, ell, True), f)) == direct
            count += 1
    assert count == 168


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_build_clebsch():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    assert g.n == 16 and g.k == 5
    assert (g.adjacency.sum(axis=1) == 5).all()
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert not g.adjacency.diagonal().any()


def test_build_2k2():
    g = build_graph(GraphSpec(2, 1, 2, 1))
    assert g.n == 4 and g.k == 1
    # perfect matching: 2K_2
    assert g.adjacency.sum() == 4


def test_build_disjoint_cliques():
    g = build_graph(GraphSpec(2, 1, 4, 2))
    assert g.k == 3
    # 4 components, each K_4: reachability closure of vertex 0 has size 4
    comp = g.adjacency[0] | (np.arange(16) == 0)
    for _ in range(3):
        comp = comp | g.adjacency[comp].any(axis=0)
    assert comp.sum() == 4


def test_complement_build():
    spec = GraphSpec(2, 1, 4, 1)
    g = build_graph(spec)
    gbar = build_graph(spec.complement())
    both = g.adjacency | gbar.adjacency
    np.fill_diagonal(both, True)
    assert both.all()
    assert not (g.adjacency & gbar.adjacency).any()
    for graph in (g, gbar):
        # the matrix and row 0 are cached on the graph, so both are read-only
        assert graph.adjacency.dtype == bool and graph.adjacency.shape == (16, 16)
        assert graph.adjacency.flags.c_contiguous
        assert not graph.adjacency.flags.writeable and not graph.row0.flags.writeable


@pytest.mark.parametrize(
    "spec",
    [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1), GraphSpec(7, 1, 4, 2), GraphSpec(2, 1, 10, 5),
     GraphSpec(2, 1, 2, 1)],
    ids=GraphSpec.label,
)
def test_derived_complement_is_the_filled_complement(spec):
    # a complement's rows are the primal rows inverted, with the diagonal
    # cleared, in a matrix of its own, and row 0 of them is its connection set
    g, gbar = build_graph(spec), build_graph(spec.complement())
    negated = ~g.adjacency
    np.fill_diagonal(negated, False)
    assert gbar.k == g.n - 1 - g.k
    assert np.array_equal(gbar.adjacency, negated)
    assert np.array_equal(gbar.row0, negated[0])
    assert not np.shares_memory(g.adjacency, gbar.adjacency)


def test_walk_rows_of_a_derived_complement_are_exact():
    # co-Gamma_{2,12}(1), k = 2730: for p = 2, x - s = x XOR s and
    # A^t[0, x] = sum over s in S of A^(t-1)[0, x XOR s]. Row 0 of A^2 is
    # the transform of lambda^2 over N, and the transform of lambda^3 is N
    # times row 0 of A^3, whose entries pass 2^34
    gbar = build_graph(GraphSpec(2, 1, 12, 1, True))
    idx, members = np.arange(gbar.n), np.flatnonzero(gbar.connection.members)
    rows = [gbar.connection.members.astype(np.int64)]
    for _ in range(2):
        nxt = np.zeros(gbar.n, dtype=np.int64)
        for s in members:
            nxt += rows[-1][idx ^ s]
        rows.append(nxt)
    assert gbar.square_row.dtype == np.int64 and np.array_equal(gbar.square_row, rows[1])
    cubes = gbar._character_sums(gbar.eigenvalues**3)
    assert cubes.max() > 2**34 and np.array_equal(cubes, gbar.n * rows[2])


@pytest.mark.parametrize(
    "spec", [GraphSpec(31, 1, 2, 1), GraphSpec(13, 1, 2, 1, True), GraphSpec(5, 1, 4, 1)],
    ids=GraphSpec.label,
)
def test_character_sums_are_the_direct_sums_at_every_index(spec):
    # c[r, a] = sum of weights[x] over a . x = r mod p, counted on the N x N
    # table of digit dot products; the sum at a is c[0, a] - c[1, a]
    g = build_graph(spec)
    p = spec.p
    digits = np.arange(g.n)[:, None] // p ** np.arange(g.field.n) % p
    dots = digits @ digits.T % p

    def direct(weights):
        counts = np.stack([np.where(dots == r, weights, 0).sum(axis=1) for r in range(p)])
        assert (counts[1:] == counts[1]).all()
        return counts[0] - counts[1]

    assert g.eigenvalues.dtype == np.int64
    assert np.array_equal(g.eigenvalues, direct(g.adjacency[0].astype(np.int64)))
    assert np.array_equal(g.square_row * g.n, direct(g.eigenvalues**2))


@pytest.mark.parametrize(
    "spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1, True), GraphSpec(2, 1, 8, 1, True)],
    ids=GraphSpec.label,
)
def test_degrees_are_exact_int64(spec, tmp_path):
    # regular-degree reads the degree k off row 0; every row of the bit
    # dump, decoded and as raw bytes, has that many set bits, counted in
    # int64, past uint8 at 256 vertices
    g = build_graph(spec)
    rows = _dumped_rows(g, tmp_path / "dump.bin")
    _, adj = read_bit_dump(str(tmp_path / "dump.bin"))
    assert adj.sum(axis=1, dtype=np.int64).tolist() == [g.k] * g.n
    assert np.unpackbits(rows, axis=1).sum(axis=1, dtype=np.int64).tolist() == [g.k] * g.n


def test_directed_rejected():
    with pytest.raises(DirectedUnsupported):
        build_graph(GraphSpec(3, 1, 1, 0))  # q^m = 3 mod 4


def test_paley_13_builds():
    g = build_graph(GraphSpec(13, 1, 1, 0))
    assert g.k == 6


def test_build_refuses_an_asymmetric_connection_set(monkeypatch):
    # dropping s but not -s from S leaves -1 in it, so the parity rule still
    # calls it symmetric: only the closure of S under negation can refuse it
    real = gpaley.graphs.connection_set

    def dropped(spec, field):
        conn = real(spec, field)
        members = conn.members.copy()
        members[np.flatnonzero(members)[0]] = False
        return conn.replace(members=members, cardinality=conn.cardinality - 1)

    monkeypatch.setattr(gpaley.graphs, "connection_set", dropped)
    with pytest.raises(InternalCheckError, match="not closed under negation"):
        build_graph(GraphSpec(3, 1, 4, 1))
    monkeypatch.undo()
    build_graph(GraphSpec(3, 1, 4, 1))


@pytest.mark.parametrize(
    "spec",
    [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 6, 1), GraphSpec(5, 1, 4, 1), GraphSpec(7, 1, 4, 2)],
    ids=lambda spec: spec.label(),
)
def test_adjacency_is_the_difference_rule(spec):
    # A[i, j] = 1 iff j - i is in S, by digit arithmetic, entry by entry;
    # 729, 625 and 2401 vertices leave a last row block shorter than the rest
    for s in (spec, spec.complement()):
        g = build_graph(s)
        p, n = g.field.p, g.field.n
        idx = np.arange(g.n)
        neg = digit_neg(idx, p, n)
        for start in range(0, g.n, 100):
            diff = digit_add(idx, neg[start : start + 100, None], p, n)
            assert np.array_equal(g.adjacency[start : start + 100], g.connection.members[diff])


@pytest.mark.parametrize(
    "spec", [GraphSpec(3, 1, 4, 1), GraphSpec(5, 1, 2, 1), GraphSpec(7, 1, 2, 1)]
)
def test_build_graph_refuses_every_shifted_zech_entry(spec):
    # for odd p the Zech table is the addition of the fill: moving any one
    # entry zech[i] -> zech[i] + 1 must fail the field certificate
    field = get_field(spec.p, spec.s, spec.m)
    units = field.order - 1
    try:
        for i in np.flatnonzero(field.zech >= 0):
            saved = int(field.zech[i])
            field.zech[i] = (saved + 1) % units
            try:
                with pytest.raises(InternalCheckError):
                    build_graph(spec)
            finally:
                field.zech[i] = saved
    finally:
        get_field.cache_clear()


@pytest.mark.parametrize(
    "spec", [GraphSpec(3, 1, 4, 1), GraphSpec(5, 1, 4, 1), GraphSpec(7, 1, 4, 1)],
    ids=lambda spec: spec.label(),
)
def test_build_graph_refuses_a_copy_of_the_field_with_one_shifted_zech_entry(monkeypatch, spec):
    # the fill adds with the Zech table, and the field certificate holds
    # each Zech entry to base-p digit arithmetic, so one wrong entry is refused
    field = get_field(spec.p, spec.s, spec.m)
    units = field.order - 1
    entries = np.flatnonzero(field.zech >= 0)
    for i in entries[:: len(entries) // 15][:15].tolist():
        faulty = copy.copy(field)
        faulty.zech = field.zech.copy()
        faulty.zech[i] = (faulty.zech[i] + 1) % units
        monkeypatch.setattr(gpaley.graphs, "get_field", lambda *args: faulty)
        with pytest.raises(InternalCheckError):
            build_graph(spec)
    monkeypatch.undo()
    build_graph(spec)


def _swap_two_exp_entries(field):
    exp = field.exp.copy()
    exp[[1, -1]] = exp[[-1, 1]]
    return exp


def _one_wrong_giant_step(field):
    # the first entry of the last giant-step block, pointed at its neighbour
    exp = field.exp.copy()
    i = len(exp) - 1 - (len(exp) - 1) % isqrt(len(exp))
    assert i >= isqrt(len(exp))
    exp[i] = exp[i + 1]
    return exp


@pytest.mark.parametrize("corrupt", [_swap_two_exp_entries, _one_wrong_giant_step])
@pytest.mark.parametrize(
    "spec", [GraphSpec(2, 1, 4, 1), GraphSpec(2, 1, 12, 1), GraphSpec(3, 1, 4, 1),
             GraphSpec(7, 1, 4, 2, True)],
    ids=GraphSpec.label,
)
def test_the_field_certificate_refuses_a_faulty_exp_table(monkeypatch, spec, corrupt):
    # build_graph certifies the field before it returns a graph, so a copy
    # of the field with a faulty exp table raises there, and run_suite raises
    # before it records any check
    field = get_field(spec.p, spec.s, spec.m)
    faulty = copy.copy(field)
    faulty.exp = corrupt(field)
    monkeypatch.setattr(gpaley.graphs, "get_field", lambda *args: faulty)
    with pytest.raises(InternalCheckError, match="exp|log"):
        build_graph(spec)
    recorded = []
    monkeypatch.setattr(gpaley.oracles._Suite, "run", lambda *args: recorded.append(args))
    with pytest.raises(InternalCheckError):
        run_suite(spec)
    assert recorded == []
    monkeypatch.undo()
    build_graph(spec)


def _proper_specs(limit):
    for p, s, m in _orders_up_to(limit):
        for spec in enumerate_family(p, s, m):
            yield from (spec, spec.complement())


def test_counted_spectra_and_srg_parameters_match_the_closed_forms_up_to_2_16():
    # every proper member with q^m <= 2^16 and its complement: the counted
    # eigenvalues are the closed spectrum, and (k, e, d) read off row 0 of
    # A^2 are the closed srg parameters; (2, 2, 1) has none
    checked = 0
    for spec in _proper_specs(2**16):
        g = build_graph(spec, max_order=2**16)
        assert sorted(Counter(g.eigenvalues.tolist()).items()) == sorted(spectrum(spec).pairs)
        if not spec.is_degenerate:
            assert count_srg_params(g) == srg_params(spec).params(), spec.label()
        checked += 1
    assert checked > 60


# ---------------------------------------------------------------------------
# family bookkeeping
# ---------------------------------------------------------------------------

def test_enumerate_family_examples():
    assert [s.ell for s in enumerate_family(2, 1, 12)] == [1, 2, 3, 6]
    assert [s.ell for s in enumerate_family(2, 1, 30)] == [1, 3, 5, 15]
    assert enumerate_family(5, 1, 7) == []
    assert [s.ell for s in enumerate_family(2, 1, 2)] == [1]


@pytest.mark.parametrize(
    "args, name, bad",
    [((2.0, 1, 4, 1), "p", "2.0"), ((2, 1.0, 4, 1), "s", "1.0"), ((2, 1, 4.0, 1), "m", "4.0"),
     ((2, 1, 4, True), "ell", "True"), ((2, True, 4, 1), "s", "True"),
     ((2, 1, 4, np.float64(1)), "ell", repr(np.float64(1)))],
)
def test_spec_refuses_a_parameter_that_is_not_an_integer(args, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(bad)}$"):
        GraphSpec(*args)


def test_spec_takes_python_and_numpy_integers():
    # numpy integers are stored as Python ints: the record used to fail on
    # np.int64 eigenvalues, and q^m to wrap around past int64
    spec = GraphSpec(np.int64(2), np.int32(1), np.int64(4), np.uint8(1))
    assert spec == GraphSpec(2, 1, 4, 1) and spec.label() == "Gamma_{2,4}(1)"
    assert record_json(spec) == record_json(GraphSpec(2, 1, 4, 1))
    assert GraphSpec(np.int64(2), 1, np.int64(70), 1).order == 2**70
    with pytest.raises(ValueError, match="^p = 4 is not prime$"):
        GraphSpec(4, 1, 2, 1)


def test_graph_spec_and_field_params_refuse_a_composite_p_alike():
    # GraphSpec extends FieldParams: one rule checks (p, s, m) in both
    with pytest.raises(CompositeP) as spec_error:
        GraphSpec(4, 1, 2, 1)
    with pytest.raises(CompositeP) as params_error:
        FieldParams(4, 1, 2)
    assert str(spec_error.value) == str(params_error.value) == "p = 4 is not prime"


@pytest.mark.parametrize(
    "call, exc, message",
    [(lambda: GraphSpec(2, 1, 3, 1).eps, NotInFamily, "eps undefined for odd m_ell = 3")],
    ids=["eps-odd-m_ell"],
)
def test_spec_refusals(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("bad", ["yes", None, 1, 0, 1.0, np.int64(1), "False"])
def test_spec_refuses_a_complement_flag_that_is_not_a_bool(bad):
    with pytest.raises(ValueError, match=f"^complemented must be a bool, not {re.escape(repr(bad))}$"):
        GraphSpec(2, 1, 4, 1, bad)


@pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)])
def test_spec_stores_the_complement_flag_as_a_python_bool(flag):
    spec = GraphSpec(2, 1, 4, 1, flag)
    assert type(spec.complemented) is bool and spec == GraphSpec(2, 1, 4, 1, bool(flag))
    assert type(spec.to_json()["complemented"]) is bool
    assert spec.connected is True


def test_spec_tags():
    assert GraphSpec(2, 1, 3, 1).tag == "complete"
    assert GraphSpec(3, 1, 3, 1).tag == "paley"
    assert GraphSpec(3, 1, 4, 1).tag == "proper"
    assert GraphSpec(2, 1, 12, 4).tag == "complete"  # m_4 = 3 odd
    assert GraphSpec(2, 1, 12, 10).tag == "proper"  # reduces to ell = 2
    assert not GraphSpec(2, 1, 12, 10).is_proper


def test_is_subgraph():
    q12 = lambda ell: GraphSpec(2, 1, 12, ell)
    assert is_subgraph(q12(3), q12(1))
    assert is_subgraph(q12(6), q12(2))
    assert not is_subgraph(q12(6), q12(1))  # quotient 6 is even
    assert is_subgraph(q12(1), q12(1))
    assert is_subgraph(GraphSpec(2, 1, 6, 1), q12(1))  # 6 | 12
    assert not is_subgraph(q12(1), GraphSpec(2, 1, 6, 1))
    q30 = lambda ell: GraphSpec(2, 1, 30, ell)
    assert is_subgraph(q30(15), q30(3))
    assert is_subgraph(q30(5), q30(1))
    assert is_subgraph(q30(15), q30(1))  # 15/1 odd
    assert not is_subgraph(q30(3), q30(5))  # 5 does not divide 3
    with pytest.raises(MixedBase):
        is_subgraph(GraphSpec(2, 1, 12, 1), GraphSpec(3, 1, 12, 1))
    with pytest.raises(NotInFamily):
        is_subgraph(GraphSpec(2, 1, 12, 4), q12(1))


def test_is_subgraph_is_not_induced():
    # Gamma_{2,2}(1) is two edges on F_4; in Gamma_{2,6}(1) the subfield F_4
    # spans a 4-clique, so every graph on F_4 is a subgraph there, and this
    # one is not an induced subgraph
    assert is_subgraph(GraphSpec(2, 1, 2, 1), GraphSpec(2, 1, 6, 1))
    big = build_graph(GraphSpec(2, 1, 6, 1))
    f4 = big.field.subfield_indices(2)
    assert np.count_nonzero(np.triu(big.adjacency[np.ix_(f4, f4)], 1)) == 6
    assert np.count_nonzero(np.triu(build_graph(GraphSpec(2, 1, 2, 1)).adjacency, 1)) == 2


def test_is_subgraph_refuses_a_complemented_spec():
    # F_4^* lies inside the connection set of Gamma_{2,6}(1), so the
    # connection set of co-Gamma_{2,6}(1) holds no element of F_4^* and no
    # edge of co-Gamma_{2,2}(1), the 4-cycle, survives on F_4: the primal
    # rule would answer True for a pair that is no subgraph
    big = get_field(2, 1, 6)
    f4_units = big.subfield_indices(2)[1:]
    assert connection_set(GraphSpec(2, 1, 6, 1), big).members[f4_units].all()
    assert not connection_set(GraphSpec(2, 1, 6, 1, True), big).members[f4_units].any()
    assert connection_set(GraphSpec(2, 1, 2, 1, True), get_field(2, 1, 2)).cardinality == 2
    small, large = GraphSpec(2, 1, 2, 1), GraphSpec(2, 1, 6, 1)
    for a, b in [(small.complement(), large.complement()), (small.complement(), large),
                 (small, large.complement())]:
        with pytest.raises(NotInFamily, match="primal"):
            is_subgraph(a, b)
    assert is_subgraph(small, large)


def test_subgraph_containment_bruteforce():
    # S_6 is contained in S_2 but not in S_1 over F_{2^12}
    f = get_field(2, 1, 12)
    members = {
        ell: connection_set(GraphSpec(2, 1, 12, ell), f).members
        for ell in (1, 2, 3, 6)
    }
    assert (members[6] & ~members[2]).sum() == 0
    assert (members[6] & ~members[1]).sum() > 0  # S_6 not a subset of S_1
    assert (members[3] & ~members[1]).sum() == 0


def test_normalize():
    assert normalize(2, 1, 4, 2) == GraphSpec(2, 2, 2, 1)
    assert normalize(2, 2, 2, 1) == GraphSpec(2, 2, 2, 1)
    assert normalize(3, 1, 8, 2) == GraphSpec(3, 2, 4, 1)
    with pytest.raises(NotDivisible):
        normalize(2, 1, 9, 2)
    with pytest.raises(NotDivisible):
        normalize(2, 1, 4, 4)


@pytest.mark.parametrize("args, name", [
    ((2, 1, 4, True), "ell"),
    ((2, True, 4, 1), "r"),
    ((2, 1, 4, 2.0), "ell"),
])
def test_normalize_refuses_a_non_integer_under_its_own_name(args, name):
    # a bool was taken as 1, so both bool calls gave GraphSpec(2, 1, 4, 1),
    # and the float ell was refused as "s", after it had entered r * ell
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        normalize(*args)


def test_normalized_specs_are_the_same_graph():
    # (2, m=4, ell=2) and (q=4, m=2, ell=1) produce identical adjacency
    g1 = build_graph(GraphSpec(2, 1, 4, 2))
    g2 = build_graph(GraphSpec(2, 2, 2, 1))
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_family_lattice():
    assert family_lattice(12) == [[1, 3], [2, 6]]
    assert family_lattice(9) == []
    assert family_lattice(18) == [[1, 3, 9]]
    assert family_lattice(8) == [[1], [2], [4]]
    # lattice members are exactly the family's ell values
    for m in (2, 4, 6, 8, 12, 16, 18, 30):
        flat = sorted(x for comp in family_lattice(m) for x in comp)
        assert flat == [s.ell for s in enumerate_family(2, 1, m)]


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_affine_frobenius_identity():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    perm = apply_affine_frobenius(g, 1, 0, 0)
    assert np.array_equal(perm, np.arange(16))


def test_affine_frobenius_edge_preservation():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    members = np.flatnonzero(g.connection.members)
    for a in members:
        perm = apply_affine_frobenius(g, int(a), 3, 1)
        assert permutation_preserves_edges(g, perm)
    # a outside the connection set must break some edge (checked over all
    # 16*15 ordered pairs inside permutation_preserves_edges)
    for a in range(1, 16):
        if not g.connection.members[a]:
            perm = apply_affine_frobenius(g, a, 0, 0)
            assert not permutation_preserves_edges(g, perm)


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)], ids=GraphSpec.label)
def test_affine_frobenius_scale_table_stacks_single_scales(spec):
    # an array of scales gives one row per scale, each the single-scale map
    g = build_graph(spec)
    scales = np.arange(1, g.n)
    for b, i in [(0, 0), (3, 1), (g.n - 1, spec.m - 1)]:
        table = apply_affine_frobenius(g, scales, b, i)
        assert table.shape == (g.n - 1, g.n)
        assert np.array_equal(table, [apply_affine_frobenius(g, a, b, i) for a in scales])
    for zero_at in (0, 5, g.n - 1):
        with pytest.raises(ZeroScale):
            apply_affine_frobenius(g, np.insert(scales, zero_at, 0), 0, 0)


def test_affine_frobenius_errors():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    with pytest.raises(ZeroScale):
        apply_affine_frobenius(g, 0, 0, 0)
    with pytest.raises(ValueError):
        apply_affine_frobenius(g, 1, 0, 7)


@pytest.mark.parametrize("i", [0.5, 1.0, np.float64(1.0), True, False],
                         ids=["0.5", "1.0", "float64-1.0", "True", "False"])
def test_affine_frobenius_refuses_a_power_that_is_not_an_integer(i):
    # 0.5 and 1.0 used to raise numpy's IndexError, and True was taken as 1
    g = build_graph(GraphSpec(2, 1, 4, 1))
    with pytest.raises(ValueError, match=rf"^Frobenius power i = {i} is not an integer in \[0, 4\)$"):
        apply_affine_frobenius(g, 3, 0, i)


@pytest.mark.parametrize(
    "scale",
    [-1, 16, 2**70, np.array([1, 2, -1]), np.array([3, 16, 5]), 2.7, np.array([1, 2.5])],
    ids=["-1", "16", "2^70", "array-with--1", "array-with-16", "2.7", "float-array"],
)
def test_affine_frobenius_refuses_a_scale_outside_the_field(scale):
    # -1 must not wrap to the log of the last element, nor 16 index past it,
    # nor a float be truncated to the integer below it
    g = build_graph(GraphSpec(2, 1, 4, 1))
    with pytest.raises(ValueError, match=rf"scale (-1|16|{2**70}|2\.7|1\.0) is not a field element"):
        apply_affine_frobenius(g, scale, 0, 0)


@pytest.mark.parametrize("shift", [-2, 16, 99, 1.5, np.float64(3.0)])
def test_affine_frobenius_refuses_a_shift_outside_the_field(shift):
    g = build_graph(GraphSpec(2, 1, 4, 1))
    for scale in (1, np.arange(1, 16)):
        with pytest.raises(ValueError, match=rf"shift {shift} is not a field element"):
            apply_affine_frobenius(g, scale, shift, 0)


def test_affine_frobenius_takes_python_and_numpy_integers():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    expected = apply_affine_frobenius(g, 3, 5, 1)
    for scale, shift in [(np.int64(3), np.int64(5)), (np.int32(3), np.uint8(5)),
                         (np.array(3), 5), (np.array([3], dtype=np.uint16), 5)]:
        assert np.array_equal(apply_affine_frobenius(g, scale, shift, 1).reshape(-1), expected)
    for i in (np.int64(1), np.uint8(1)):
        assert np.array_equal(apply_affine_frobenius(g, 3, 5, i), expected)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def test_edge_list_and_dimacs():
    g = build_graph(GraphSpec(2, 1, 2, 1))
    lines = edge_list_lines(g)
    assert len(lines) == 2
    for line in lines:
        i, j = map(int, line.split())
        assert i < j and g.adjacency[i, j]
    d = dimacs_lines(g)
    assert d[0] == "p edge 4 2"
    assert all(x.startswith("e ") for x in d[1:])
    # the same edges, in the same order, numbered from 1
    paley9 = build_graph(GraphSpec(3, 1, 2, 1))
    shifted = [f"e {int(i) + 1} {int(j) + 1}" for i, j in map(str.split, edge_list_lines(paley9))]
    assert dimacs_lines(paley9) == ["p edge 9 9"] + shifted


def test_bit_dump_round_trip(tmp_path):
    for spec in [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1, True)]:
        g = build_graph(spec)
        path = tmp_path / "dump.bin"
        write_bit_dump(g, str(path))
        header, adj = read_bit_dump(str(path))
        assert header["n"] == g.n and header["k"] == g.k
        assert header["complemented"] == spec.complemented
        assert np.array_equal(adj, g.adjacency)


# 81 and 2,401 vertices: n % 8 = 1 leaves seven pad bits at the end of each
# packed row
_PADDED = [GraphSpec(3, 1, 4, 1), GraphSpec(7, 1, 4, 2, True)]


def _dumped_rows(g, path):
    """The packed rows of the bit dump of ``g`` as written, read from the
    raw bytes after its header line: (n, ceil(n/8)) uint8."""
    write_bit_dump(g, str(path))
    raw = path.read_bytes().split(b"\n", 1)[1]
    return np.frombuffer(raw, dtype=np.uint8).reshape(g.n, (g.n + 7) // 8)


def _assert_dump_is_the_packed_adjacency(g, path):
    rows = _dumped_rows(g, path)
    assert not np.unpackbits(rows, axis=1, bitorder="little")[:, g.n :].any()  # pad bits
    packed = np.packbits(g.adjacency, axis=1, bitorder="little")
    assert rows.tobytes() == packed.tobytes()
    header, adj = read_bit_dump(str(path))
    assert (header["n"], header["k"]) == (g.n, g.k) and np.array_equal(adj, g.adjacency)


@pytest.mark.parametrize("spec", _PADDED, ids=GraphSpec.label)
def test_pad_bits_are_zero_on_both_sides(spec, tmp_path):
    # the primal side and the complement, inverted block by block
    for graph in (build_graph(spec), build_graph(spec.complement())):
        _assert_dump_is_the_packed_adjacency(graph, tmp_path / "dump.bin")


@pytest.mark.parametrize(
    "spec", [GraphSpec(7, 1, 4, 2), GraphSpec(7, 1, 4, 2, True), GraphSpec(3, 1, 6, 1, True)],
    ids=GraphSpec.label,
)
def test_a_dump_of_several_row_blocks_is_the_packed_adjacency(spec, tmp_path):
    # 2,401 and 729 vertices: the dump packs each block of rows as it is
    # built, a shorter block last, and n % 8 = 1 leaves pad bits on every row
    g = build_graph(spec)
    assert g.n > 2 * gpaley.graphs._ROW_BLOCK and g.n % 8
    _assert_dump_is_the_packed_adjacency(g, tmp_path / "dump.bin")


# sha256 prefixes of ``gpaley export --kind bits``, as written when the
# graph held one byte per entry and the dump packed it
_DUMPS = {
    "Gamma_{3,4}(1)": "0d25173840d0ff40",
    "co-Gamma_{3,4}(1)": "7b4195896e0b8e5b",
    "Gamma_{7,4}(2)": "402b67244321e59c",
    "co-Gamma_{7,4}(2)": "1fb7159bd59bfda5",
}


@pytest.mark.parametrize("spec", _PADDED, ids=GraphSpec.label)
def test_bit_dump_export_is_byte_stable(spec, tmp_path):
    for side in (spec, spec.complement()):
        path = tmp_path / "dump.bin"
        argv = ["export", "--p", str(side.p), "--m", str(side.m), "--ell", str(side.ell),
                "--kind", "bits", "--out", str(path)]
        assert dispatch(argv + ["--complement"] * side.complemented) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == _DUMPS[side.label()]
        header, adj = read_bit_dump(str(path))
        assert header["n"] == side.order and header["complemented"] == side.complemented
        assert np.array_equal(adj, build_graph(side).adjacency)
