import copy
import dataclasses
import math

import numpy as np
import pytest

import gpaley.graphs
from gpaley.errors import (
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
    normalize,
    read_bit_dump,
    write_bit_dump,
)
from reference import digit_add, digit_neg, permutation_preserves_edges

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
        adj = graph.adjacency
        assert adj.dtype == bool and adj.shape == (16, 16)
        assert adj.flags.c_contiguous and adj.flags.writeable


def test_directed_rejected():
    with pytest.raises(DirectedUnsupported):
        build_graph(GraphSpec(3, 1, 1, 0))  # q^m = 3 mod 4


def test_paley_13_builds():
    g = build_graph(GraphSpec(13, 1, 1, 0))
    assert g.k == 6


def test_build_refuses_an_asymmetric_connection_set(monkeypatch):
    # dropping s but not -s from S leaves a regular, loop-free Cayley digraph
    # with the expected degree: only the translation check's A[0, x] = A[0, -x]
    # can refuse it
    real = gpaley.graphs.connection_set

    def dropped(spec, field):
        conn = real(spec, field)
        members = conn.members.copy()
        members[np.flatnonzero(members)[0]] = False
        return dataclasses.replace(conn, members=members, cardinality=conn.cardinality - 1)

    monkeypatch.setattr(gpaley.graphs, "connection_set", dropped)
    with pytest.raises(InternalCheckError):
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
    # for odd p the Zech table is the addition of build_graph: moving any one
    # entry zech[i] -> zech[i] + 1 must fail the translation check
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
    # the fill adds with the Zech table and the translation check with the
    # base-p digits of the indices, so one wrong Zech entry cannot pass both
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
    assert build_graph(spec).translation_invariant


# ---------------------------------------------------------------------------
# family bookkeeping
# ---------------------------------------------------------------------------

def test_enumerate_family_examples():
    assert [s.ell for s in enumerate_family(2, 1, 12)] == [1, 2, 3, 6]
    assert [s.ell for s in enumerate_family(2, 1, 30)] == [1, 3, 5, 15]
    assert enumerate_family(5, 1, 7) == []
    assert [s.ell for s in enumerate_family(2, 1, 2)] == [1]


def test_spec_tags():
    assert GraphSpec(2, 1, 3, 1).tag == "complete"
    assert GraphSpec(3, 1, 3, 1).tag == "paley"
    assert GraphSpec(3, 1, 4, 1).tag == "proper"
    assert GraphSpec(2, 1, 12, 4).tag == "complete"  # m_4 = 3 odd
    assert GraphSpec(2, 1, 12, 10).tag == "proper"  # reduces to ell = 2
    assert GraphSpec(2, 1, 12, 10).reduce().ell == 2
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
