import itertools
import json
import math
import re

import numpy as np
import pytest

import gpaley.applications
import gpaley.field
import gpaley.forms
import gpaley.graphs
import gpaley.oracles
import gpaley.spectra
from gpaley.arith import gcd_power
from gpaley.errors import (
    BudgetExceeded,
    InternalCheckError,
    NotApplicable,
    NotInFamily,
    NotStronglyRegular,
)
from gpaley.field import get_field
from gpaley.graphs import (
    GraphSpec,
    apply_affine_frobenius,
    build_graph,
    verify_waring,
    waring_witnesses,
)
from gpaley.oracles import (
    count_components,
    count_diameter,
    count_ramanujan,
    count_srg_params,
    count_trees_bruteforce,
    count_walks_bruteforce,
    girth_bruteforce,
    run_suite,
    verify_a2_identity,
)
from gpaley.spectra import closed_walks, spanning_trees, srg_params
from reference import (
    bareiss_determinant,
    digit_add,
    digit_neg,
    permutation_preserves_edges,
    translation_invariant,
    with_adjacency,
    with_members,
)


def _two_switch(g, rows=None):
    """A copy of g whose adjacency has edges (a, b), (c, d) switched to
    (a, d), (c, b), all four vertices non-neighbors of 0 (and inside
    ``rows``, a range, if given): every degree and row 0 stay as they were,
    and the connection set is g's, so only what reads the adjacency can
    tell."""
    adj = g.adjacency.copy()
    outside = [int(v) for v in np.flatnonzero(~adj[0])[1:] if rows is None or v in rows]
    for a, b, c, d in itertools.permutations(outside, 4):
        if adj[a, b] and adj[c, d] and not (adj[a, d] or adj[c, b]):
            adj[[a, b, c, d], [b, a, d, c]] = False
            adj[[a, d, c, b], [d, a, b, c]] = True
            return with_adjacency(g, adj)
    raise AssertionError("no 2-switch among the non-neighbors of 0")


def _drop_member(g):
    """A copy of g on its connection set less its least member s and -s: a
    loop-free Cayley graph of degree k - 2 (k - 1 for p = 2)."""
    members = g.row0.copy()
    s = int(np.flatnonzero(members)[0])
    members[[s, g.field.neg(s)]] = False
    return with_members(g, members)


def _drop_negative(g):
    """A copy of g, p odd, on its connection set less -s, for its least
    member s, but not s: loop-free with k - 1 members, and not closed under
    negation."""
    members = g.row0.copy()
    members[g.field.neg(int(np.flatnonzero(members)[0]))] = False
    return with_members(g, members)


def _add_non_member(g):
    """A copy of g with the least nonzero non-member x added to its
    connection set, and not -x."""
    members = g.row0.copy()
    members[np.flatnonzero(~members)[1]] = True
    return with_members(g, members)


def _plant(monkeypatch, primal=lambda g: g, complement=lambda gbar: gbar):
    """Make run_suite build its own graphs, then see primal(g) in place of
    its primal graph g and complement(gbar) in place of its complement
    gbar: each side is corrupted alone."""
    def build(spec, *args, **kwargs):
        g = build_graph(spec, *args, **kwargs)
        return (complement if spec.complemented else primal)(g)

    monkeypatch.setattr(gpaley.oracles, "build_graph", build)


# ---------------------------------------------------------------------------
# individual oracles
# ---------------------------------------------------------------------------

def test_count_srg_params_examples():
    assert count_srg_params(build_graph(GraphSpec(2, 1, 4, 1))) == (16, 5, 0, 2)
    assert count_srg_params(build_graph(GraphSpec(3, 1, 4, 1))) == (81, 20, 1, 6)
    assert count_srg_params(build_graph(GraphSpec(2, 1, 4, 2))) == (16, 3, 2, 0)


def test_count_srg_rejects_non_srg():
    # with one member more, Gamma_{2,4}(1) is a 6-regular Cayley graph whose
    # adjacent pairs have 0 or 2 common neighbors
    g = build_graph(GraphSpec(2, 1, 4, 1))
    counts = r"not constant: adjacent \[0, 2\], non-adjacent \[2, 4\]"
    with pytest.raises(NotStronglyRegular, match=counts):
        count_srg_params(_add_non_member(g))
    # the 4-cube, the Cayley graph of F_16 on {1, 2, 4, 8}: its non-adjacent
    # pairs have 2 common neighbors at distance 2, 0 above
    cube = with_members(g, np.isin(np.arange(16), [1, 2, 4, 8]))
    counts = r"not constant: adjacent \[0\], non-adjacent \[0, 2\]"
    with pytest.raises(NotStronglyRegular, match=counts):
        count_srg_params(cube)


def test_count_srg_sees_a_replaced_adjacency():
    # the transform is cached per graph object: a copy on another connection
    # set made after the cache was filled must be counted afresh
    g = build_graph(GraphSpec(2, 1, 4, 1))
    assert count_srg_params(g) == (16, 5, 0, 2)
    with pytest.raises(NotStronglyRegular):
        count_srg_params(_drop_member(g))
    assert count_srg_params(g) == (16, 5, 0, 2)


def test_a2_identity():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    assert verify_a2_identity(g, (16, 5, 0, 2))
    assert not verify_a2_identity(g, (16, 5, 0, 3))  # perturbed d
    gbar = build_graph(GraphSpec(3, 1, 4, 1, True))
    assert verify_a2_identity(gbar, (81, 60, 45, 42))
    assert not verify_a2_identity(_drop_member(gbar), (81, 60, 45, 42))


def test_walk_counts():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    gbar = build_graph(GraphSpec(2, 1, 4, 1, True))
    assert count_walks_bruteforce(g, 3) == 0
    assert count_walks_bruteforce(gbar, 3) == 960
    g81 = build_graph(GraphSpec(3, 1, 4, 1))
    assert count_walks_bruteforce(g81, 2) == 81 * 20
    for r in range(1, 11):
        assert count_walks_bruteforce(g, r) == closed_walks(GraphSpec(2, 1, 4, 1), r)
        assert count_walks_bruteforce(gbar, r) == closed_walks(GraphSpec(2, 1, 4, 1, True), r)
    with pytest.raises(ValueError, match="^walk length r must be at least 1, not 0$"):
        count_walks_bruteforce(g, 0)


def test_walk_counts_detect_corruption():
    # a connection set that is not closed under negation has a character sum
    # that is not real: the count is refused. Two members fewer make 4 closed
    # 2-walks fewer at each of the 81 vertices
    g = build_graph(GraphSpec(3, 1, 4, 1, True))
    with pytest.raises(InternalCheckError, match="is not an integer"):
        count_walks_bruteforce(_drop_negative(g), 2)
    assert count_walks_bruteforce(_drop_member(g), 2) == 81 * 58


@pytest.mark.parametrize("r", [2.0, True, 2.5])
def test_walk_counts_refuse_a_length_that_is_not_an_integer(r):
    # True used to count the closed 1-walks
    g = build_graph(GraphSpec(2, 1, 4, 1))
    with pytest.raises(ValueError, match=f"^walk length r must be an integer, not {r}$"):
        count_walks_bruteforce(g, r)


def test_counted_ramanujan_decisions():
    # 3^2 <= 4*4 on Gamma_{2,4}(1); 21^2 > 4*103 on Gamma_{5,4}(1), whose
    # nontrivial eigenvalues are 4 and -21 with degree 104
    for spec, decision in [(GraphSpec(2, 1, 4, 1), True), (GraphSpec(5, 1, 4, 1), False)]:
        g = build_graph(spec)
        assert count_ramanujan(g) is decision
        assert count_ramanujan(build_graph(spec.complement())) is True


def test_a_shifted_eigenvalue_fails_every_check_that_reads_the_transform(monkeypatch):
    # lambda_1 + 9 on each side of Gamma_{2,4}(1): 10^2 > 4 * 4 and
    # 7^2 > 4 * 9 break both Ramanujan decisions, and an odd change to the
    # sum of lambda^2 leaves row 0 of A^2, which the srg, A^2 and diameter
    # checks read, no exact quotient by 16. The complement still has closed
    # 3-walks, so its girth still reads 3
    real = gpaley.graphs.CayleyGraph.eigenvalues.func

    def shifted(g):
        lams = real(g).copy()
        lams[1] += 9
        return lams

    monkeypatch.setattr(gpaley.graphs.CayleyGraph, "eigenvalues", property(shifted))
    report = run_suite(GraphSpec(2, 1, 4, 1))
    reading = {"srg-counts", "a2-identity", "walks-2..6", "trees", "girth", "diameter",
               "spectrum-moments"}
    assert {c.name for c in report.failures()} == {
        f"{check}-{side}" for check in reading for side in ("primal", "complement")
    } - {"girth-complement"} | {"ramanujan-double-path", "ramanujan-complement"}
    assert len(report.checks) == 25


def test_a_raised_eigenvalue_fails_the_half_case_components(monkeypatch):
    # Gamma_{2,4}(2) is four disjoint K_4: lambda_0 = 3 four times and -1
    # twelve times. A +9 shift would leave four 3s; setting one -1 to 3
    # gives five components, which do not divide 16 vertices
    real = gpaley.graphs.CayleyGraph.eigenvalues.func

    def raised(g):
        lams = real(g).copy()
        if not g.spec.complemented:
            lams[np.flatnonzero(lams != lams[0])[0]] = lams[0]
        return lams

    monkeypatch.setattr(gpaley.graphs.CayleyGraph, "eigenvalues", property(raised))
    report = run_suite(GraphSpec(2, 1, 4, 2))
    check = next(c for c in report.checks if c.name == "half-case-components")
    assert not check.passed
    assert check.expected == (4, [4])
    assert check.observed.startswith("InternalCheckError: non-exact division")


@pytest.mark.parametrize(
    "spec", [GraphSpec(2, 1, 4, 1), GraphSpec(5, 1, 4, 1), GraphSpec(2, 1, 4, 2)], ids=GraphSpec.label
)
def test_a_negated_ramanujan_classification_fails_its_counted_checks(monkeypatch, spec):
    # each Ramanujan check holds is_ramanujan to the decision counted on its
    # graph: negated, both fail, and the counted side still reads the truth
    real = gpaley.oracles.is_ramanujan
    monkeypatch.setattr(gpaley.oracles, "is_ramanujan", lambda s: not real(s))
    report = run_suite(spec)
    sides = {"ramanujan-complement": spec.complement()}
    if not spec.is_half:  # the primal graph of ell = m/2 is disconnected
        sides["ramanujan-double-path"] = spec
    assert {c.name for c in report.failures()} == sides.keys()
    for check in report.failures():
        truth = real(sides[check.name])
        assert (check.expected, check.observed) == (not truth, truth)


# odd p, so that one member's negative can be dropped alone
_ASYMMETRIC = [GraphSpec(3, 1, 4, 1), GraphSpec(5, 1, 2, 1), GraphSpec(3, 1, 4, 1, True)]


@pytest.mark.parametrize("spec", _ASYMMETRIC, ids=GraphSpec.label)
def test_kernels_refuse_an_asymmetric_connection_set(spec):
    # without -s the character sums over row 0 are not all real, so every
    # kernel that reads the transform raises
    dropped = _drop_negative(build_graph(spec))
    with pytest.raises(InternalCheckError, match="is not an integer"):
        count_srg_params(dropped)
    for r in range(2, 7):
        with pytest.raises(InternalCheckError):
            count_walks_bruteforce(dropped, r)
    for kernel in (girth_bruteforce, count_trees_bruteforce, count_ramanujan, count_diameter,
                   count_components):
        with pytest.raises(InternalCheckError):
            kernel(dropped)
    with pytest.raises(InternalCheckError):
        dropped.eigenvalues
    with pytest.raises(InternalCheckError):
        verify_a2_identity(dropped, srg_params(spec).params())


# Gamma_{4,4}(1) has s = 2 and Gamma_{2,10}(5) is the half case
@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1),
                                  GraphSpec(7, 1, 4, 2), GraphSpec(5, 1, 4, 1),
                                  GraphSpec(2, 2, 4, 1), GraphSpec(2, 1, 10, 5)])
@pytest.mark.parametrize("complemented", [False, True])
def test_translation_check_matches_the_entrywise_reference(spec, complemented):
    # the rows built on a certified field pass the reference's entrywise
    # translation check, which reads digit arithmetic alone, and row 0 of
    # them is the connection set
    g = build_graph(spec.replace(complemented=complemented))
    assert translation_invariant(g.adjacency, spec.p, g.field.n)
    assert np.array_equal(g.adjacency[0], g.row0)


_LEVELS = [GraphSpec(2, 1, 12, 1), GraphSpec(3, 1, 6, 1), GraphSpec(7, 1, 4, 2)]


@pytest.mark.parametrize("spec", _LEVELS, ids=lambda spec: spec.label())
def test_translation_check_refuses_one_flipped_entry(spec):
    # the reference check above refuses a flip in row p^t for every digit
    # position t and in the last row, in column 1 and in column N - 1
    g = build_graph(spec)
    p, n = g.field.p, g.field.n
    for i in [p**t for t in range(n)] + [g.n - 1]:
        for j in (1, g.n - 1):
            adj = g.adjacency.copy()
            adj[i, j] = not adj[i, j]
            assert not translation_invariant(adj, p, n), (i, j)


@pytest.mark.parametrize("spec", _LEVELS, ids=lambda spec: spec.label())
def test_translation_check_reaches_every_digit_level(spec):
    # flipping A[i, i + x] on every row i with digit t nonzero, for x with
    # digit t 0 or p - 1 and no other, leaves row 0 as it was; the reference
    # check must see it at every digit t
    g = build_graph(spec)
    p, n = g.field.p, g.field.n
    idx = np.arange(g.n)
    for t in range(n):
        rows = idx[idx // p**t % p != 0]
        for x in (0, (p - 1) * p**t):
            adj = g.adjacency.copy()
            cols = digit_add(rows, x, p, n)
            adj[rows, cols] = ~adj[rows, cols]
            assert not translation_invariant(adj, p, n), (t, x)


@pytest.mark.parametrize(
    "spec, rows",
    [
        (GraphSpec(7, 1, 4, 2), range(2304, 2401)),  # the last 97 rows
        (GraphSpec(2, 1, 12, 1), range(2048, 2304)),  # a block in the middle
    ],
)
def test_translation_check_reads_every_row_block(spec, rows):
    # the reference check reads 256 rows at a time; a 2-switch inside one
    # block of them, which keeps every degree and row 0, must be seen
    g = build_graph(spec)
    switched = _two_switch(g, rows)
    changed = np.flatnonzero((switched.adjacency != g.adjacency).any(axis=1))
    assert len(changed) == 4 and set(changed.tolist()) <= set(rows)
    assert not translation_invariant(switched.adjacency, spec.p, g.field.n)


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)])
def test_run_suite_fails_a_switched_adjacency(monkeypatch, spec):
    # the 2-switch moves the adjacency alone, and only the arc witnesses read
    # it: each switched arc (a, d) has d - a outside S, so no witness
    # scale exists for it, and every count, read off the connection set,
    # still passes
    _plant(monkeypatch, primal=_two_switch)
    failures = run_suite(spec).failures()
    assert [c.name for c in failures] == ["arc-transitivity-witnesses"]
    assert re.fullmatch(r"scale for arc \(\d+,\d+\) not a connection member",
                        failures[0].observed)


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)])
def test_run_suite_fills_one_graph_per_spec(monkeypatch, spec):
    # every count reads the connection sets; the arc checks, run up to 256
    # vertices, build the primal graph's rows once, and the complement's are
    # never built
    blocks, reads = gpaley.graphs._row_blocks, []
    monkeypatch.setattr(gpaley.graphs, "_row_blocks", lambda g: reads.append(g) or blocks(g))
    assert run_suite(spec).ok and [g.spec for g in reads] == [spec]


def test_run_suite_fills_no_graph_above_the_arc_budget(monkeypatch):
    # 4096 vertices: no check reads a row of A past row 0, so none is built
    blocks, reads = gpaley.graphs._row_blocks, []
    monkeypatch.setattr(gpaley.graphs, "_row_blocks", lambda g: reads.append(g) or blocks(g))
    assert run_suite(GraphSpec(2, 1, 12, 1)).ok and reads == []


# 81 and 2,401 vertices
@pytest.mark.parametrize("spec", [GraphSpec(3, 1, 4, 1), GraphSpec(7, 1, 4, 2, True)],
                         ids=GraphSpec.label)
@pytest.mark.parametrize("side", ["primal", "complement"])
def test_a_planted_connection_set_fails_its_degree_check(monkeypatch, spec, side):
    # without -s, row 0 is loop-free with k - 1 members but not closed under
    # negation: A is not symmetric, and that side's degree check fails. The
    # complement's check also holds its k to n - 1 - k, which a primal k - 1
    # breaks; the primal check does not read the complement
    _plant(monkeypatch, **{side: _drop_negative})
    checks = {c.name: c.passed for c in run_suite(spec).checks}
    assert checks["regular-degree"] == (side == "complement")
    assert not checks["complement-degree"]


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)], ids=GraphSpec.label)
def test_a_planted_non_member_fails_the_cardinality_srg_and_walk_checks(monkeypatch, spec):
    # one member more: |row 0| is k + 1, not the paper's k, and the counts
    # read off the planted set are no longer the closed ones
    _plant(monkeypatch, primal=_add_non_member)
    failed = {c.name for c in run_suite(spec).failures()}
    assert {"connection-cardinality", "srg-counts-primal", "walks-2..6-primal"} <= failed
    assert "srg-counts-complement" not in failed


def test_coset_decomposition_needs_an_invariant_complement(monkeypatch):
    # the cosets must cover the complement's own connection set: a member
    # pair ±s dropped from it is seen, and the primal side still passes
    _plant(monkeypatch, complement=_drop_member)
    checks = {c.name: c for c in run_suite(GraphSpec(3, 1, 4, 1)).checks}
    assert checks["coset-decomposition"].observed == (True, False)
    assert checks["srg-counts-primal"].passed


# Gamma_{5,2}(1) and Gamma_{7,2}(1) are half members
@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1),
                                  GraphSpec(2, 2, 4, 1), GraphSpec(5, 1, 2, 1),
                                  GraphSpec(7, 1, 2, 1)])
@pytest.mark.parametrize("complemented", [False, True])
def test_walk_rows_match_the_dense_powers(spec, complemented):
    # the transform against dense int64 powers: the eigenvalues of A, row 0
    # of A^2 and trace(A^r) for r = 1..8 (entries of A^r are at most
    # k^(r-1), so every trace is below N k^7 < 2^62)
    g = build_graph(spec.replace(complemented=complemented))
    a = g.adjacency.astype(np.int64)
    eigs = np.linalg.eigvalsh(a.astype(np.float64))
    assert np.abs(eigs - np.rint(eigs)).max() < 1e-8
    assert sorted(g.eigenvalues.tolist()) == np.rint(eigs).astype(np.int64).tolist()
    assert g.square_row.dtype == np.int64 and np.array_equal(g.square_row, (a @ a)[0])
    power = np.eye(g.n, dtype=np.int64)
    for r in range(1, 9):
        power = power @ a
        assert count_walks_bruteforce(g, r) == int(np.trace(power)), r


def test_tree_counts():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    gbar = build_graph(GraphSpec(2, 1, 4, 1, True))
    assert count_trees_bruteforce(g) == 2**31
    assert count_trees_bruteforce(gbar) == 2**31 * 3**10
    assert count_trees_bruteforce(build_graph(GraphSpec(2, 1, 4, 2))) == 0
    assert count_trees_bruteforce(gbar) == spanning_trees(GraphSpec(2, 1, 4, 1, True))
    # a member dropped: the count is that of the planted graph, not the closed one
    dropped = _drop_member(gbar)
    adj = dropped.adjacency.astype(np.int64)
    lap = np.diag(adj.sum(axis=1)) - adj
    assert count_trees_bruteforce(dropped) == bareiss_determinant(lap[1:, 1:]) != 2**31 * 3**10


def test_tree_budget():
    with pytest.raises(BudgetExceeded):
        count_trees_bruteforce(build_graph(GraphSpec(3, 1, 6, 1)))


def test_bareiss_known_determinants():
    assert bareiss_determinant(np.array([[2, 1], [1, 2]])) == 3
    assert bareiss_determinant(np.array([[0, 1], [1, 0]])) == -1  # needs a pivot swap
    assert bareiss_determinant(np.eye(5, dtype=np.int64)) == 1
    assert bareiss_determinant(np.zeros((3, 3), dtype=np.int64)) == 0
    # Cayley's formula via the K_n Laplacian minor
    n = 6
    lap = n * np.eye(n, dtype=np.int64) - 1
    assert bareiss_determinant(lap[1:, 1:]) == n ** (n - 2)


# one spec for each p = 2, 3, 5, 7, at most 81 vertices; Gamma_{5,2}(1) and
# Gamma_{7,2}(1) are half members, q disjoint cliques with no spanning tree
_COUNTED = [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1), GraphSpec(5, 1, 2, 1),
            GraphSpec(7, 1, 2, 1)]


@pytest.mark.parametrize("spec", _COUNTED, ids=GraphSpec.label)
@pytest.mark.parametrize("complemented", [False, True])
def test_counted_spectrum_and_tree_count_match_the_dense_references(spec, complemented):
    g = build_graph(spec.replace(complemented=complemented))
    adj = g.adjacency.astype(np.int64)
    eigs = np.linalg.eigvalsh(adj.astype(np.float64))
    assert np.abs(eigs - np.rint(eigs)).max() < 1e-8
    counted = g.eigenvalues
    assert counted[0] == g.k
    assert sorted(counted.tolist()) == np.rint(eigs).astype(np.int64).tolist()
    lap = np.diag(adj.sum(axis=1)) - adj
    trees = count_trees_bruteforce(g)
    assert trees == bareiss_determinant(lap[1:, 1:])
    assert (trees == 0) == (spec.is_half and not complemented)


def test_an_eigenvalue_that_is_not_an_integer_is_refused():
    # the Cayley graph on F_25 with row 0 {1, -1}: five disjoint 5-cycles,
    # with eigenvalues 2 cos(2 pi a / 5)
    g = build_graph(GraphSpec(5, 1, 2, 1))
    idx = np.arange(g.n)
    row = np.isin(idx, [1, 4])
    adj = row[digit_add(idx[None, :], digit_neg(idx[:, None], 5, 2), 5, 2)]
    cycles = with_members(g, row)
    assert np.array_equal(cycles.adjacency, adj)
    eigs = np.linalg.eigvalsh(adj.astype(np.float64))
    cosines = 2 * np.cos(2 * np.pi * np.arange(5) / 5)
    assert np.allclose(np.sort(eigs), np.sort(np.repeat(cosines, 5)))
    with pytest.raises(InternalCheckError, match="^Gamma.*: character 1 has residue counts "
                       r"\[0, 1, 0, 0, 1\], so its eigenvalue is not an integer$"):
        cycles.eigenvalues
    with pytest.raises(InternalCheckError):
        count_trees_bruteforce(cycles)


def test_counted_diameter_and_components():
    assert count_diameter(build_graph(GraphSpec(2, 1, 3, 1))) == 1  # complete graph
    assert count_diameter(build_graph(GraphSpec(2, 1, 4, 1))) == 2
    assert count_components(build_graph(GraphSpec(2, 1, 4, 1))) == (1, 16)
    assert count_components(build_graph(GraphSpec(2, 1, 4, 2))) == (4, 4)  # four K_4
    # the 4-cube, the Cayley graph of F_16 on {1, 2, 4, 8}, has diameter 4,
    # which no connected member has
    cube = with_members(build_graph(GraphSpec(2, 1, 4, 1)), np.isin(np.arange(16), [1, 2, 4, 8]))
    with pytest.raises(NotApplicable, match="diameter exceeds 2"):
        count_diameter(cube)
    assert count_components(cube) == (1, 16)
    # {1, 2} spans four of the 16 vertices: four 4-cycles
    assert count_components(with_members(cube, np.isin(np.arange(16), [1, 2]))) == (4, 4)


def test_girth():
    assert girth_bruteforce(build_graph(GraphSpec(2, 1, 4, 1))) == 4
    assert girth_bruteforce(build_graph(GraphSpec(2, 1, 4, 1, True))) == 3
    assert girth_bruteforce(build_graph(GraphSpec(3, 1, 4, 1))) == 3


@pytest.mark.parametrize("spec, girth", [
    (GraphSpec(2, 1, 4, 2), 3),  # four disjoint K_4
    (GraphSpec(2, 1, 4, 2, True), 3),
    (GraphSpec(3, 1, 2, 1), 3),  # three disjoint K_3
    (GraphSpec(3, 1, 2, 1, True), 3),
    (GraphSpec(2, 1, 2, 1, True), 4),  # the 4-cycle
], ids=lambda x: x.label() if isinstance(x, GraphSpec) else str(x))
def test_closed_girth_equals_the_counted_girth_on_the_half_members(spec, girth):
    # ell = m/2: disjoint cliques and their complete multipartite complements,
    # down to the 4-cycle, the complement of the degenerate (2,2,1)
    assert srg_params(spec).girth == girth_bruteforce(build_graph(spec)) == girth


def test_waring_witness_falsification():
    cert = waring_witnesses(build_graph(GraphSpec(2, 1, 4, 1)))
    bad = cert.witnesses.copy()
    x, y = bad[1]  # the first nonzero element, 1 = 1^3
    bad[1] = (x, (y + 1) % 16 or 1)
    corrupted = cert.replace(witnesses=bad)
    assert not verify_waring(corrupted, get_field(2, 1, 4))


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [
        GraphSpec(2, 1, 4, 1),
        GraphSpec(3, 1, 4, 1),
        GraphSpec(2, 2, 4, 1),
        GraphSpec(2, 1, 4, 2),
        GraphSpec(2, 1, 6, 3),
        GraphSpec(2, 1, 2, 1),
        GraphSpec(3, 1, 2, 1),
    ],
)
def test_run_suite_passes(spec):
    report = run_suite(spec)
    assert report.ok, [c.name for c in report.failures()]


def test_report_json_shape():
    report = run_suite(GraphSpec(2, 1, 4, 1))
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["label"] == "Gamma_{2,4}(1)"
    names = {c["name"] for c in payload["checks"]}
    assert {"srg-counts-primal", "klapper-vs-kernel-counts", "walks-2..6-complement"} <= names
    json.dumps(payload)  # serializable as-is


def test_suite_records_failures_without_raising(monkeypatch):
    # a kernel that raises, a closed form that raises and a kernel that
    # returns a wrong value all become failed results, and the suite goes on
    # to the next check
    g = build_graph(GraphSpec(2, 1, 4, 1))
    suite = gpaley.oracles._Suite(g.spec)
    with monkeypatch.context() as env:
        env.setenv("GPG_MAX_ORDER", "8")
        suite.run("trees-capped", lambda: 2**31, lambda: count_trees_bruteforce(g))
    suite.run("trees-closed-raises", lambda: spanning_trees(GraphSpec(2, 1, 3, 1)),
              lambda: count_trees_bruteforce(g))
    suite.run("a2-perturbed", lambda: True, lambda: verify_a2_identity(g, (16, 5, 1, 2)))
    suite.run("a2-identity", lambda: True, lambda: verify_a2_identity(g, (16, 5, 0, 2)))
    raised, closed_raised, wrong, following = suite.report.checks
    assert not raised.passed
    assert (raised.expected, raised.observed) == (
        2**31, "BudgetExceeded: 16 exceeds the tree budget 8"
    )
    assert not closed_raised.passed
    assert closed_raised.expected.startswith("NotInFamily: ")
    assert closed_raised.observed == 2**31
    assert (wrong.passed, wrong.observed) == (False, False)
    assert following.passed and following.observed is True
    assert [c.name for c in suite.report.failures()] == [
        "trees-capped", "trees-closed-raises", "a2-perturbed"
    ]
    assert not suite.report.ok


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)], ids=GraphSpec.label)
def test_a_closed_form_that_raises_fails_its_check_and_the_suite_goes_on(monkeypatch, spec):
    # an (e, d) off by one makes srg_params, and every check that reads it,
    # raise InternalCheckError; the report still lists every check
    real = gpaley.spectra._core_e_d
    monkeypatch.setattr(gpaley.spectra, "_core_e_d", lambda s: (real(s)[0] + 1, real(s)[1]))
    report = run_suite(spec)
    assert len(report.checks) == 25
    failed = [c.name for c in report.failures()]
    assert failed == [
        "srg-counts-primal", "a2-identity-primal", "girth-primal",
        "srg-counts-complement", "a2-identity-complement", "girth-complement",
    ]
    assert all(c.expected.startswith("InternalCheckError: ")
               for c in report.failures() if c.name.startswith("srg-counts"))


def test_run_suite_reads_few_spectra(monkeypatch):
    # the walks and moments checks of each side read one spectrum
    calls = []
    evaluate = gpaley.spectra.spectrum

    def counted(spec):
        calls.append(spec)
        return evaluate(spec)

    for module in (gpaley.spectra, gpaley.applications, gpaley.oracles):
        monkeypatch.setattr(module, "spectrum", counted)
    assert run_suite(GraphSpec(2, 1, 8, 1)).ok
    assert len(calls) <= 14


def test_a_raising_side_spectrum_fails_the_walks_and_moments_checks(monkeypatch):
    g = build_graph(GraphSpec(2, 1, 4, 1))
    suite = gpaley.oracles._Suite(g.spec)

    def raising(spec):
        raise InternalCheckError("planted")

    monkeypatch.setattr(gpaley.oracles, "spectrum", raising)
    gpaley.oracles._side_checks(suite, "primal", g)
    failed = {c.name: c.expected for c in suite.report.failures()}
    assert failed == {"walks-2..6-primal": "InternalCheckError: planted",
                      "spectrum-moments-primal": "InternalCheckError: planted"}


def test_run_suite_refuses_a_spec_outside_the_family():
    with pytest.raises(NotInFamily):
        run_suite(GraphSpec(2, 1, 3, 1))


@pytest.mark.parametrize("spec", [(2, 1, 12, 5), (3, 1, 3, 1), (3, 1, 9, 2)])
def test_run_suite_refuses_outside_the_family_before_building(monkeypatch, spec):
    # the spectrum alone refuses these specs; a build of Gamma_{3,3}(1) would
    # raise DirectedUnsupported in place of NotInFamily
    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built for a spec outside the family")

    monkeypatch.setattr(gpaley.oracles, "build_graph", no_build)
    with pytest.raises(NotInFamily):
        run_suite(GraphSpec(*spec))


def test_connection_cardinality_is_held_to_the_closed_degree(monkeypatch):
    # a connection set of the wrong size still makes a loop-free Cayley
    # graph that build_graph certifies; only the paper's degree can tell
    monkeypatch.setattr(gpaley.graphs, "gcd_power", lambda q, m, ell: 5)
    checks = {c.name: c for c in run_suite(GraphSpec(2, 1, 4, 1)).checks}
    cardinality = checks["connection-cardinality"]
    assert (cardinality.expected, cardinality.observed, cardinality.passed) == (5, 3, False)


def test_a_flipped_copy_counts_its_own_degrees():
    # a copy on a planted connection set counts its own degree and
    # eigenvalues, and leaves those cached on the graph it was made from
    g = build_graph(GraphSpec(2, 1, 4, 1, True))
    assert g.k == 10 and count_trees_bruteforce(g) == 2**31 * 3**10
    flipped = _drop_member(g)
    assert flipped.k == 9 and flipped.eigenvalues[0] == 9
    assert g.k == 10 and g.eigenvalues[0] == 10
    assert count_trees_bruteforce(flipped) != count_trees_bruteforce(g) == 2**31 * 3**10


def test_run_suite_checks_reach_the_kernels(monkeypatch):
    # a primal graph with one member dropped must fail every count on it
    _plant(monkeypatch, primal=_drop_member)
    report = run_suite(GraphSpec(2, 1, 4, 1))
    failed = {c.name for c in report.failures()}
    assert {"srg-counts-primal", "a2-identity-primal", "walks-2..6-primal",
            "trees-primal", "spectrum-moments-primal"} <= failed
    assert "srg-counts-complement" not in failed


def test_run_suite_searches_witnesses_on_its_primal_graph(monkeypatch):
    # the witness search reads row 0 of the graph run_suite built, so a
    # member dropped there fails it too
    _plant(monkeypatch, primal=_drop_member)
    check = next(c for c in run_suite(GraphSpec(2, 1, 4, 1)).checks if c.name == "waring-witnesses")
    assert not check.passed
    assert check.observed == "InternalCheckError: the nonzero powers are not the connection set"


def _moved_count(form):
    counts = gpaley.forms.kernel_counts(form)
    counts[0] -= 1
    counts[1] += 1
    return counts


_CORRUPTED_FORM_KERNELS = {
    "kernel_counts": _moved_count,
    "exp_sum": lambda form: -gpaley.forms.exp_sum(form),
}


@pytest.mark.parametrize("kernel", sorted(_CORRUPTED_FORM_KERNELS))
def test_klapper_sweep_reaches_the_form_kernels(monkeypatch, kernel):
    # a fault in either public form kernel must show in the sweep
    monkeypatch.setattr(gpaley.oracles, kernel, _CORRUPTED_FORM_KERNELS[kernel])
    report = run_suite(GraphSpec(2, 1, 4, 1))
    failed = {c.name for c in report.failures()}
    assert "klapper-vs-kernel-counts" in failed
    assert failed <= {"klapper-vs-kernel-counts", "klapper-low-rank-multiplicity"}
    if kernel == "kernel_counts":
        # counts that fit no form are a mismatch per gamma, and the sweep goes
        # on: every gamma is named, and no check crashes
        checks = {c.name: c for c in report.checks}
        assert checks["klapper-vs-kernel-counts"].observed == list(range(1, 16))
        assert not any("IndexError" in str(c.observed) for c in report.checks)


def _coset_logs(spec):
    """Per coset alpha^j S of S = <alpha^g>: the logs of its members."""
    units = spec.order - 1
    cosets = gcd_power(spec.q, spec.m, spec.ell)
    return [list(range(j, units, cosets)) for j in range(cosets)]


@pytest.mark.parametrize(
    "spec, calls",
    [
        (GraphSpec(2, 1, 4, 1), 6),  # g = gcd(15, 3) = 3
        (GraphSpec(3, 1, 4, 1), 8),  # g = gcd(80, 4) = 4
        (GraphSpec(2, 1, 6, 3), 18),  # g = gcd(63, 9) = 9
        (GraphSpec(2, 1, 2, 1), 6),  # g = 3 cosets of S = {1}
    ],
)
def test_klapper_sweep_evaluates_one_form_per_coset(monkeypatch, spec, calls):
    # one form per coset alpha^j S, its representative alpha^j, in order of
    # j: kernel_counts and exp_sum are each called once on it, 2g calls in all
    recorded = {"kernel_counts": [], "exp_sum": []}

    def recording(kernel):
        original = getattr(gpaley.forms, kernel)

        def wrapper(form, *args):
            recorded[kernel].append(form.gamma)
            return original(form, *args)

        return wrapper

    for kernel in recorded:
        monkeypatch.setattr(gpaley.oracles, kernel, recording(kernel))
    assert run_suite(spec).ok
    fld = get_field(spec.p, spec.s, spec.m)
    representatives = [int(fld.exp[coset[0]]) for coset in _coset_logs(spec)]
    assert representatives == [int(fld.exp[j]) for j in range(calls // 2)]
    assert recorded == {"kernel_counts": representatives, "exp_sum": representatives}


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)])
@pytest.mark.parametrize("kernel", sorted(_CORRUPTED_FORM_KERNELS))
def test_klapper_sweep_names_the_coset_of_a_corrupted_representative(monkeypatch, spec, kernel):
    # a fault on the one evaluated member of a coset, its representative
    # alpha^j, must name exactly the gammas of that coset; the low-rank count,
    # which compares classes and not character sums, loses that coset's
    # gammas when its counts fit no form
    fld = get_field(spec.p, spec.s, spec.m)
    low_rank = spec.m - 2 * math.gcd(spec.m, spec.ell)
    original, corrupted = getattr(gpaley.oracles, kernel), _CORRUPTED_FORM_KERNELS[kernel]
    for coset in _coset_logs(spec):
        representative = int(fld.exp[coset[0]])
        monkeypatch.setattr(
            gpaley.oracles, kernel,
            lambda form, *args: (corrupted if form.gamma == representative else original)(
                form, *args
            ),
        )
        checks = {c.name: c for c in run_suite(spec).checks}
        assert checks["klapper-vs-kernel-counts"].observed == sorted(
            int(fld.exp[log]) for log in coset
        )
        lost = gpaley.forms.classify_form(gpaley.forms.TraceForm(fld, representative, spec.ell))
        assert checks["klapper-low-rank-multiplicity"].passed == (
            kernel == "exp_sum" or lost.rank != low_rank
        )
        failed = {name for name, c in checks.items() if not c.passed}
        assert failed <= {"klapper-vs-kernel-counts", "klapper-low-rank-multiplicity"}


@pytest.mark.parametrize(
    "spec",
    [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1), GraphSpec(2, 1, 6, 3), GraphSpec(3, 1, 4, 2)],
    ids=GraphSpec.label,
)
def test_klapper_sweep_applies_the_closed_rule_at_every_gamma(monkeypatch, spec):
    # the closed class of one gamma with log >= g flipped must name exactly
    # that gamma: the rule is read at every gamma, not once per coset
    # representative, where a wrong modulus such as 2L would agree with it
    fld = get_field(spec.p, spec.s, spec.m)
    units, cosets = spec.order - 1, gcd_power(spec.q, spec.m, spec.ell)
    rule = gpaley.forms.classify_logs
    for flipped in (cosets, cosets + 1, units - 1):
        def flipping(q, m, ell, logs):
            low, classes = rule(q, m, ell, logs)
            return low ^ (logs == flipped), classes

        monkeypatch.setattr(gpaley.oracles, "classify_logs", flipping)
        checks = {c.name: c for c in run_suite(spec).checks}
        assert checks["klapper-vs-kernel-counts"].observed == [int(fld.exp[flipped])]
    # the rule with modulus 2L agrees on the logs of the representatives and
    # misses every low-rank gamma with log mod 2L >= L
    L = spec.q ** math.gcd(spec.m, spec.ell) + 1
    assert cosets <= L

    def doubled(q, m, ell, logs):
        low, classes = rule(q, m, ell, logs)
        return low & (logs % (2 * L) < L), classes

    monkeypatch.setattr(gpaley.oracles, "classify_logs", doubled)
    logs = fld.log[1:]
    missed = np.flatnonzero(rule(spec.q, spec.m, spec.ell, logs)[0] & (logs % (2 * L) >= L)) + 1
    checks = {c.name: c for c in run_suite(spec).checks}
    assert len(missed) and checks["klapper-vs-kernel-counts"].observed == missed.tolist()


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)])
def test_klapper_sweep_reads_the_built_trace_map(monkeypatch, spec):
    # Q_gamma reads the log-order trace table at log(gamma x^(q^ell+1)) only,
    # on the coset gamma S; one wrong entry at log y must name exactly the
    # gammas of y's coset
    fld = get_field(spec.p, spec.s, spec.m)
    built = fld.trace_sequence(spec.s)
    for coset in _coset_logs(spec):
        log_y = coset[-1]
        corrupted = built.copy()
        corrupted[log_y] = (built[log_y] + 1) % spec.q
        monkeypatch.setitem(fld._sequence_cache, spec.s, corrupted)
        checks = {c.name: c for c in run_suite(spec).checks}
        assert checks["klapper-vs-kernel-counts"].observed == sorted(
            int(fld.exp[log]) for log in coset
        )
        failed = {name for name, c in checks.items() if not c.passed}
        assert "klapper-vs-kernel-counts" in failed
        assert failed <= {"klapper-vs-kernel-counts", "klapper-low-rank-multiplicity"}
    monkeypatch.undo()
    assert run_suite(spec).ok


def test_crashed_klapper_sweep_leaves_no_multiplicity(monkeypatch):
    def crash(q, m, ell, logs):
        raise RuntimeError("classification crashed")

    monkeypatch.setattr(gpaley.oracles, "classify_logs", crash)
    checks = {c.name: c for c in run_suite(GraphSpec(2, 1, 4, 1)).checks}
    assert checks["klapper-vs-kernel-counts"].observed == "RuntimeError: classification crashed"
    multiplicity = checks["klapper-low-rank-multiplicity"]
    assert multiplicity.observed is None and not multiplicity.passed


def test_arc_witnesses_check_each_scale_once(monkeypatch):
    # Gamma_{2,4}(1) has 80 arcs but 5 scales, one per connection member,
    # mapped in one table; the edge-preservation criterion then maps the
    # scales 1..15 in a second
    calls = []

    def recording(g, a, b, i):
        calls.append((np.asarray(a).tolist(), b, i))
        return apply_affine_frobenius(g, a, b, i)

    monkeypatch.setattr(gpaley.oracles, "apply_affine_frobenius", recording)
    spec = GraphSpec(2, 1, 4, 1)
    assert run_suite(spec).ok
    members = np.flatnonzero(build_graph(spec).connection.members).tolist()
    assert calls == [(members, 0, 0), (list(range(1, 16)), 0, 0)]


def _arc_checks(g):
    """The arc-transitivity checks of run_suite on one graph, by name."""
    suite = gpaley.oracles._Suite(g.spec)
    gpaley.oracles._arc_transitivity_checks(suite, g)
    return {c.name: c for c in suite.report.checks}


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)], ids=GraphSpec.label)
def test_edge_preservation_tries_every_nonzero_scale(monkeypatch, spec):
    # the check passes only if its row-0 answer is the membership of a at
    # every scale a; the exhaustive reference must give the same answer
    tables = []

    def recording(g, a, b, i):
        tables.append(apply_affine_frobenius(g, a, b, i))
        return tables[-1]

    monkeypatch.setattr(gpaley.oracles, "apply_affine_frobenius", recording)
    g = build_graph(spec)
    assert _arc_checks(g)["edge-preservation-criterion"].passed
    perms = list(tables[-1])  # the criterion's one table, a row per scale
    assert [int(perm[1]) for perm in perms] == list(range(1, spec.order))  # x -> a x sends 1 to a
    assert [permutation_preserves_edges(g, perm) for perm in perms] == [
        bool(g.connection.members[a]) for a in range(1, spec.order)
    ]


@pytest.mark.parametrize("corrupt", [_drop_member, _add_non_member])
@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)], ids=GraphSpec.label)
def test_edge_preservation_refuses_a_planted_connection_set(spec, corrupt):
    # a member dropped or a non-member added leaves row 0 no subgroup: some
    # scale a fixes row 0 exactly when it is not a member, and fails the check
    check = _arc_checks(corrupt(build_graph(spec)))["edge-preservation-criterion"]
    assert not check.passed
    assert re.fullmatch(r"scale \d+ violates the membership criterion", check.observed)


def test_edge_preservation_reads_every_scale_of_a_256_vertex_graph(monkeypatch):
    # Gamma_{4,4}(1), at the arc budget: the images of one non-member scale
    # a >= 64 replaced by the identity, which fixes row 0, must break the
    # criterion at scale a
    g = build_graph(GraphSpec(2, 2, 4, 1))
    a = int(np.flatnonzero(~g.connection.members[64:])[0]) + 64

    def identity_at_a(graph, scales, b, i):
        images = apply_affine_frobenius(graph, scales, b, i)
        if images.ndim == 2 and len(images) == graph.n - 1:  # row a - 1 is x -> a x
            images[a - 1] = np.arange(graph.n)
        return images

    monkeypatch.setattr(gpaley.oracles, "apply_affine_frobenius", identity_at_a)
    check = _arc_checks(g)["edge-preservation-criterion"]
    assert not check.passed
    assert check.observed == f"scale {a} violates the membership criterion"


@pytest.mark.parametrize("env, max_order", [(None, None), ("1024", None), (None, 1024)],
                         ids=["None", "1024", "max_order=1024"])
def test_run_suite_lists_size_skips(monkeypatch, env, max_order):
    # 625 vertices: above the tree (512) and arc (256) budgets, within coset
    # (1024); an environment cap above them leaves those cut-offs in place,
    # and so does an explicit max_order, which admits only the graphs, the
    # field and the Waring witnesses
    if env is None:
        monkeypatch.delenv("GPG_MAX_ORDER", raising=False)
    else:
        monkeypatch.setenv("GPG_MAX_ORDER", env)

    def too_large(*args, **kwargs):
        raise AssertionError("exhaustive check ran above its cut-off")

    monkeypatch.setattr(gpaley.oracles, "count_trees_bruteforce", too_large)
    monkeypatch.setattr(gpaley.oracles, "apply_affine_frobenius", too_large)
    report = run_suite(GraphSpec(5, 1, 4, 1), max_order=max_order)
    assert report.ok
    assert report.skipped == [
        ("trees-primal", "tree", 512),
        ("trees-complement", "tree", 512),
        ("arc-transitivity-witnesses", "arc", 256),
        ("edge-preservation-criterion", "arc", 256),
    ]
    names = {c.name for c in report.checks}
    assert not names & {name for name, _, _ in report.skipped}
    assert report.to_json()["skipped"][0] == {"name": "trees-primal", "budget": "tree",
                                              "limit": 512}


def test_run_suite_skips_follow_the_environment(monkeypatch):
    # the graphs are admitted explicitly; GPG_MAX_ORDER lowers every other
    # cut-off
    monkeypatch.setenv("GPG_MAX_ORDER", "8")
    report = run_suite(GraphSpec(2, 1, 4, 1), max_order=16)
    assert report.ok
    assert {(kind, limit) for _, kind, limit in report.skipped} == {
        ("tree", 8), ("coset", 8), ("arc", 8)
    }
    assert len(report.skipped) == 5


def test_run_suite_explicit_cap_admits_a_cold_field(monkeypatch):
    # the explicit cap that admits the graphs admits their field too, with
    # nothing memoized beforehand
    gpaley.field.get_field.cache_clear()
    monkeypatch.setenv("GPG_MAX_ORDER", "8")
    report = run_suite(GraphSpec(2, 1, 4, 1), max_order=16)
    assert report.ok, [c.name for c in report.failures()]
    # one memoized table for F_16 whatever cap admitted it, and the cap
    # applies on every call, memoized or not
    assert gpaley.field._memoized_table.cache_info().currsize == 1
    with pytest.raises(BudgetExceeded):
        get_field(2, 1, 4)
    monkeypatch.delenv("GPG_MAX_ORDER")
    assert get_field(2, 1, 4) is get_field(2, 1, 4, max_order=16)
