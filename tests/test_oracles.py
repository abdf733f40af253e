import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gpaley.field
import gpaley.forms
import gpaley.graphs
import gpaley.oracles
import gpaley.spectra
from gpaley.applications import verify_waring, waring_number
from gpaley.arith import gcd_power
from gpaley.errors import (
    BudgetExceeded,
    DisconnectedComponentsFound,
    InternalCheckError,
    NotInFamily,
    NotStronglyRegular,
)
from gpaley.field import get_field
from gpaley.graphs import GraphSpec, apply_affine_frobenius, build_graph
from gpaley.oracles import (
    bfs_eccentricity,
    count_srg_params,
    count_trees_bruteforce,
    count_walks_bruteforce,
    determinant_primes,
    girth_bruteforce,
    modular_determinant,
    run_suite,
    verify_a2_identity,
)
from gpaley.spectra import closed_walks, spanning_trees
from reference import (
    bareiss_determinant,
    digit_add,
    permutation_preserves_edges,
    translation_invariant,
)


def _two_switch(g, rows=None):
    """A copy of g with edges (a, b), (c, d) switched to (a, d), (c, b), all
    four vertices non-neighbors of 0 (and inside ``rows``, a range, if
    given): every degree and row 0 of A^2 stay as they were, so only the
    translation check can tell."""
    adj = g.adjacency.copy()
    outside = [int(v) for v in np.flatnonzero(~adj[0])[1:] if rows is None or v in rows]
    for a, b, c, d in itertools.permutations(outside, 4):
        if adj[a, b] and adj[c, d] and not (adj[a, d] or adj[c, b]):
            adj[[a, b, c, d], [b, a, d, c]] = False
            adj[[a, d, c, b], [d, a, b, c]] = True
            return dataclasses.replace(g, adjacency=adj)
    raise AssertionError("no 2-switch among the non-neighbors of 0")


def _flip_edge(g):
    """A copy of g with one edge removed (both directions)."""
    adj = g.adjacency.copy()
    i, j = map(int, np.argwhere(adj)[0])
    adj[i, j] = adj[j, i] = False
    return dataclasses.replace(g, adjacency=adj)


# ---------------------------------------------------------------------------
# individual oracles
# ---------------------------------------------------------------------------

def test_count_srg_params_examples():
    assert count_srg_params(build_graph(GraphSpec(2, 1, 4, 1))) == (16, 5, 0, 2)
    assert count_srg_params(build_graph(GraphSpec(3, 1, 4, 1))) == (81, 20, 1, 6)
    assert count_srg_params(build_graph(GraphSpec(2, 1, 4, 2))) == (16, 3, 2, 0)


def test_count_srg_rejects_non_srg():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    with pytest.raises(NotStronglyRegular):
        count_srg_params(_flip_edge(g))
    # regular, but with common-neighbor counts 1 and 0 over non-adjacent pairs
    cycle = np.roll(np.eye(16, dtype=bool), 1, axis=1)
    with pytest.raises(NotStronglyRegular, match="not constant"):
        count_srg_params(dataclasses.replace(g, adjacency=cycle | cycle.T))


def test_count_srg_sees_a_replaced_adjacency():
    # the walk rows are cached per graph object: a one-edge-dropped copy made
    # after the cache was filled must be counted afresh
    g = build_graph(GraphSpec(2, 1, 4, 1))
    assert count_srg_params(g) == (16, 5, 0, 2)
    with pytest.raises(NotStronglyRegular):
        count_srg_params(_flip_edge(g))


def test_a2_identity():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    assert verify_a2_identity(g, (16, 5, 0, 2))
    assert not verify_a2_identity(g, (16, 5, 0, 3))  # perturbed d
    gbar = build_graph(GraphSpec(3, 1, 4, 1, True))
    assert verify_a2_identity(gbar, (81, 60, 45, 42))
    assert not verify_a2_identity(_flip_edge(gbar), (81, 60, 45, 42))


def test_walk_counts():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    gbar = build_graph(GraphSpec(2, 1, 4, 1, True))
    assert count_walks_bruteforce(g, 3) == 0
    assert count_walks_bruteforce(gbar, 3) == 960
    g81 = build_graph(GraphSpec(3, 1, 4, 1))
    assert count_walks_bruteforce(g81, 2) == 81 * 20
    for r in range(2, 7):
        assert count_walks_bruteforce(g, r) == closed_walks(GraphSpec(2, 1, 4, 1), r)
        assert count_walks_bruteforce(gbar, r) == closed_walks(GraphSpec(2, 1, 4, 1, True), r)


def test_walk_counts_detect_corruption():
    # a removed edge breaks translation invariance: the count is refused
    g = build_graph(GraphSpec(2, 1, 4, 1, True))
    with pytest.raises(InternalCheckError):
        count_walks_bruteforce(_flip_edge(g), 2)


_SWITCHED = [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)]


@pytest.mark.parametrize("spec", _SWITCHED)
def test_kernels_refuse_a_switched_adjacency(spec):
    g = build_graph(spec)
    switched = _two_switch(g)
    assert (switched.adjacency.sum(axis=1) == g.k).all()
    assert np.array_equal(switched.walk_rows[1], g.walk_rows[1])
    assert not switched.translation_invariant
    assert not translation_invariant(switched.adjacency, spec.p, g.field.n)
    with pytest.raises(InternalCheckError):
        count_srg_params(switched)
    for r in range(2, 7):
        with pytest.raises(InternalCheckError):
            count_walks_bruteforce(switched, r)
    with pytest.raises(InternalCheckError):
        girth_bruteforce(switched)
    assert not verify_a2_identity(switched, count_srg_params(g))


# Gamma_{4,4}(1) has s = 2 and Gamma_{2,10}(5) is the half case
@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1),
                                  GraphSpec(7, 1, 4, 2), GraphSpec(5, 1, 4, 1),
                                  GraphSpec(2, 2, 4, 1), GraphSpec(2, 1, 10, 5)])
@pytest.mark.parametrize("complemented", [False, True])
def test_translation_check_matches_the_entrywise_reference(spec, complemented):
    g = build_graph(dataclasses.replace(spec, complemented=complemented))
    assert g.translation_invariant
    assert translation_invariant(g.adjacency, spec.p, g.field.n)


_LEVELS = [GraphSpec(2, 1, 12, 1), GraphSpec(3, 1, 6, 1), GraphSpec(7, 1, 4, 2)]


@pytest.mark.parametrize("spec", _LEVELS, ids=lambda spec: spec.label())
def test_translation_check_refuses_one_flipped_entry(spec):
    # row p^t is compared at the digit of weight p^t, and row N - 1 at the
    # top digit, in the last row block there; column 1 and column N - 1
    # have that digit 0 and p - 1 (for t > 0), so both halves of the rotated
    # comparison are read
    g = build_graph(spec)
    p, n = g.field.p, g.field.n
    for i in [p**t for t in range(n)] + [g.n - 1]:
        for j in (1, g.n - 1):
            adj = g.adjacency.copy()
            adj[i, j] = not adj[i, j]
            assert not dataclasses.replace(g, adjacency=adj).translation_invariant, (i, j)
            if j == 1:
                assert not translation_invariant(adj, p, n), (i, j)


@pytest.mark.parametrize("spec", _LEVELS, ids=lambda spec: spec.label())
def test_translation_check_reaches_every_digit_level(spec):
    # a single flipped row also differs from the rows it is the source of,
    # so it can be seen at more than one digit. Flipping A[i, i + x] on every
    # row i with digit t nonzero and i mod p^t in the last row block below
    # p^t is the same flip on both sides of every comparison but those at
    # digit t, in that block: only they can see it. Digit t of x, 0 or p - 1,
    # puts the flipped column in one half of the rotated comparison or the
    # other
    g = build_graph(spec)
    p, n = g.field.p, g.field.n
    idx = np.arange(g.n)
    for t in range(n):
        last = (p**t - 1) // gpaley.graphs._ROW_BLOCK * gpaley.graphs._ROW_BLOCK
        rows = idx[(idx // p**t % p != 0) & (idx % p**t >= last)]
        for x in (0, (p - 1) * p**t):
            adj = g.adjacency.copy()
            cols = digit_add(rows, x, p, n)
            adj[rows, cols] = ~adj[rows, cols]
            assert not dataclasses.replace(g, adjacency=adj).translation_invariant, (t, x)
            if x:
                assert not translation_invariant(adj, p, n), (t, x)


@pytest.mark.parametrize(
    "spec, rows",
    [
        (GraphSpec(7, 1, 4, 2), range(2304, 2401)),  # the last 97 rows
        (GraphSpec(2, 1, 12, 1), range(2048, 2304)),  # a block in the middle
    ],
)
def test_translation_check_reads_every_row_block(spec, rows):
    g = build_graph(spec)
    switched = _two_switch(g, rows)
    changed = np.flatnonzero((switched.adjacency != g.adjacency).any(axis=1))
    assert len(changed) == 4 and set(changed.tolist()) <= set(rows)
    assert not switched.translation_invariant


@pytest.mark.parametrize("spec", _SWITCHED)
def test_run_suite_fails_a_switched_adjacency(monkeypatch, spec):
    def switched(spec, *args, **kwargs):
        g = build_graph(spec, *args, **kwargs)
        return g if spec.complemented else _two_switch(g)

    monkeypatch.setattr(gpaley.oracles, "build_graph", switched)
    failed = {c.name for c in run_suite(spec).failures()}
    assert {"srg-counts-primal", "a2-identity-primal", "walks-2..6-primal",
            "girth-primal"} <= failed
    assert "srg-counts-complement" not in failed


def test_coset_decomposition_needs_an_invariant_complement(monkeypatch):
    def switched(spec, *args, **kwargs):
        g = build_graph(spec, *args, **kwargs)
        return _two_switch(g) if spec.complemented else g

    monkeypatch.setattr(gpaley.oracles, "build_graph", switched)
    checks = {c.name: c for c in run_suite(GraphSpec(3, 1, 4, 1)).checks}
    assert checks["coset-decomposition"].observed == (True, False)
    assert checks["srg-counts-primal"].passed


@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1),
                                  GraphSpec(2, 2, 4, 1)])
@pytest.mark.parametrize("complemented", [False, True])
def test_walk_rows_match_the_dense_powers(spec, complemented):
    g = build_graph(dataclasses.replace(spec, complemented=complemented))
    a = g.adjacency.astype(np.int64)
    square = a @ a
    assert g.translation_invariant
    for row, power in zip(g.walk_rows, (a, square, square @ a)):
        assert row.dtype == np.int64
        assert np.array_equal(row, power[0])


def test_tree_counts():
    g = build_graph(GraphSpec(2, 1, 4, 1))
    gbar = build_graph(GraphSpec(2, 1, 4, 1, True))
    assert count_trees_bruteforce(g) == 2**31
    assert count_trees_bruteforce(gbar) == 2**31 * 3**10
    assert count_trees_bruteforce(build_graph(GraphSpec(2, 1, 4, 2))) == 0
    assert count_trees_bruteforce(gbar) == spanning_trees(GraphSpec(2, 1, 4, 1, True))
    assert count_trees_bruteforce(_flip_edge(gbar)) != 2**31 * 3**10


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


@st.composite
def _integer_matrices(draw):
    n = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    mat = np.array(rows, dtype=np.int64).reshape(n, n)
    if n >= 2 and draw(st.booleans()):
        # singular: a row equal to a combination of two others
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        mat[i] = mat[j] - draw(st.integers(-3, 3)) * mat[k]
    return mat


@given(_integer_matrices())
def test_modular_determinant_matches_bareiss(mat):
    assert modular_determinant(mat) == bareiss_determinant(mat)


def _primes_for(mat):
    mat = np.asarray(mat)
    return determinant_primes(len(mat), math.prod(int(r @ r) for r in mat))


def test_modular_determinant_multiple_of_the_first_prime():
    # the first prime depends on the order n through n p^2 < 2^53
    two, three = determinant_primes(2, 1)[0], determinant_primes(3, 1)[0]
    for mat, first in (
        ([[two, 0], [0, 3]], two),  # the first column is 0 modulo the first prime
        ([[two + 1, 1], [1, 1]], two),  # the last pivot is 0 modulo the first prime
        ([[2, 1, 0], [1, 1, 1], [0, 1, three + 2]], three),  # det = first
    ):
        assert _primes_for(mat)[0] == first
        assert modular_determinant(mat) == bareiss_determinant(mat)
        assert modular_determinant(mat) % first == 0


def test_modular_determinant_swaps_for_one_prime_only():
    # the first pivot is 0 modulo the first prime only, so that layer alone
    # swaps rows 0 and 1; the same swap in the second layer would bring up a
    # pivot that is 0 there
    first, second = determinant_primes(3, 2**100)[:2]
    mat = np.array([[first, 1, 2], [second, 1, 0], [3, 0, 5]])
    det = 5 * first - 5 * second - 6
    assert _primes_for(mat)[:2] == [first, second]
    assert gpaley.oracles._residues(mat, [first, second]) == [det % first, det % second]
    assert modular_determinant(mat) == bareiss_determinant(mat) == det


def test_modular_determinant_at_the_hadamard_bound():
    # the 16 x 16 Sylvester-Hadamard matrix: |det| = 16^8 = 2^32 is exactly
    # the Hadamard bound, the extreme that the lift past twice it must cover
    h = np.array([[1]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    assert modular_determinant(h) == bareiss_determinant(h)
    assert abs(modular_determinant(h)) == 2**32
    negated = h.copy()
    negated[5] *= -1
    assert modular_determinant(negated) == -modular_determinant(h)
    assert modular_determinant(h[[1, 0] + list(range(2, 16))]) == -modular_determinant(h)


def test_modular_determinant_known_values():
    assert modular_determinant(np.zeros((0, 0), dtype=np.int64)) == 1
    assert modular_determinant(np.zeros((3, 3), dtype=np.int64)) == 0
    assert modular_determinant([[-7]]) == -7
    n = 40  # Cayley: K_n has n^(n-2) spanning trees
    lap = n * np.eye(n, dtype=np.int64) - 1
    assert modular_determinant(lap[1:, 1:]) == n ** (n - 2)
    # det(L U) = prod diag(U), with a Hadamard bound far above it, so the
    # primes fill several (primes, n, n) stacks
    rng = np.random.default_rng(7)
    n = 128
    lower = np.tril(rng.integers(-3, 4, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(-2**20, 2**20, (n, n)), 1) + np.diag(rng.integers(1, 2**20, n))
    mat = lower @ upper
    assert len(_primes_for(mat)) > gpaley.oracles._STACK_ENTRIES // n**2
    assert modular_determinant(mat) == np.prod([int(x) for x in np.diag(upper)], dtype=object)
    with pytest.raises(ValueError):
        modular_determinant(np.ones((2, 3), dtype=np.int64))


@pytest.mark.parametrize("n", [1, 255, 2047, 2048, 2049, 4096, 10**5])
def test_determinant_primes_keep_float64_exact(n):
    primes = determinant_primes(n, 2**400)
    assert all(n * p * p < 2**53 for p in primes)
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == len(primes)
    # the product passes twice the Hadamard bound 2^200, and only just
    assert math.prod(primes) ** 2 > 4 * 2**400 >= math.prod(primes[:-1]) ** 2
    # the bound alone caps the primes: the first is at most the largest p
    # with n p^2 < 2^53 and, by Bertrand's postulate, more than half of it
    bound = math.isqrt((2**53 - 1) // n)
    assert bound // 2 < primes[0] <= bound


def _trial_prime(x):
    return x > 1 and all(x % d for d in range(2, math.isqrt(x) + 1))


@pytest.mark.parametrize("n", [1, 255, 2047, 2049])
def test_determinant_primes_are_the_largest_the_bound_admits(n):
    # the first prime is the largest p <= isqrt((2^53 - 1) / n), and no
    # prime is skipped between two chosen ones; both by trial division
    primes = determinant_primes(n, 2**400)
    bound = math.isqrt((2**53 - 1) // n)
    assert all(map(_trial_prime, primes))
    assert not any(_trial_prime(x) for x in range(primes[0] + 1, bound + 1))
    for upper, lower in zip(primes, primes[1:]):
        assert not any(_trial_prime(x) for x in range(lower + 1, upper))


def test_modular_determinant_above_2048_rows():
    # a row swap of the identity: one prime, with n p^2 < 2^53 for n = 2049
    n = 2049
    perm = np.eye(n, dtype=np.int64)[[1, 0] + list(range(2, n))]
    (p,) = _primes_for(perm)
    assert n * p * p < 2**53 <= n * determinant_primes(2047, 1)[0] ** 2
    assert modular_determinant(perm) == -1


def test_residues_reduce_exactly_just_below_2_to_the_53(monkeypatch):
    # L U with L unit lower triangular and U upper triangular, both -1 off
    # the diagonal: every multiplier and every entry of U is p - 1 mod p, so
    # the unreduced entries sum to about (n - 1)(p - 1)^2, just below 2^53
    # for the largest prime admitted at n = 2049; det(L U) = prod diag(U)
    n = 2049
    (p,) = determinant_primes(n, 1)
    lower = np.tril(np.full((n, n), -1, dtype=np.int64), -1) + np.eye(n, dtype=np.int64)
    diag = np.arange(n, dtype=np.int64) % 5 + 1
    upper = np.triu(np.full((n, n), -1, dtype=np.int64), 1) + np.diag(diag)
    reduce, largest = gpaley.oracles._reduce, []

    def checked(x, prime):
        # every reduction against the int64 remainder of the same integers
        exact = x.astype(np.int64) % prime.astype(np.int64)
        largest.append(np.abs(x).max(initial=0))
        reduce(x, prime)
        assert np.array_equal(x, exact)

    monkeypatch.setattr(gpaley.oracles, "_reduce", checked)
    # entries of L U are below n, so the float64 product is exact
    mat = (lower.astype(np.float64) @ upper.astype(np.float64)).astype(np.int64)
    assert gpaley.oracles._residues(mat, [p]) == [math.prod(diag.tolist()) % p]
    assert (n - 2) * (p - 1) ** 2 < max(largest) < 2**53


@pytest.mark.parametrize("n", [33, 64, 70, 97])
def test_residues_swap_zero_pivots_in_every_panel(n):
    # modulo primes this small most columns meet a zero pivot in some layer,
    # in every panel of 32 columns and at every offset inside it
    primes = [2, 3, 5, 7, 11, 13]
    mat = np.random.default_rng(n).integers(-3, 4, (n, n))
    det = bareiss_determinant(mat)
    assert gpaley.oracles._residues(mat, primes) == [det % p for p in primes]
    mat[-1] = mat[3] - 2 * mat[n // 2]  # singular: every layer ends on a zero pivot
    assert gpaley.oracles._residues(mat, primes) == [0] * len(primes)


def _tree_minor(spec):
    g = build_graph(spec)
    lap = np.diag(g.degrees.astype(np.int64)) - g.adjacency.astype(np.int64)
    return lap[1:, 1:]


def test_residues_keep_the_layers_of_a_stack_independent():
    minor = _tree_minor(GraphSpec(2, 2, 4, 1))
    primes = _primes_for(minor)[:16]
    assert gpaley.oracles._residues(minor, primes) == [
        gpaley.oracles._residues(minor, [p])[0] for p in primes
    ]


@pytest.mark.parametrize("corner", [0, 2**53 + 1])
def test_residues_reduce_entries_at_or_above_the_smallest_prime(corner):
    # entries of magnitude p_min + 1 (and one that float64 cannot hold) are
    # reduced in int64 before the float64 stack is built; reducing them
    # first, one prime at a time, must agree
    primes = determinant_primes(6, 2**400)[:4]
    signs = np.random.default_rng(3).choice([-1, 1], (6, 6))
    mat = signs * (min(primes) + 1)
    mat[np.diag_indices(6)] += np.arange(6)  # a nonzero determinant
    mat[0, 0] += corner
    det = bareiss_determinant(mat)
    assert det != 0
    assert gpaley.oracles._residues(mat, primes) == [det % p for p in primes]
    assert [gpaley.oracles._residues(mat % p, [p])[0] for p in primes] == [det % p for p in primes]


def test_modular_determinant_folds_a_short_last_stack_into_the_one_before(monkeypatch):
    # Gamma_{4,4}(1): 65 primes for its 255 x 255 minor, 16 to a stack; the
    # 65th joins the fourth stack rather than running alone
    minor = _tree_minor(GraphSpec(2, 2, 4, 1))
    residues, sizes = gpaley.oracles._residues, []

    def recorded(a, primes):
        sizes.append(len(primes))
        return residues(a, primes)

    monkeypatch.setattr(gpaley.oracles, "_residues", recorded)
    assert modular_determinant(minor) == spanning_trees(GraphSpec(2, 2, 4, 1))
    assert sizes == [16, 16, 16, 17]


def test_bfs_diameter():
    assert bfs_eccentricity(build_graph(GraphSpec(2, 1, 4, 1))) == 2
    assert bfs_eccentricity(build_graph(GraphSpec(2, 1, 3, 1))) == 1  # complete graph
    with pytest.raises(DisconnectedComponentsFound) as exc:
        bfs_eccentricity(build_graph(GraphSpec(2, 1, 4, 2)))
    assert sorted(exc.value.sizes) == [4, 4, 4, 4]


def test_girth():
    assert girth_bruteforce(build_graph(GraphSpec(2, 1, 4, 1))) == 4
    assert girth_bruteforce(build_graph(GraphSpec(2, 1, 4, 1, True))) == 3
    assert girth_bruteforce(build_graph(GraphSpec(3, 1, 4, 1))) == 3


def test_waring_witness_falsification():
    cert = waring_number(GraphSpec(2, 1, 4, 1))
    bad = dict(cert.witnesses)
    some = next(a for a in bad if a != 0)
    x, y = bad[some]
    bad[some] = (x, (y + 1) % 16 or 1)
    corrupted = dataclasses.replace(cert, witnesses=bad)
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


def test_suite_records_failures_without_raising():
    # a kernel that raises, a closed form that raises and a kernel that
    # returns a wrong value all become failed results, and the suite goes on
    # to the next check
    g = build_graph(GraphSpec(2, 1, 4, 1))
    suite = gpaley.oracles._Suite(g.spec)
    suite.run("trees-capped", lambda: 2**31, lambda: count_trees_bruteforce(g, max_order=8))
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
        "srg-counts-primal", "a2-identity-primal", "srg-counts-complement",
        "a2-identity-complement", "girth-primal", "girth-complement",
    ]
    assert all(c.expected.startswith("InternalCheckError: ")
               for c in report.failures() if c.name.startswith("srg-counts"))


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
    g = build_graph(GraphSpec(2, 1, 4, 1, True))
    assert (g.degrees == 10).all() and count_trees_bruteforce(g) == 2**31 * 3**10
    flipped = _flip_edge(g)
    assert flipped.degrees.tolist().count(9) == 2 and flipped.degrees.sum() == 16 * 10 - 2
    assert (g.degrees == 10).all()
    assert count_trees_bruteforce(flipped) != 2**31 * 3**10


def test_run_suite_checks_reach_the_kernels(monkeypatch):
    # a primal graph with one edge dropped must fail every dense check on it
    def corrupted(spec, *args, **kwargs):
        g = build_graph(spec, *args, **kwargs)
        return g if spec.complemented else _flip_edge(g)

    monkeypatch.setattr(gpaley.oracles, "build_graph", corrupted)
    report = run_suite(GraphSpec(2, 1, 4, 1))
    failed = {c.name for c in report.failures()}
    assert {"srg-counts-primal", "a2-identity-primal", "walks-2..6-primal",
            "trees-primal", "spectrum-moments-primal"} <= failed
    assert "srg-counts-complement" not in failed


def _moved_count(form):
    counts = gpaley.forms.kernel_counts(form)
    counts[0] -= 1
    counts[1] += 1
    return counts


_CORRUPTED_FORM_KERNELS = {
    "kernel_counts": _moved_count,
    "exp_sum": lambda form, a=1: -gpaley.forms.exp_sum(form, a),
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
    # Q_gamma reads the trace map at gamma x^(q^ell+1) only, on the coset
    # gamma S; one wrong entry at y must name exactly the gammas of y's coset
    fld = get_field(spec.p, spec.s, spec.m)
    built = fld.trace_map(spec.s)
    values = fld.subfield_indices(spec.s).tolist()
    for coset in _coset_logs(spec):
        y = int(fld.exp[coset[-1]])
        corrupted = built.copy()
        corrupted[y] = next(v for v in values if v != built[y])
        monkeypatch.setitem(fld._trace_cache, spec.s, corrupted)
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


@pytest.mark.parametrize("corrupt", [_flip_edge, _two_switch])
@pytest.mark.parametrize("spec", [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1)], ids=GraphSpec.label)
def test_edge_preservation_refuses_a_graph_without_translation_invariance(spec, corrupt):
    # the row-0 test is sound only on a translation invariant adjacency: a
    # dropped edge, or a 2-switch that leaves row 0 as it was, must fail it
    check = _arc_checks(corrupt(build_graph(spec)))["edge-preservation-criterion"]
    assert not check.passed
    assert check.observed.startswith("InternalCheckError")


def test_edge_preservation_reads_every_scale_of_a_256_vertex_graph():
    # Gamma_{4,4}(1), at the arc budget: one non-member a >= 64 marked as a
    # member must break the criterion at scale a
    g = build_graph(GraphSpec(2, 2, 4, 1))
    a = int(np.flatnonzero(~g.connection.members[64:])[0]) + 64
    members = g.connection.members.copy()
    members[a] = True
    forged = dataclasses.replace(g, connection=dataclasses.replace(g.connection, members=members))
    check = _arc_checks(forged)["edge-preservation-criterion"]
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
    assert gpaley.field._memoized_field.cache_info().currsize == 1
    with pytest.raises(BudgetExceeded):
        get_field(2, 1, 4)
    monkeypatch.delenv("GPG_MAX_ORDER")
    assert get_field(2, 1, 4) is get_field(2, 1, 4, max_order=16)
