"""Acceptance suite: one test per numbered criterion, zero tolerance.

Every expected value is an exact integer. Where an acceptance target was
transcribed from the published reference tables, a ``*_published_*`` test
checks the library against the transcription. Some printed entries are
misprints: each breaks an identity that the consistent parts of its own
printed row satisfy. They are pinned in ``PUBLISHED_ERRATA``, which pairs
the printed value with the value those parts force (never a value read off
the library). Each ``*_published_*`` test asserts that

(a) the library, and the oracle where the test calls one, gives the
    corrected value at every recorded erratum;
(b) the printed row agrees with the library at every other entry;
(c) each printed value breaks its stated identity and the corrected value
    satisfies it.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import hashlib
import importlib.util
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest

from gpaley.applications import (
    family_table,
    ihara_zeta,
    is_ramanujan,
    zeta_json,
)
from gpaley.errors import NotStronglyRegular
from gpaley.field import get_field
from gpaley.graphs import (
    GraphSpec,
    build_graph,
    enumerate_family,
    is_subgraph,
    verify_waring,
    waring_witnesses,
)
from gpaley.oracles import (
    count_srg_params,
    count_trees_bruteforce,
    count_walks_bruteforce,
    run_suite,
    verify_a2_identity,
)
from gpaley.spectra import (
    closed_walks,
    intersection_array,
    spanning_trees,
    spectrum,
    srg_params,
)

PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _announce(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ---------------------------------------------------------------------------
# published reference values and their errata
# ---------------------------------------------------------------------------

# q -> (t, complemented) -> (srg tuple, spectrum pairs) of the three
# Ramanujan families, verbatim from the published tables except where marked
TABLES = {
    2: {
        (2, False): ((16, 5, 0, 2), ((5, 1), (1, 10), (-3, 5))),
        (2, True): ((16, 10, 6, 6), ((10, 1), (2, 5), (-2, 10))),
        (3, False): ((64, 21, 8, 6), ((21, 1), (5, 21), (-3, 42))),
        (3, True): ((64, 42, 26, 30), ((42, 1), (2, 42), (-6, 21))),
        (4, False): ((256, 85, 24, 30), ((85, 1), (5, 170), (-11, 85))),
        (4, True): ((256, 170, 114, 110), ((170, 1), (10, 85), (-6, 170))),
    },
    3: {
        (2, False): ((81, 20, 1, 6), ((20, 1), (2, 60), (-7, 20))),
        (2, True): ((81, 60, 45, 42), ((60, 1), (6, 20), (-3, 60))),
        (3, False): ((729, 182, 55, 42), ((182, 1), (20, 182), (-7, 546))),
        (3, True): ((729, 546, 405, 420), ((546, 1), (6, 546), (-21, 182))),
        (4, False): ((6561, 1640, 379, 420), ((1640, 1), (20, 4920), (-61, 1640))),
        # corrected: the published row prints PUBLISHED_F3_T4_COMPLEMENT, whose
        # k = 4921 is pinned in PUBLISHED_ERRATA
        (4, True): ((6561, 4920, 3699, 3660), ((4920, 1), (60, 1640), (-21, 4920))),
    },
    4: {
        (2, False): ((256, 51, 2, 12), ((51, 1), (3, 204), (-13, 51))),
        (2, True): ((256, 204, 164, 156), ((204, 1), (12, 51), (-4, 204))),
        (3, False): ((4096, 819, 194, 156), ((819, 1), (51, 819), (-13, 3276))),
        (3, True): ((4096, 3276, 2612, 2652), ((3276, 1), (12, 3276), (-52, 819))),
        (4, False): ((65536, 13107, 2498, 2652), ((13107, 1), (51, 52428), (-205, 13107))),
        (4, True): ((65536, 52428, 41972, 41820), ((52428, 1), (204, 13107), (-52, 52428))),
    },
}

# the published srg tuple of the F_3, t = 4 complement, verbatim
PUBLISHED_F3_T4_COMPLEMENT = (6561, 4921, 3699, 3660)

# the published four-row table at q^m = 4096, verbatim: (ell, complemented)
# -> (srg tuple, intersection array, eigenvalue set)
WORKED_PUBLISHED = {
    (1, False): ((4096, 1365, 440, 462), (1365, 924, 1, 462), {1365, 21, -43}),
    (3, False): ((4096, 455, 54, 50), (455, 400, 1, 50), {455, 7, -57}),
    (1, True): ((4096, 2730, 1826, 1086), (2730, 903, 1, 1804), {2730, 42, -22}),
    (3, True): ((4096, 3640, 3234, 3240), (3640, 405, 1, 832), {3640, -8, 56}),
}

# spanning trees and closed 3-walks of the complement of Gamma_{2,4}(1)
PUBLISHED_TREES_CLEBSCH_COMPLEMENT = 472392
PUBLISHED_W3_CLEBSCH_COMPLEMENT = 600

# zeta factors (1 - lam u + c u^2)^mult of the 60-regular complement of
# Gamma_{3,4}(1), encoded as by _zeta_shape
ZETA_PUBLISHED_BH_COMPLEMENT = (2349, ((-60, 19, 1), (-6, 19, 20), (3, 19, 60)))


@dataclass(frozen=True)
class Erratum:
    """A misprinted published entry. ``corrected`` is forced by the
    consistent parts of the same printed row; ``holds`` evaluates the stated
    ``identity`` at a candidate value of the entry."""

    printed: int
    corrected: int
    identity: str
    holds: Callable[[int], bool]


def _complement_degree(primal, printed):
    """The complement of the printed primal row has degree v - k - 1; with
    the printed v, e, d it must satisfy (v-k-1)d = k(k-e-1)."""
    v, k_primal = primal[:2]
    _, _, e, d = printed
    return (
        v - k_primal - 1,
        "(v-k-1)d = k(k-e-1)",
        lambda k: (v - k - 1) * d == k * (k - e - 1),
    )


def _forced_by_eigenvalues(params, _array, eigs):
    """The printed degree k and eigenvalues {k, r, s} force e = k + r + s + rs,
    d = k + rs and the intersection array (k, k-e-1, 1, d)."""
    k = params[1]
    r, s = sorted(eigs - {k})
    e, d = k + r + s + r * s, k + r * s
    return {
        "e": (e, "e - d = r + s", lambda x: x - d == r + s),
        "d": (d, "d - k = rs", lambda x: x - k == r * s),
        "b1": (k - e - 1, "b1 = k - e - 1", lambda x: x == k - e - 1),
        "c2": (d, "c2 = d", lambda x: x == d),
    }


def _kirchhoff(pairs):
    """Spanning trees from the printed spectrum: prod_{lam != k} (k - lam)^mult / v."""
    k = pairs[0][0]
    v = sum(mult for _, mult in pairs)
    product = math.prod((k - lam) ** mult for lam, mult in pairs[1:])
    return product // v, "t v = prod (k - lam)^mult", lambda t: t * v == product


def _cubic_moment(params, pairs):
    """w3 = sum mult lam^3 over the printed spectrum; it must be six times the
    v k e / 6 triangles of the printed srg tuple."""
    v, k, e, _ = params
    return sum(mult * lam**3 for lam, mult in pairs), "w3 = v k e", lambda w: w == v * k * e


def _zeta_quad_coeff(shape):
    """Ihara's factors are 1 - lam u + (k-1) u^2, so the one for lam = k
    vanishes at u = 1; k is read off the printed trivial factor."""
    k = -shape[1][0][0]
    return k - 1, "1 - k + c = 0", lambda c: 1 - k + c == 0


_ROW2, _ROW3, _ROW4 = (
    _forced_by_eigenvalues(*WORKED_PUBLISHED[key]) for key in [(3, False), (1, True), (3, True)]
)
_CLEBSCH_COMPLEMENT = TABLES[2][(2, True)]
_ZETA_BH = _zeta_quad_coeff(ZETA_PUBLISHED_BH_COMPLEMENT)

# (spec, entry) -> Erratum(printed, corrected, identity, holds)
PUBLISHED_ERRATA = {
    (GraphSpec(3, 1, 8, 1, True), "k"): Erratum(
        4921, *_complement_degree(TABLES[3][(4, False)][0], PUBLISHED_F3_T4_COMPLEMENT)
    ),
    (GraphSpec(2, 1, 12, 3), "e"): Erratum(54, *_ROW2["e"]),
    (GraphSpec(2, 1, 12, 3), "d"): Erratum(50, *_ROW2["d"]),
    (GraphSpec(2, 1, 12, 3), "b1"): Erratum(400, *_ROW2["b1"]),
    (GraphSpec(2, 1, 12, 3), "c2"): Erratum(50, *_ROW2["c2"]),
    (GraphSpec(2, 1, 12, 1, True), "d"): Erratum(1086, *_ROW3["d"]),
    (GraphSpec(2, 1, 12, 1, True), "c2"): Erratum(1804, *_ROW3["c2"]),
    (GraphSpec(2, 1, 12, 3, True), "e"): Erratum(3234, *_ROW4["e"]),
    (GraphSpec(2, 1, 12, 3, True), "d"): Erratum(3240, *_ROW4["d"]),
    (GraphSpec(2, 1, 12, 3, True), "b1"): Erratum(405, *_ROW4["b1"]),
    (GraphSpec(2, 1, 12, 3, True), "c2"): Erratum(832, *_ROW4["c2"]),
    (GraphSpec(2, 1, 4, 1, True), "trees"): Erratum(
        472392, *_kirchhoff(_CLEBSCH_COMPLEMENT[1])
    ),
    (GraphSpec(2, 1, 4, 1, True), "w3"): Erratum(600, *_cubic_moment(*_CLEBSCH_COMPLEMENT)),
    (GraphSpec(3, 1, 4, 1, True), "u^2[0]"): Erratum(19, *_ZETA_BH),
    (GraphSpec(3, 1, 4, 1, True), "u^2[1]"): Erratum(19, *_ZETA_BH),
    (GraphSpec(3, 1, 4, 1, True), "u^2[2]"): Erratum(19, *_ZETA_BH),
}


def _srg_fields(params):
    return dict(zip(("v", "k", "e", "d"), params))


def _worked_fields(params, array, eigs):
    return {
        **_srg_fields(params),
        **dict(zip(("b0", "b1", "c1", "c2"), array)),
        "eigenvalues": frozenset(eigs),
    }


def _zeta_fields(shape):
    square_exp, factors = shape
    fields = {"square_exp": square_exp}
    for i, coeffs in enumerate(factors):
        fields.update(zip((f"u[{i}]", f"u^2[{i}]", f"exp[{i}]"), coeffs))
    return fields


def _check_published(spec, published, *computed):
    """Check each computed row against the published row of ``spec`` and
    its entries in PUBLISHED_ERRATA; return the pinned entries."""
    errata = {
        entry: err
        for (s, entry), err in PUBLISHED_ERRATA.items()
        if s == spec and entry in published
    }
    for entry, err in errata.items():
        assert published[entry] == err.printed, (spec.label(), entry)
        # (c) the printed value breaks the identity, the corrected one keeps it
        assert err.holds(err.corrected), (spec.label(), entry, err.identity)
        assert not err.holds(err.printed), (spec.label(), entry, err.identity)
    for row in computed:
        # (b) the library departs from the printed row exactly at the errata
        differs = {entry for entry in published if row[entry] != published[entry]}
        assert differs == set(errata), (spec.label(), differs)
        # (a) and gives the corrected value there
        for entry, err in errata.items():
            assert row[entry] == err.corrected, (spec.label(), entry, row[entry])
    return set(errata)


# ---------------------------------------------------------------------------
# 1. table reproduction for the three families
# ---------------------------------------------------------------------------

def test_criterion_1_tables_consistent():
    """18 srg tuples and 18 spectra for q in {2,3,4}, t in {2,3,4}, exact."""
    t0 = time.perf_counter()
    mismatches = []
    for q, table in TABLES.items():
        rows = family_table(q, 4)
        assert len(rows) == 6
        for spec, rec, sp in rows:
            want_params, want_spec = table[(spec.m // 2, spec.complemented)]
            if rec.params() != want_params or sp.pairs != want_spec:
                mismatches.append((spec.label(), rec.params(), want_params))
    elapsed = time.perf_counter() - t0
    _announce("1 (tables, cross-checked)", not mismatches, f"[{elapsed:.3f}s]")
    assert not mismatches
    assert elapsed < 1.0


def test_criterion_1_tables_published_row():
    """The published F_3, t=4 complement row (6561, 4921, 3699, 3660).

    Its degree is an erratum: the complement of the printed primal row
    (6561, 1640, 379, 420) has k = v-k-1 = 4920, and at k = 4921 the printed
    v, e, d break (v-k-1)d = k(k-e-1): 1639*3660 = 5998740, but
    4921*1221 = 6008541."""
    rows = family_table(3, 4)
    spec, rec = next((s, r) for s, r, _ in rows if s.m == 8 and s.complemented)
    pinned = _check_published(
        spec, _srg_fields(PUBLISHED_F3_T4_COMPLEMENT), _srg_fields(rec.params())
    )
    assert pinned == {"k"}
    _announce("1 (published row)", True, f"{len(pinned)} erratum pinned")


# ---------------------------------------------------------------------------
# 2. the four-row worked example at q^m = 4096
# ---------------------------------------------------------------------------

# label -> (srg tuple, intersection array, eigenvalue set), cross-checked
WORKED_CONSISTENT = {
    (1, False): ((4096, 1365, 440, 462), (1365, 924, 1, 462), {1365, 21, -43}),
    (3, False): ((4096, 455, 6, 56), (455, 448, 1, 56), {455, 7, -57}),
    (1, True): ((4096, 2730, 1826, 1806), (2730, 903, 1, 1806), {2730, 42, -22}),
    (3, True): ((4096, 3640, 3240, 3192), (3640, 399, 1, 3192), {3640, -8, 56}),
}

def _worked_rows():
    for (ell, comp) in [(1, False), (3, False), (1, True), (3, True)]:
        spec = GraphSpec(2, 1, 12, ell, comp)
        rec = srg_params(spec)
        eigs = {lam for lam, _ in spectrum(spec).pairs}
        yield (ell, comp), rec.params(), intersection_array(spec), eigs


def test_criterion_2_worked_example_consistent():
    """srg tuples, intersection arrays and eigenvalues of the 4096-vertex
    quadruple, against values that satisfy every defining identity (the
    brute-force confirmation of these same rows happens in criterion 3)."""
    t0 = time.perf_counter()
    bad = []
    for key, params, arr, eigs in _worked_rows():
        want = WORKED_CONSISTENT[key]
        if (params, arr, eigs) != want:
            bad.append((key, params, arr, eigs, want))
    elapsed = time.perf_counter() - t0
    _announce("2 (worked example, cross-checked)", not bad, f"[{elapsed:.3f}s]")
    assert not bad
    assert elapsed < 1.0


def test_criterion_2_worked_example_published_table():
    """The published four-row table at q^m = 4096.

    Row 1 is verbatim. Ten numbers in rows 2-4 are errata: each row's
    printed k and eigenvalues {k, r, s} agree with the library and force
    e = k+r+s+rs, d = k+rs and the array (k, k-e-1, 1, d). The printed
    (e, d) of rows 2 and 4 are worse than wrong: they give the eigenvalue
    equation x^2 - (e-d)x - (k-d) the non-square discriminant 1636, so no
    graph with them has an integral spectrum."""
    pinned = []
    for key, params, arr, eigs in _worked_rows():
        printed = _worked_fields(*WORKED_PUBLISHED[key])
        entries = _check_published(
            GraphSpec(2, 1, 12, *key), printed, _worked_fields(params, arr, eigs)
        )
        if {"e", "d"} <= entries:
            k, e, d = printed["k"], printed["e"], printed["d"]
            disc = (e - d) ** 2 + 4 * (k - d)
            assert math.isqrt(disc) ** 2 != disc, (key, disc)
        pinned.append(len(entries))
    assert pinned == [0, 4, 2, 4]
    _announce("2 (published table)", True, f"{sum(pinned)} errata pinned")


# ---------------------------------------------------------------------------
# 3. oracle equivalence sweep over every materializable family member
# ---------------------------------------------------------------------------

def _sweep_specs(limit=4096):
    for p, s in PRIME_POWERS:
        q = p**s
        m = 2
        while q**m <= limit:
            yield from enumerate_family(p, s, m)
            m += 1


# (2,2,1) is not strongly regular and has a disconnected primal graph: no
# srg, girth, Waring or Ramanujan checks, which expected_check_names omits
_DEGENERATE_CHECK_NAMES = {
    "regular-degree", "complement-degree", "connection-cardinality",
    "walks-2..6-primal", "trees-primal", "half-case-components", "spectrum-moments-primal",
    "walks-2..6-complement", "trees-complement", "diameter-complement",
    "spectrum-moments-complement", "klapper-vs-kernel-counts",
    "klapper-low-rank-multiplicity", "coset-decomposition", "arc-transitivity-witnesses",
    "edge-preservation-criterion",
}


def test_criterion_3_oracle_sweep():
    """run_suite passes every check on every proper spec with q^m <= 4096:
    counted (v,k,e,d) = closed forms, A^2 identity, walks r <= 6, component
    structure, girth, rank/type classification of every gamma against kernel
    counting per coset of S (on its representative alpha^j), Waring
    witnesses, Ramanujan gap, coset decomposition, arc-transitivity. Each
    report names every check once, the names the benchmark expects, and the
    sha256 of every (label, [(check name, passed)], skipped) is pinned."""
    # loaded from its file under its own name, so that bench/checks.py
    # neither shadows nor is shadowed by a module of the tests
    path = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
    module_spec = importlib.util.spec_from_file_location("bench_checks", path)
    bench_checks = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(bench_checks)
    failures, misnamed, outcomes = [], [], []
    total = 0
    for spec in _sweep_specs():
        t0 = time.perf_counter()
        report = run_suite(spec)
        total += 1
        outcomes.append((spec.label(), [(c.name, c.passed) for c in report.checks],
                         report.skipped))
        status = "ok" if report.ok else "FAIL"
        print(f"  sweep {spec.label():20s} {time.perf_counter() - t0:7.2f}s {status}")
        if not report.ok:
            failures.append((spec.label(), [c.name for c in report.failures()]))
        names = [c.name for c in report.checks]
        expected = (
            _DEGENERATE_CHECK_NAMES if spec.is_degenerate
            else bench_checks.expected_check_names(spec.q, spec.m, spec.ell)
        )
        if len(names) != len(set(names)) or set(names) != expected:
            misnamed.append((spec.label(), sorted(names), sorted(expected)))
    _announce("3 (oracle sweep)", not failures and not misnamed, f"{total} specs")
    assert total == 34  # 14 over q=2, 5 each over q in {3,4}, 3 each over {5,7,8}, 1 over 9
    assert not failures, failures
    assert not misnamed, misnamed
    # every label, check name and pass flag, and every skip, in sweep order
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "330590f110b1d1cb36e3c5e73fd1205c68c89eaf3db72e5cc83496921c4ad6ea"


# ---------------------------------------------------------------------------
# 4. spanning trees of the 16-vertex pair
# ---------------------------------------------------------------------------

def test_criterion_4_trees_consistent():
    """Primal count is exactly 2^31 by both the closed form and Kirchhoff's
    product over the counted eigenvalues; complement closed form and counted
    product agree exactly."""
    t0 = time.perf_counter()
    spec = GraphSpec(2, 1, 4, 1)
    g = build_graph(spec)
    gbar = build_graph(spec.complement())
    closed_primal = spanning_trees(spec)
    closed_comp = spanning_trees(spec.complement())
    counted_primal = count_trees_bruteforce(g)
    counted_comp = count_trees_bruteforce(gbar)
    elapsed = time.perf_counter() - t0
    ok = (
        closed_primal == counted_primal == 2**31
        and closed_comp == counted_comp == 2**31 * 3**10
    )
    _announce("4 (trees, both paths)", ok, f"[{elapsed:.3f}s]")
    assert closed_primal == 2147483648 == counted_primal
    assert closed_comp == counted_comp == 126806761930752  # = 2^31 * 3^10
    assert elapsed < 1.0


def test_criterion_4_trees_published_complement_value():
    """The published spanning-tree count 472392 of the complement.

    An erratum: the Kirchhoff product over the printed complement spectrum
    ((10,1),(2,5),(-2,10)) is 8^5 * 12^10 / 16 = 2^31 * 3^10 =
    126806761930752, while 472392 = 2^3 * 3^10. The closed form and the
    Kirchhoff product over the counted eigenvalues both give the corrected
    value."""
    spec = GraphSpec(2, 1, 4, 1, True)
    closed = spanning_trees(spec)
    counted = count_trees_bruteforce(build_graph(spec))
    pinned = _check_published(
        spec, {"trees": PUBLISHED_TREES_CLEBSCH_COMPLEMENT}, {"trees": closed}, {"trees": counted}
    )
    assert pinned == {"trees"}
    _announce("4 (published trees)", True, f"{len(pinned)} erratum pinned")


# ---------------------------------------------------------------------------
# 5. triangles and girth of the 16-vertex pair
# ---------------------------------------------------------------------------

def test_criterion_5_triangles_girth_consistent():
    spec = GraphSpec(2, 1, 4, 1)
    g = build_graph(spec)
    gbar = build_graph(spec.complement())
    w3 = closed_walks(spec, 3)
    w3_brute = count_walks_bruteforce(g, 3)
    w3c = closed_walks(spec.complement(), 3)
    w3c_brute = count_walks_bruteforce(gbar, 3)
    ok = w3 == w3_brute == 0 and w3c == w3c_brute == 960
    _announce("5 (triangles/girth, both paths)", ok)
    assert w3 == w3_brute == 0
    assert w3c == w3c_brute == 960  # 160 triangles
    assert srg_params(spec).girth == 4
    assert srg_params(spec.complement()).girth == 3


def test_criterion_5_published_complement_walks():
    """The published closed 3-walk count 600 of the complement.

    An erratum: sum mult*lam^3 over the printed spectrum is
    1000 + 5*8 + 10*(-8) = 960, which is 6 * v*k*e/6 = 6 * 160 triangles of
    the printed srg(16,10,6,6). The closed form and trace(A^3) both give
    the corrected value."""
    spec = GraphSpec(2, 1, 4, 1, True)
    closed = closed_walks(spec, 3)
    brute = count_walks_bruteforce(build_graph(spec), 3)
    pinned = _check_published(
        spec, {"w3": PUBLISHED_W3_CLEBSCH_COMPLEMENT}, {"w3": closed}, {"w3": brute}
    )
    assert pinned == {"w3"}
    _announce("5 (published walks)", True, f"{len(pinned)} erratum pinned")


# ---------------------------------------------------------------------------
# 6. Waring certification
# ---------------------------------------------------------------------------

def test_criterion_6_waring():
    cases = [
        (GraphSpec(2, 1, 4, 1), 3, 16),
        (GraphSpec(2, 1, 6, 1), 3, 64),
        (GraphSpec(3, 1, 4, 1), 4, 81),
        (GraphSpec(2, 2, 4, 1), 5, 256),
        (GraphSpec(2, 1, 12, 3), 9, 4096),
    ]
    for spec, k_exp, size in cases:
        cert = waring_witnesses(build_graph(spec))
        assert (cert.k_exp, cert.field_size, cert.g) == (k_exp, size, 2)
        assert len(cert.witnesses) == size and cert.witnesses.shape == (size, 2)
        assert verify_waring(cert, get_field(spec.p, spec.s, spec.m))
    complete = waring_witnesses(build_graph(GraphSpec(2, 1, 3, 1)))
    assert complete.g == 1
    assert verify_waring(complete, get_field(2, 1, 3))
    _announce("6 (Waring)", True, "g=2 with witnesses x5, g=1 x1")


# ---------------------------------------------------------------------------
# 7. Ramanujan classification
# ---------------------------------------------------------------------------

def test_criterion_7_ramanujan():
    """Gap inequality == closed classification on every proper spec with
    q <= 9, m <= 12, ell != m/2 (is_ramanujan raises on any split), and
    every complement in range is Ramanujan."""
    positives = 0
    total = 0
    for p, s in PRIME_POWERS:
        for m in range(2, 13):
            for spec in enumerate_family(p, s, m):
                if not spec.is_half:
                    total += 1
                    if is_ramanujan(spec):
                        positives += 1
                        canon = spec.canonical()
                        assert canon.q in (2, 3, 4) and canon.m >= 4
                    else:
                        canon = spec.canonical()
                        assert canon.q not in (2, 3, 4)
                if not (spec.q, spec.m, spec.ell) == (2, 2, 1):
                    assert is_ramanujan(spec.complement()) is True
    _announce("7 (Ramanujan)", True, f"{positives} positive of {total}")
    assert (positives, total) == (17, 56)


# ---------------------------------------------------------------------------
# 8. Ihara zeta factorizations
# ---------------------------------------------------------------------------

def _zeta_shape(spec):
    payload = zeta_json(ihara_zeta(spec))
    # factor (1 - lam u + (k-1) u^2)^mult as its coefficients (-lam, k-1, mult)
    return int(payload["square_exp"]), tuple(
        (int(f["linear_coeff"]), int(f["quad_coeff"]), int(f["exp"]))
        for f in payload["factors"]
    )


ZETA_CONSISTENT = {
    (2, 1, 4, 1, False): (24, ((-5, 4, 1), (-1, 4, 10), (3, 4, 5))),
    (2, 1, 4, 1, True): (64, ((-10, 9, 1), (-2, 9, 5), (2, 9, 10))),
    (3, 1, 4, 1, False): (729, ((-20, 19, 1), (-2, 19, 60), (7, 19, 20))),
    # quadratic coefficient is kbar-1 = 59 for the 60-regular complement
    (3, 1, 4, 1, True): (2349, ((-60, 59, 1), (-6, 59, 20), (3, 59, 60))),
}

def test_criterion_8_zeta_consistent():
    for key, want in ZETA_CONSISTENT.items():
        spec = GraphSpec(*key)
        assert _zeta_shape(spec) == want, spec.label()
    # the four square-factor exponents: 24, 64, 729, 2349
    exps = [_zeta_shape(GraphSpec(*k))[0] for k in ZETA_CONSISTENT]
    assert exps == [24, 64, 729, 2349]
    _announce("8 (zeta, cross-checked)", True)


def test_criterion_8_zeta_published_coefficients():
    """The published zeta factorization of the 60-regular complement.

    Its three quadratic coefficients 19 are errata. By Ihara's theorem each
    factor is 1 - lam u + (k-1) u^2, and the one for lam = k must vanish at
    u = 1: 1 - 60 + 59 = 0, whereas 1 - 60 + 19 = -40. The 19 is k-1 of the
    20-regular primal graph on the line above it."""
    spec = GraphSpec(3, 1, 4, 1, True)
    pinned = _check_published(
        spec, _zeta_fields(ZETA_PUBLISHED_BH_COMPLEMENT), _zeta_fields(_zeta_shape(spec))
    )
    assert pinned == {"u^2[0]", "u^2[1]", "u^2[2]"}
    _announce("8 (published zeta)", True, f"{len(pinned)} errata pinned")


# ---------------------------------------------------------------------------
# 9. property suites and falsification controls
# ---------------------------------------------------------------------------

def test_criterion_9_property_suites():
    checked = 0
    for p, s in PRIME_POWERS:
        for m in range(2, 17):
            fam = enumerate_family(p, s, m)
            for spec in fam:
                for sp_ in (spec, spec.complement()):
                    sp = spectrum(sp_)
                    assert sp.v == sp_.order
                    assert sp.moment(1) == 0
                    assert sp.moment(2) == sp_.order * sp.k
                    if (sp_.q, sp_.m, sp_.ell, sp_.complemented) != (2, 2, 1, False):
                        rec = srg_params(sp_)
                        assert (rec.v - rec.k - 1) * rec.d == rec.k * (rec.k - rec.e - 1)
                checked += 1
            for a in fam:
                for b in fam:
                    if a != b and is_subgraph(a, b):
                        ka, kb = spectrum(a).k, spectrum(b).k
                        assert kb % ka == 0
                        assert closed_walks(b, 2) % closed_walks(a, 2) == 0
    assert checked > 50
    _announce("9 (properties)", True, f"{checked} family members")


def test_criterion_9_falsification_controls():
    import numpy as np

    from reference import with_members

    # one connection member dropped: the 4-cube, not strongly regular
    g = build_graph(GraphSpec(2, 1, 4, 1))
    members = g.row0.copy()
    members[np.flatnonzero(members)[0]] = False
    corrupted = with_members(g, members)
    with pytest.raises(NotStronglyRegular):
        count_srg_params(corrupted)
    assert not verify_a2_identity(corrupted, (16, 5, 0, 2))
    assert not verify_a2_identity(g, (16, 5, 0, 3))
    cert = waring_witnesses(g)
    bad = cert.witnesses.copy()
    x, y = bad[1]  # the first nonzero element, 1 = 1^3
    bad[1] = (x, (y + 3) % 16 or 2)
    assert not verify_waring(cert.replace(witnesses=bad), g.field)
    assert count_trees_bruteforce(corrupted) != spanning_trees(GraphSpec(2, 1, 4, 1))
    _announce("9 (falsification controls)", True)
