"""Independent brute-force verification of every closed form on
materialized graphs: the trust anchor of the package.

Nothing here consults the closed-form spectra module for its own answers;
counting runs on adjacency matrices and exact determinants, and only at the
end are the numbers compared against the formulas. Every graph is a Cayley
graph on the additive group of the field, so row 0 of A, A^2 and A^3
(``CayleyGraph.walk_rows``, exact int64 counts) fixes those powers once
``CayleyGraph.translation_invariant`` has checked A[i, j] = A[0, j - i]
entry by entry; the walk, srg and girth kernels read row 0, require that
check, and sum their products in Python integers. No float enters them.
Tree counts are Laplacian determinants computed modulo the largest primes
p with n p^2 < 2^53 (by ``arith.is_prime``), so that the float64
elimination is exact, and lifted by the Chinese remainder theorem past
twice the Hadamard bound, so that the lift is the determinant itself. A
stack of primes is eliminated at once: the Laplacian, whose entries are
all below the smallest prime, is broadcast into it as float64; each panel
of columns is worked in a contiguous transposed buffer; and the pivots are
multiplied once, at the end. The arc-transitivity checks map all of their
scales at once, with one ``graphs.apply_affine_frobenius`` table per
check.
"""

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .applications import is_ramanujan, verify_waring, waring_number
from .arith import int_to_str, is_prime
from .budgets import budget, require
from .errors import (
    BudgetExceeded,
    DisconnectedComponentsFound,
    InternalCheckError,
    NotApplicable,
    NotStronglyRegular,
    OutOfTheory,
    UnbalancedCounts,
)
from .forms import TraceForm, class_from_counts, classify_logs, exp_sum, kernel_counts
from .graphs import CayleyGraph, GraphSpec, apply_affine_frobenius, build_graph
from .spectra import closed_walks, invariant_bounds, spanning_trees, spectrum, srg_params

# float64 holds every integer of smaller magnitude exactly.
_FLOAT_EXACT = 2**53
# Columns per blocked update of the modular elimination.
_PANEL = 32
# float64 entries in one (primes, n, n) elimination stack (8 MB), and up to
# 1/8 more when a short last stack joins the one before it.
_STACK_ENTRIES = 2**20


# ---------------------------------------------------------------------------
# raw counting kernels
# ---------------------------------------------------------------------------

def _require_invariance(g: CayleyGraph) -> None:
    """Row 0 of A, A^2, A^3 fixes those powers only on a translation
    invariant adjacency; any other raises."""
    if not g.translation_invariant:
        raise InternalCheckError(f"{g.spec.label()}: adjacency is not translation invariant")


def count_srg_params(g: CayleyGraph) -> tuple[int, int, int, int]:
    """(v, k, e, d) by exhaustive common-neighbor counting.

    e is the common count of 0 with its neighbors, d with its non-neighbors
    other than 0; non-constant counts falsify strong regularity and raise.
    Translation invariance then carries row 0 to every pair, and an adjacency
    without it raises InternalCheckError."""
    n, adj, deg = g.n, g.adjacency, g.degrees
    if not (deg == deg[0]).all():
        raise NotStronglyRegular("graph is not regular")
    k = int(deg[0])
    common = g.walk_rows[1]
    others = ~adj[0]
    others[0] = False
    adjacent, non_adjacent = np.unique(common[adj[0]]), np.unique(common[others])
    if len(adjacent) > 1 or len(non_adjacent) > 1:
        raise NotStronglyRegular(
            f"common-neighbor counts not constant: adjacent {adjacent.tolist()}, "
            f"non-adjacent {non_adjacent.tolist()}"
        )
    _require_invariance(g)
    e = int(adjacent[0]) if k else 0
    d = int(non_adjacent[0]) if others.any() else 0
    return (n, k, e, d)


def verify_a2_identity(g: CayleyGraph, params: tuple[int, int, int, int]) -> bool:
    """Check A^2 = (e-d) A + (k-d) I + d J entrywise: on row 0 (entry (0, x)
    of A^2 is the common-neighbor count of 0 and x), and on every other row
    through translation invariance."""
    v, k, e, d = params
    expected = np.where(g.adjacency[0], e, d)
    expected[0] += k - d
    return v == g.n and np.array_equal(g.walk_rows[1], expected) and g.translation_invariant


def count_walks_bruteforce(g: CayleyGraph, r: int) -> int:
    """trace(A^r) for r <= 6. r = 1 is read off the diagonal; above, on a
    translation invariant adjacency every diagonal entry of A^r equals
    A^r[0, 0] = <row 0 of A^a, row 0 of A^b> with a + b = r, summed in
    Python integers."""
    if not 1 <= r <= 6:
        raise ValueError("supported walk lengths are 1..6")
    if r == 1:
        return int(np.count_nonzero(g.adjacency.diagonal()))
    _require_invariance(g)
    a = r // 2  # walk_rows[t - 1] is row 0 of A^t
    left, right = g.walk_rows[a - 1].tolist(), g.walk_rows[r - a - 1].tolist()
    return g.n * sum(x * y for x, y in zip(left, right))


def count_trees_bruteforce(g: CayleyGraph, max_order: int | None = None) -> int:
    """Any cofactor of the Laplacian ``diag(g.degrees) - A``, by the exact
    multi-modular determinant. The only oracle with a budget of its own
    (``tree``, refused by ``budgets.require`` above ``max_order`` or its
    default): the elimination is cubic, once per prime, where the others
    read row 0 in O(N^2)."""
    require("tree", g.n, max_order)
    lap = np.diag(g.degrees.astype(np.int64)) - g.adjacency.astype(np.int64)
    minor = lap[1:, 1:]
    return modular_determinant(minor)


def determinant_primes(n: int, hadamard_sq: int) -> list[int]:
    """The primes that ``modular_determinant`` uses for an n x n matrix whose
    Hadamard bound is sqrt(hadamard_sq): the largest primes p with
    n p^2 < 2^53, found by walking down from isqrt((2^53 - 1) / n) with the
    deterministic Miller-Rabin ``arith.is_prime`` and taken in descending
    order until their product exceeds twice the bound."""
    # p^2 <= (2^53 - 1) / n: the bound on every unreduced entry (see _residues)
    p = math.isqrt((_FLOAT_EXACT - 1) // max(n, 1))
    chosen, product = [], 1
    while product * product <= 4 * hadamard_sq:
        while p > 1 and not is_prime(p):
            p -= 1
        if p < 2:
            raise BudgetExceeded(f"too few word-size primes for a {n}x{n} determinant")
        chosen.append(p)
        product *= p
        p -= 1
    if any(n * p * p >= _FLOAT_EXACT for p in chosen):
        raise InternalCheckError("a prime breaks float64 exactness")
    return chosen


def modular_determinant(mat) -> int:
    """Exact determinant of a square int64 matrix by elimination modulo
    primes and Chinese remaindering.

    With H the Hadamard bound (the product of the row norms, |det| <= H),
    the primes of ``determinant_primes`` multiply to M > 2H, so the
    symmetric residue of det modulo M is det itself: the result is certain,
    not probabilistic. The residues come from ``_residues``, a stack of
    primes at a time; a last stack of at most 1/8 of a stack's primes joins
    the one before it rather than paying a column loop of its own."""
    a = np.asarray(mat, dtype=np.int64)
    n, cols = a.shape
    if n != cols:
        raise ValueError(f"determinant of a non-square {n}x{cols} matrix")
    hadamard_sq = math.prod(sum(x * x for x in row) for row in a.tolist())
    primes = determinant_primes(n, hadamard_sq)
    chunk = max(1, _STACK_ENTRIES // max(n * n, 1))
    stacks = [primes[i : i + chunk] for i in range(0, len(primes), chunk)]
    if len(stacks) > 1 and len(stacks[-1]) <= chunk // 8:
        stacks[-2:] = [stacks[-2] + stacks[-1]]
    value, modulus = 0, 1
    for batch in stacks:
        for r, p in zip(_residues(a, batch), batch):
            value += modulus * ((r - value) * pow(modulus, -1, p) % p)
            modulus *= p
    return value - modulus if 2 * value > modulus else value


def _residues(a: np.ndarray, primes: list[int]) -> list[int]:
    """det(a) modulo each prime, from one float64 (primes, n, n) stack.

    The stack starts as ``a`` itself, broadcast to every prime, when each
    |a_ij| is below the smallest prime (always so for a Laplacian), and as
    the int64 remainders otherwise; either way every initial entry lies in
    (-p, p). Blocked LU over _PANEL columns at a time: each panel's columns
    are copied, transposed, into one contiguous (primes, width, n - k0)
    buffer, so that inside the panel each column is brought up to date with
    one batched product on a contiguous row when it is reached, and only
    then reduced by ``_reduce`` and scaled into multipliers; each pivot row
    is updated on the rows of the stack; after the panel the trailing block
    gets one batched matrix product, reading the multipliers through the
    buffer's transposed view. Every reduced entry lies in [0, p), so each
    entry is an initial value in (-p, p) minus at most n-1 products below
    p^2: every value, and every partial sum in any order, is an integer of
    magnitude below p + (n-1) p^2 <= n p^2 < 2^53, exact in float64, and
    ``_reduce`` reduces it exactly. Each prime pivots on its own: a row is
    swapped, in the buffer and the stack, only in the layer of the prime
    whose pivot is 0, and the swap negates that residue. The pivots are
    kept in a (primes, n) array and multiplied, in Python integers, once at
    the end."""
    n = a.shape[0]
    prime = np.array(primes, dtype=np.float64)[:, None]
    if np.abs(a).max(initial=0) < min(primes):
        m = np.empty((len(primes), n, n))
        m[:] = a
    else:
        m = np.remainder(a, np.array(primes, dtype=np.int64)[:, None, None]).astype(np.float64)
    pivots = np.empty((len(primes), n))
    signs = [1] * len(primes)
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        # panel[:, c, i] is m[:, k0 + i, k0 + c]: column k0 + c as a row
        panel = m[:, k0:, k0:k1].transpose(0, 2, 1).copy()
        for c in range(k1 - k0):
            j = k0 + c
            col = panel[:, c, c:]
            col -= np.matmul(m[:, None, k0:j, j], panel[:, :c, c:])[:, 0]
            _reduce(col, prime)
            pivot = col[:, 0]
            if not pivot.all():
                for t in np.flatnonzero(pivot == 0):
                    below = np.flatnonzero(col[t])
                    if below.size:  # else det = 0 mod this prime: its pivot stays 0
                        r = j + int(below[0])
                        panel[t, :, [c, r - k0]] = panel[t, :, [r - k0, c]]
                        m[t, [j, r]] = m[t, [r, j]]
                        signs[t] = -signs[t]
            pivots[:, j] = pivot
            inverse = [pow(int(v), -1, p) if v else 0 for v, p in zip(pivot.tolist(), primes)]
            row = m[:, j, j + 1 :]
            row -= np.matmul(panel[:, None, :c, c], m[:, k0:j, j + 1 :])[:, 0]
            _reduce(row, prime)
            multipliers = col[:, 1:]
            multipliers *= np.array(inverse, dtype=np.float64)[:, None]
            _reduce(multipliers, prime)
        if k1 < n:
            lower = panel[:, :, k1 - k0 :].transpose(0, 2, 1)
            m[:, k1:, k1:] -= np.matmul(lower, m[:, k0:k1, k1:])
    return [
        sign * math.prod(row) % p
        for row, sign, p in zip(pivots.astype(np.int64).tolist(), signs, primes)
    ]


def _reduce(x: np.ndarray, prime: np.ndarray) -> None:
    """x mod p in place, as x - p floor(x / p), for float64 integers x and
    primes p broadcast against them, with |x| + p <= 2^53. The floor is
    exact: fl(x / p) is within |x / p| 2^-53 < 1/p of x / p; an integer
    quotient is exact, and one that is not lies at least 1/p from the
    nearest integer, so both have the same floor. Then p floor(x / p) lies
    in (x - p, x], and it and the difference are integers of magnitude at
    most 2^53, also exact."""
    quotient = x / prime
    np.floor(quotient, out=quotient)
    quotient *= prime
    x -= quotient


def _reach(g: CayleyGraph, source: int) -> tuple[np.ndarray, int]:
    """The vertices reachable from the source, by breadth-first search, and
    the source's eccentricity among them."""
    visited = np.zeros(g.n, dtype=bool)
    visited[source] = True
    frontier, dist = visited.copy(), 0
    while True:
        nxt = g.adjacency[frontier].any(axis=0) & ~visited
        if not nxt.any():
            return visited, dist
        visited |= nxt
        frontier = nxt
        dist += 1


def bfs_eccentricity(g: CayleyGraph) -> int:
    """Eccentricity of vertex 0 by breadth-first search; equals the
    diameter on vertex-transitive graphs such as these Cayley graphs. Raises
    with the component sizes when the graph is disconnected."""
    visited, dist = _reach(g, 0)
    if not visited.all():
        seen, sizes = np.zeros(g.n, dtype=bool), []
        for start in range(g.n):
            if not seen[start]:
                component = _reach(g, start)[0]
                seen |= component
                sizes.append(int(component.sum()))
        raise DisconnectedComponentsFound(sizes)
    return dist


def girth_bruteforce(g: CayleyGraph) -> int:
    """3 if there is a triangle, else 4 if there is a quadrilateral.

    Diameter-2 graphs with d > 0 never need more; a triangle-free,
    square-free case would raise rather than guess."""
    if count_walks_bruteforce(g, 3) > 0:
        return 3
    k = int(g.degrees[0])
    squares = count_walks_bruteforce(g, 4) - g.n * k * (2 * k - 1)
    if squares > 0:
        return 4
    raise NotApplicable("girth exceeds 4; out of scope for these families")


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    expected: object
    observed: object
    passed: bool
    seconds: float

    def to_json(self) -> dict:
        def _enc(x):
            if isinstance(x, int) and not isinstance(x, bool):
                return int_to_str(x)
            if isinstance(x, (tuple, list)):
                return [_enc(v) for v in x]
            return x

        return {
            "name": self.name,
            "expected": _enc(self.expected),
            "observed": _enc(self.observed),
            "pass": self.passed,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class VerificationReport:
    spec: GraphSpec
    checks: list[CheckResult] = dc_field(default_factory=list)
    # (check name, budget kind, limit) of every check left out for size
    skipped: list[tuple[str, str, int]] = dc_field(default_factory=list)
    # seconds of build_graph for the primal graph and its complement
    build_seconds: tuple[float, float] = (0.0, 0.0)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "label": self.spec.label(),
            "ok": self.ok,
            "build_seconds": [round(t, 6) for t in self.build_seconds],
            "checks": [c.to_json() for c in self.checks],
            "skipped": [
                {"name": name, "budget": kind, "limit": limit}
                for name, kind, limit in self.skipped
            ],
        }


class _Suite:
    def __init__(self, spec: GraphSpec):
        self.report = VerificationReport(spec)

    def run(self, name: str, expect, observe):
        """Record one check. ``expect`` (the closed form) and ``observe``
        (the count) are thunks evaluated here; one that raises fails the
        check, its exception text in place of its value, and the suite goes
        on: a crash is a failing check, not a crash of the suite."""
        t0 = time.perf_counter()
        sides, passed = [], True
        for side in (expect, observe):
            try:
                sides.append(side())
            except Exception as exc:
                sides.append(f"{type(exc).__name__}: {exc}")
                passed = False
        expected, observed = sides
        passed = passed and observed == expected
        self.report.checks.append(
            CheckResult(name, expected, observed, passed, time.perf_counter() - t0)
        )

    def within(self, kind: str, n: int, names: tuple[str, ...]) -> bool:
        """Whether n vertices are within the budget of ``kind``; if not, the
        checks ``names`` are recorded as skipped."""
        limit = budget(kind)
        if n > limit:
            self.report.skipped.extend((name, kind, limit) for name in names)
        return n <= limit


def run_suite(spec: GraphSpec, max_order: int | None = None) -> VerificationReport:
    """Every applicable cross-check of brute force against closed forms for
    one primal family member: parameter counting, the A^2 identity, walk
    counts, tree counts (size permitting), diameter / components, girth,
    traces of A and A^2 against the spectrum's moments, the quadratic-form
    classification of every gamma against kernel counting on one member of
    each coset of S, Waring witnesses, the Ramanujan inequality, the coset
    decomposition of the complement, and arc-transitivity witnesses on small
    graphs. Failures are recorded, never thrown; checks left out for size
    are listed in the report's ``skipped``, and the seconds of the two graph
    builds in its ``build_seconds``."""
    spec = GraphSpec(spec.p, spec.s, spec.m, spec.ell)  # primal view
    spectrum(spec)  # refuses a spec outside the family before any graph is built
    suite = _Suite(spec)
    # build_graph admits the graphs under max_order, so the field and the
    # Waring witnesses, capped by the same value, are admitted too
    t0 = time.perf_counter()
    g = build_graph(spec, max_order=max_order)
    t1 = time.perf_counter()
    gbar = build_graph(spec.complement(), max_order=max_order)
    suite.report.build_seconds = (t1 - t0, time.perf_counter() - t1)

    _structure_checks(suite, g, gbar)
    if not spec.is_degenerate:
        _srg_checks(suite, g, gbar)
    _walk_checks(suite, g, gbar)
    _tree_checks(suite, g, gbar)
    _metric_checks(suite, g, gbar)
    _moment_checks(suite, g, gbar)
    _klapper_checks(suite, g)
    _waring_checks(suite, g, max_order)
    _ramanujan_checks(suite, spec)
    _coset_checks(suite, g, gbar)
    _arc_transitivity_checks(suite, g)
    return suite.report


def _structure_checks(suite, g, gbar):
    suite.run("regular-degree", lambda: True, lambda: bool((g.degrees == g.k).all()))
    suite.run(
        "complement-degree", lambda: True, lambda: bool((gbar.degrees == g.n - 1 - g.k).all())
    )
    suite.run(
        "connection-cardinality", lambda: spectrum(g.spec).k, lambda: int(g.adjacency[0].sum())
    )


def _srg_checks(suite, g, gbar):
    for name, graph in (("primal", g), ("complement", gbar)):
        def params():
            return srg_params(graph.spec).params()

        suite.run(f"srg-counts-{name}", params, lambda: count_srg_params(graph))
        suite.run(f"a2-identity-{name}", lambda: True, lambda: verify_a2_identity(graph, params()))


def _walk_checks(suite, g, gbar):
    for name, graph in (("primal", g), ("complement", gbar)):
        suite.run(
            f"walks-2..6-{name}",
            lambda: tuple(closed_walks(graph.spec, r) for r in range(2, 7)),
            lambda: tuple(count_walks_bruteforce(graph, r) for r in range(2, 7)),
        )


def _tree_checks(suite, g, gbar):
    if not suite.within("tree", g.n, ("trees-primal", "trees-complement")):
        return
    for name, graph in (("primal", g), ("complement", gbar)):
        suite.run(
            f"trees-{name}",
            lambda: spanning_trees(graph.spec),
            lambda: count_trees_bruteforce(graph),
        )


def _metric_checks(suite, g, gbar):
    spec = g.spec
    if spec.is_half:
        root = spec.q ** (spec.m // 2)

        def components():
            try:
                bfs_eccentricity(g)
                return None
            except DisconnectedComponentsFound as exc:
                return (len(exc.sizes), sorted(set(exc.sizes)))

        suite.run("half-case-components", lambda: (root, [root]), components)
        suite.run("diameter-complement", lambda: 2, lambda: bfs_eccentricity(gbar))
    else:
        suite.run("diameter-primal", lambda: 2, lambda: bfs_eccentricity(g))
        suite.run("diameter-complement", lambda: 2, lambda: bfs_eccentricity(gbar))
    if not spec.is_degenerate:
        pairs = [("complement", gbar)]
        if not spec.is_half:
            pairs.insert(0, ("primal", g))
        for name, graph in pairs:
            suite.run(
                f"girth-{name}",
                lambda: invariant_bounds(graph.spec).girth,
                lambda: girth_bruteforce(graph),
            )


def _moment_checks(suite, g, gbar):
    """The closed spectrum's (v, sum lambda, sum lambda^2) against the
    counted order, trace(A) and trace(A^2)."""
    for name, graph in (("primal", g), ("complement", gbar)):
        def moments():
            sp = spectrum(graph.spec)
            return sp.v, sp.moment(1), sp.moment(2)

        suite.run(
            f"spectrum-moments-{name}",
            moments,
            lambda: (graph.n, count_walks_bruteforce(graph, 1), count_walks_bruteforce(graph, 2)),
        )


def _klapper_checks(suite, g):
    """The closed rank/type classification of every nonzero gamma against
    kernel counting. Q_{gamma c^e}(x) = Q_gamma(c x), e = q^ell + 1, so the
    histogram and character sum are constant on each coset of S = <alpha^h>.
    The representative alpha^j of each coset alpha^j S, j < h, goes through
    the kernels of ``gpaley.forms``, which read the k trace values of the
    coset (N - 1 entries in all). ``classify_logs`` classifies every gamma
    with one pass over the log table, and each gamma's closed class and sum
    type * q^(m - rank/2) are held to those counted on its coset, log(gamma)
    mod h, by indexing a per-coset code. A coset whose counts fit no form
    makes each of its gammas a mismatch; the sweep reports the mismatching
    gammas in ascending order."""
    spec, fld = g.spec, g.field
    q, m = spec.q, spec.m
    low_rank = []

    def counted(j):
        """(counted class, character sum) of alpha^j S, or None."""
        form = TraceForm(fld, int(fld.exp[j]), spec.ell)
        try:
            return class_from_counts(q, m, kernel_counts(form)), exp_sum(form)
        except (OutOfTheory, UnbalancedCounts):
            return None

    def sweep():
        logs = fld.log[1:]  # of gamma = 1, ..., N - 1
        low, classes = classify_logs(q, m, spec.ell, logs)
        closed = [(c, c.type_sign * q ** (m - c.rank // 2)) for c in classes]
        per_coset = [counted(j) for j in range((spec.order - 1) // g.k)]
        # per coset: the index in classes of its counted class and sum, and
        # of its class alone; -1 where none fits
        pair = np.array([closed.index(c) if c in closed else -1 for c in per_coset])
        kind = np.array([classes.index(c[0]) if c and c[0] in classes else -1 for c in per_coset])
        coset = logs % len(per_coset)
        low_rank.append(int(np.count_nonzero(low & (kind[coset] == 1))))
        return (np.flatnonzero(pair[coset] != low) + 1).tolist()

    suite.run("klapper-vs-kernel-counts", lambda: [], sweep)
    # the count comes from the sweep above; a crashed sweep leaves None
    suite.run(
        "klapper-low-rank-multiplicity", lambda: g.k, lambda: low_rank[0] if low_rank else None
    )


def _waring_checks(suite, g, max_order):
    spec = g.spec
    if spec.is_half:
        return
    suite.run(
        "waring-witnesses",
        lambda: True,
        lambda: (lambda cert: cert.g == 2 and verify_waring(cert, g.field))(
            waring_number(spec, max_order=max_order)
        ),
    )


def _ramanujan_checks(suite, spec):
    if not spec.is_half:
        suite.run(
            "ramanujan-double-path", lambda: True, lambda: is_ramanujan(spec) in (True, False)
        )
    if not spec.is_degenerate:
        suite.run("ramanujan-complement", lambda: True, lambda: is_ramanujan(spec.complement()))


def _coset_checks(suite, g, gbar):
    """The q^ell cosets alpha^j S, j = 1..q^ell, cover F* minus S exactly
    once, and their union is the complement's connection set: row 0 of its
    translation invariant adjacency, so the cosets partition its edges."""
    spec, fld = g.spec, g.field
    if not suite.within("coset", g.n, ("coset-decomposition",)):
        return

    def decompose():
        # S = <alpha^g> with g = (N-1)/|S|; row j lists the logs of alpha^j S
        k, units = g.connection.cardinality, spec.order - 1
        logs = (units // k) * np.arange(k) + np.arange(1, spec.q**spec.ell + 1)[:, None]
        cover = np.bincount(fld.exp[logs % units].ravel(), minlength=g.n)
        outside = ~g.connection.members
        outside[0] = False
        return (
            np.array_equal(cover, outside),
            np.array_equal(cover > 0, gbar.adjacency[0]) and gbar.translation_invariant,
        )

    suite.run("coset-decomposition", lambda: (True, True), decompose)


def _arc_transitivity_checks(suite, g):
    """Construct, for every arc (v,w), the affine map sending a fixed base
    arc to it, and confirm it is an automorphism; also confirm, for every
    nonzero scale a, that x -> a x preserves edges exactly when a is a
    connection member. Each check maps all of its scales with one
    ``apply_affine_frobenius`` table: the distinct witness scales, then
    1..N-1."""
    if not suite.within("arc", g.n, ("arc-transitivity-witnesses", "edge-preservation-criterion")):
        return
    fld = g.field

    def witness_all_arcs():
        # x -> a x + v with a = (w - v) / s0 sends the arc (0, s0) to (v, w)
        s0 = int(np.flatnonzero(g.connection.members)[0])
        v, w = np.nonzero(g.adjacency)
        scales = fld.mul_array(fld.add_arrays(w, fld.neg_array(v)), fld.inv(s0))
        outside = np.flatnonzero(~g.connection.members[scales])
        if outside.size:
            i = outside[0]
            return f"scale for arc ({v[i]},{w[i]}) not a connection member"
        at_0, at_s0 = (fld.add_arrays(fld.mul_array(scales, x), v) for x in (0, s0))
        if not (np.array_equal(at_0, v) and np.array_equal(at_s0, w)):
            return "witness map misses the target arc"
        # each witness x -> a x + v is a bijection exactly when x -> a x is one
        apply_affine_frobenius(g, np.unique(scales), 0, 0)
        return True

    suite.run("arc-transitivity-witnesses", lambda: True, witness_all_arcs)

    def membership_criterion():
        # x -> a x is additive, so on a translation invariant adjacency
        # A[a i, a j] = A[0, a (j - i)]: it preserves edges exactly when it
        # fixes row 0
        _require_invariance(g)
        row = g.adjacency[0]
        images = apply_affine_frobenius(g, np.arange(1, g.n), 0, 0)  # row a - 1 is x -> a x
        preserves = (row[images] == row).all(axis=1)
        wrong = np.flatnonzero(preserves != g.connection.members[1:])
        if wrong.size:
            return f"scale {wrong[0] + 1} violates the membership criterion"
        return True

    suite.run("edge-preservation-criterion", lambda: True, membership_criterion)
