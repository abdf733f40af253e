"""Independent brute-force verification of every closed form on
materialized graphs: the trust anchor of the package.

Nothing here consults the closed-form spectra module for its own answers;
counting runs on the graphs, and only at the end are the numbers compared
against the formulas. Every graph is a Cayley graph on the additive group
of the field, whose tables ``build_graph`` has certified, so row 0
(``CayleyGraph.row0``, the connection set) fixes A, and its eigenvalues are
the character sums over row 0, counted by one exact transform cached per
graph (``CayleyGraph.eigenvalues``); one that is not an integer is refused,
never rounded. The walk, srg, girth, diameter, component, tree and
Ramanujan kernels read the transform: trace(A^r) is the sum of lambda^r,
row 0 of A^2 the transform of lambda^2 over N (``CayleyGraph.square_row``),
the diameter is read off row 0 of A and of A^2, and the number of
components is the multiplicity of lambda_0. No float enters them. The
arc-transitivity checks, the only readers of the (n, n) matrix
``CayleyGraph.adjacency`` here, built from row 0 a block of rows at a
time, map all of their scales at once, with one
``graphs.apply_affine_frobenius`` table per check.
"""

import functools
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .applications import is_ramanujan, verify_waring, waring_number
from .arith import exact_div, int_to_str, require_int
from .budgets import budget, require
from .errors import NotApplicable, NotStronglyRegular, OutOfTheory, UnbalancedCounts
from .forms import TraceForm, class_from_counts, classify_logs, exp_sum, kernel_counts
from .graphs import CayleyGraph, GraphSpec, apply_affine_frobenius, build_graph
from .spectra import spanning_trees, spectrum, srg_params


# ---------------------------------------------------------------------------
# raw counting kernels
# ---------------------------------------------------------------------------

def count_srg_params(g: CayleyGraph) -> tuple[int, int, int, int]:
    """(v, k, e, d) by exhaustive common-neighbor counting.

    k is |S|, every degree. e is the common count of 0 with its neighbors,
    d with its non-neighbors other than 0, read off row 0 of A^2;
    non-constant counts falsify strong regularity and raise. A Cayley graph
    carries row 0 to every pair."""
    n, k, row = g.n, g.k, g.row0
    common = g.square_row
    others = ~row
    others[0] = False
    adjacent, non_adjacent = np.unique(common[row]), np.unique(common[others])
    if len(adjacent) > 1 or len(non_adjacent) > 1:
        raise NotStronglyRegular(
            f"common-neighbor counts not constant: adjacent {adjacent.tolist()}, "
            f"non-adjacent {non_adjacent.tolist()}"
        )
    e = int(adjacent[0]) if k else 0
    d = int(non_adjacent[0]) if others.any() else 0
    return (n, k, e, d)


def verify_a2_identity(g: CayleyGraph, params: tuple[int, int, int, int]) -> bool:
    """Check A^2 = (e-d) A + (k-d) I + d J entrywise: on row 0 (entry (0, x)
    of A^2 is the common-neighbor count of 0 and x), and so on every other
    row of a Cayley graph."""
    v, k, e, d = params
    expected = np.where(g.row0, e, d)
    expected[0] += k - d
    return v == g.n and np.array_equal(g.square_row, expected)


def count_walks_bruteforce(g: CayleyGraph, r: int) -> int:
    """trace(A^r) for r >= 1: sum mult * lambda^r over the distinct counted
    eigenvalues, in Python integers."""
    require_int(r, "walk length r")
    if r < 1:
        raise ValueError(f"walk length r must be at least 1, not {r}")
    lams, mults = np.unique(g.eigenvalues, return_counts=True)
    return sum(mult * lam**r for lam, mult in zip(lams.tolist(), mults.tolist()))


def count_trees_bruteforce(g: CayleyGraph) -> int:
    """Kirchhoff's count prod over a != 0 of (lambda_0 - lambda_a) / N, on
    the integers of ``CayleyGraph.eigenvalues``; lambda_0 = |S| is every
    degree. Like the coset and arc checks, refused above a budget of its own
    (``tree``; see ``budgets.DEFAULTS``)."""
    require("tree", g.n)
    top, *rest = g.eigenvalues.tolist()
    return exact_div(math.prod(top - lam for lam in rest), g.n)


def count_diameter(g: CayleyGraph) -> int:
    """The eccentricity of vertex 0, which is the diameter of a Cayley
    graph: 1 when row 0 of A holds every other vertex, 2 when row 0 of A or
    of A^2 (``CayleyGraph.square_row``) does. No connected member has a
    larger diameter, so one raises rather than guesses, as
    ``girth_bruteforce`` does past girth 4."""
    near = g.row0[1:]
    if near.all():
        return 1
    if (near | (g.square_row[1:] > 0)).all():
        return 2
    raise NotApplicable("diameter exceeds 2; out of scope for these families")


def count_components(g: CayleyGraph) -> tuple[int, int]:
    """(number, size) of the components. In a regular graph the number is
    the multiplicity of lambda_0 among ``CayleyGraph.eigenvalues``, and in
    a Cayley graph the components are the cosets of the component of 0, so
    each has N / number vertices, the division checked exact."""
    lams = g.eigenvalues
    number = int(np.count_nonzero(lams == lams[0]))
    return number, exact_div(g.n, number)


def girth_bruteforce(g: CayleyGraph) -> int:
    """3 if there is a triangle, else 4 if there is a quadrilateral.

    Diameter-2 graphs with d > 0 never need more; a triangle-free,
    square-free case would raise rather than guess."""
    if count_walks_bruteforce(g, 3) > 0:
        return 3
    k = g.k
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
    # seconds spent building the primal graph and its complement
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
    counts, tree counts (size permitting), the diameter or the components,
    girth, traces of A and A^2 against the spectrum's moments, the
    quadratic-form classification of every gamma against kernel counting on
    one member of each coset of S, Waring witnesses, the Ramanujan
    inequality, the coset decomposition of the complement, and
    arc-transitivity witnesses on small graphs. The report lists the
    structure checks, the primal graph's ``_side_checks``, the
    complement's, then the rest. Failures are recorded, never thrown;
    checks left out for size are listed in the report's ``skipped``. Each
    side is built by ``build_graph``, which certifies the field's tables,
    and the seconds of the two builds are the report's ``build_seconds``.
    Every count reads row 0 and its transform; only the arc checks build
    and read the primal adjacency."""
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
    _side_checks(suite, "primal", g)
    _side_checks(suite, "complement", gbar)
    _klapper_checks(suite, g)
    _waring_checks(suite, g, max_order)
    _ramanujan_checks(suite, g, gbar)
    _coset_checks(suite, g, gbar)
    _arc_transitivity_checks(suite, g)
    return suite.report


def _regular(g: CayleyGraph) -> bool:
    """Whether row 0 is closed under negation and has no loop: then A is
    symmetric with no loop, and every vertex has degree k = |row 0|."""
    row = g.row0
    return bool(np.array_equal(row[g.field.neg_array(np.arange(g.n))], row) and not row[0])


def _structure_checks(suite, g, gbar):
    suite.run("regular-degree", lambda: True, lambda: _regular(g))
    suite.run(
        "complement-degree", lambda: True, lambda: _regular(gbar) and gbar.k == g.n - 1 - g.k
    )
    suite.run(
        "connection-cardinality", lambda: spectrum(g.spec).k, lambda: int(g.row0.sum())
    )


def _side_checks(suite, side, graph):
    """Every check held on one of the two graphs, named ``<check>-<side>``,
    each beside the rule that decides whether it applies. (2,2,1) is not
    strongly regular, so it has no srg counts or A^2 identity, and no girth;
    the primal graph of ell = m/2 is q^(m/2) disjoint cliques, held to its
    component count and size (``count_components``, reported as (number,
    [size])) in place of a diameter (``count_diameter``), and given no
    girth. The moments are the closed spectrum's (v, sum lambda, sum
    lambda^2) against the counted order, trace(A) and trace(A^2)."""
    spec = graph.spec
    # the walks and moments checks read one spectrum, evaluated on the
    # first read; one that raises fails each check that reads it
    closed = functools.cache(lambda: spectrum(spec))
    if not spec.is_degenerate:
        def params():
            return srg_params(spec).params()

        suite.run(f"srg-counts-{side}", params, lambda: count_srg_params(graph))
        suite.run(f"a2-identity-{side}", lambda: True, lambda: verify_a2_identity(graph, params()))
    suite.run(
        f"walks-2..6-{side}",
        lambda: tuple(closed().moment(r) for r in range(2, 7)),
        lambda: tuple(count_walks_bruteforce(graph, r) for r in range(2, 7)),
    )
    if suite.within("tree", graph.n, (f"trees-{side}",)):
        suite.run(
            f"trees-{side}", lambda: spanning_trees(spec), lambda: count_trees_bruteforce(graph)
        )
    if not spec.connected:
        root = spec.q ** (spec.m // 2)

        def components():
            number, size = count_components(graph)
            return (number, [size])

        suite.run("half-case-components", lambda: (root, [root]), components)
    else:
        suite.run(f"diameter-{side}", lambda: 2, lambda: count_diameter(graph))
        if not spec.is_degenerate:
            suite.run(
                f"girth-{side}",
                lambda: srg_params(spec).girth,
                lambda: girth_bruteforce(graph),
            )

    suite.run(
        f"spectrum-moments-{side}",
        lambda: (closed().v, closed().moment(1), closed().moment(2)),
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


def count_ramanujan(g: CayleyGraph) -> bool:
    """Whether max over a != 0 of lambda_a^2 <= 4(k-1) on the counted
    eigenvalues, k = lambda_0 (Lubotzky, Phillips and Sarnak, Combinatorica
    8, 1988), in Python integers."""
    k, *rest = g.eigenvalues.tolist()
    return max(lam * lam for lam in rest) <= 4 * (k - 1)


def _ramanujan_checks(suite, g, gbar):
    """``is_ramanujan`` of each connected side against the decision counted
    on its graph. The primal graph of ell = m/2 is disconnected, and (2,2,1)
    has no srg counts."""
    spec = g.spec
    if spec.connected:
        suite.run("ramanujan-double-path", lambda: is_ramanujan(spec), lambda: count_ramanujan(g))
    if not spec.is_degenerate:
        suite.run(
            "ramanujan-complement",
            lambda: is_ramanujan(gbar.spec),
            lambda: count_ramanujan(gbar),
        )


def _coset_checks(suite, g, gbar):
    """The q^ell cosets alpha^j S, j = 1..q^ell, cover F* minus S exactly
    once, and their union is the complement's connection set, row 0 of its
    adjacency, so the cosets partition its edges."""
    spec, fld = g.spec, g.field
    if not suite.within("coset", g.n, ("coset-decomposition",)):
        return

    def decompose():
        # S = <alpha^g> with g = (N-1)/|S|; row j lists the logs of alpha^j S
        k, units = g.k, spec.order - 1
        logs = (units // k) * np.arange(k) + np.arange(1, spec.q**spec.ell + 1)[:, None]
        cover = np.bincount(fld.exp[logs % units].ravel(), minlength=g.n)
        outside = ~g.row0
        outside[0] = False
        return (
            np.array_equal(cover, outside),
            np.array_equal(cover > 0, gbar.row0),
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
        s0 = int(np.flatnonzero(g.row0)[0])
        v, w = np.nonzero(g.adjacency)
        scales = fld.mul_array(fld.add_arrays(w, fld.neg_array(v)), fld.inv(s0))
        outside = np.flatnonzero(~g.row0[scales])
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
        # x -> a x is additive, so on a Cayley graph A[a i, a j] =
        # A[0, a (j - i)]: it preserves edges exactly when it fixes row 0
        row = g.row0
        images = apply_affine_frobenius(g, np.arange(1, g.n), 0, 0)  # row a - 1 is x -> a x
        preserves = (row[images] == row).all(axis=1)
        wrong = np.flatnonzero(preserves != g.row0[1:])
        if wrong.size:
            return f"scale {wrong[0] + 1} violates the membership criterion"
        return True

    suite.run("edge-preservation-criterion", lambda: True, membership_criterion)
