"""The gpaley benchmark.

    python3 bench/run.py --workload verify-dense [--seed 1] [--seconds 15] [--trace 0]
    python3 bench/run.py --workload all      # every workload, each in a fresh process

A run is one process and a closed loop: whole rounds of the workload's
operations, each operation started when the previous one returned, until
``--seconds`` have passed. Every round starts from a cold set-up (gpaley
imported in a fresh interpreter, the get_field cache emptied, every field
the workload uses built) and its outputs are checked, after its timer
stops, against computations made apart from the program (``checks.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones (``tracing.py``) and the tracing overhead. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the result, and the span dump of a traced run, also go to
``bench/out/``.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
MB = 2**20

# numpy's BLAS uses at most two threads, whatever the machine offers.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import checks  # noqa: E402  (numpy reads the thread variables when first imported)
from tracing import LAYERS, Tracer  # noqa: E402

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import gpaley; print(time.perf_counter() - t)"
)
WORKLOADS = ("verify-dense", "verify-trees", "closed-forms-cli", "forms-large-field")
# The program functions the benchmark calls itself, with their layers.
ENTRY_LAYERS = {"get_field": "field", "run_suite": "oracles", "dispatch": "cli",
                "classify_form": "forms", "kernel_counts": "forms",
                "class_from_counts": "forms", "exp_sum": "forms"}
# What the per-layer metrics read from the results of some spans.
OBSERVERS = {
    "field.get_field": lambda f: f.exp.nbytes + f.log.nbytes + f.zech.nbytes,
    "field.trace_map": lambda arr: (id(arr), arr.nbytes),
    "graphs.build_graph": lambda g: g.adjacency.nbytes,
    "arith.int_to_str": len,
}
# run_suite check names are grouped by prefix; the rest count as "other".
CHECK_GROUPS = ("trees", "srg-counts", "a2-identity", "walks", "girth", "diameter",
                "waring", "klapper", "coset", "arc-transitivity")


class OpFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Verify:
    """run_suite on primal members (p, s, m, ell); one operation per spec."""

    def __init__(self, gp, specs):
        self.gp, self.specs = gp, specs
        self.fields = sorted({spec[:3] for spec in specs})
        self._expected = {}

    def ops(self, rng):
        ops = list(self.specs)
        rng.shuffle(ops)
        return ops

    def run(self, call, fields, spec):
        return call["run_suite"](self.gp.graphs.GraphSpec(*spec))

    def check(self, ops, outputs):
        results = 0
        for spec, report in zip(ops, outputs):
            if report is not None:
                p, s, m, ell = spec
                independent, program = self._expectations(spec)
                results += checks.check_report(report, p**s, m, ell, independent, program)
        return results

    def _expectations(self, spec):
        """Counted spectra and Kirchhoff counts, and the library's closed
        forms to hold against them; computed once per spec."""
        if spec not in self._expected:
            gp = self.gp
            p, s, m, ell = spec
            fld = gp.field.get_field(p, s, m)
            independent, program = {}, {}
            for side, comp in (("primal", False), ("complement", True)):
                gs = gp.graphs.GraphSpec(p, s, m, ell, comp)
                members = gp.graphs.connection_set(gs, fld).members
                eigs = checks.character_spectrum(members, p, s * m)
                independent[side] = (eigs, checks.kirchhoff_trees(eigs, int(members.sum()),
                                                                  gs.order))
                program[side] = (gp.spectra.spectrum(gs).pairs, gp.spectra.spanning_trees(gs))
            self._expected[spec] = (independent, program)
        return self._expected[spec]


class ClosedFormsCli:
    """``gpaley.cli.dispatch`` on srg, zeta and ramanujan for every proper
    member with q^m < 2^16 and its complement, and ``tables`` for the three
    families; one operation per invocation, stdout captured."""

    BASES = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
    LIMIT = 2**16
    fields = ()

    def ops(self, rng):
        ops = []
        for p, s in self.BASES:
            q = p**s
            for m in range(2, 64, 2):
                if q**m >= self.LIMIT:
                    break
                for ell in range(1, m // 2 + 1):
                    if m % ell or (m // ell) % 2:
                        continue
                    for comp in (False, True):
                        spec = ["--p", str(p), "--s", str(s), "--m", str(m), "--ell", str(ell)]
                        spec += ["--complement"] * comp
                        ops.append(["srg"] + spec)
                        # zeta and ramanujan refuse the disconnected half-case
                        # primal graphs, zeta also the 4-cycle (2, 2, 1) pair
                        if comp or 2 * ell != m:
                            ops.append(["ramanujan"] + spec)
                            if (q, m, ell) != (2, 2, 1):
                                ops.append(["zeta"] + spec)
        ops += [["tables", "--family", str(family)] for family in (2, 3, 4)]
        rng.shuffle(ops)
        return ops

    def run(self, call, fields, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call["dispatch"](argv)
        if code != 0:
            raise OpFailed(f"{argv} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, ops, outputs):
        spectra, records = {}, 0
        # srg records first: zeta and ramanujan are held to their spectra
        for argv, text in sorted(zip(ops, outputs), key=lambda op: op[0][0] != "srg"):
            if text is None:
                continue
            payload = json.loads(text)
            if argv[0] == "tables":
                records += checks.check_table_rows(payload, int(argv[2]))
                continue
            opts = dict(zip(argv[1::2], argv[2::2]))
            spec = {"p": int(opts["--p"]), "s": int(opts["--s"]), "m": int(opts["--m"]),
                    "ell": int(opts["--ell"]), "complemented": "--complement" in argv}
            key = tuple(argv[1:])
            if argv[0] == "srg":
                spectra[key] = checks.check_srg_record(payload, spec)
            elif key in spectra:
                check = checks.check_zeta_record if argv[0] == "zeta" else \
                    checks.check_ramanujan_record
                check(payload, spec, spectra[key])
            records += 1
        return records


class FormsLargeField:
    """Two gamma in each coset of the (q+1)-th powers S = <alpha^g> in each
    field (p, s, m); one operation per gamma: classify_form, kernel_counts,
    class_from_counts and exp_sum."""

    def __init__(self, gp, fields):
        self.gp, self.fields = gp, fields

    def ops(self, rng):
        """(p, s, m, coset j, log of gamma): alpha^j and one more of its coset.
        The seed orders the forms of each field; the fields keep their order,
        as the peak RSS depends on the order in which their trace maps build."""
        ops = []
        for p, s, m in self.fields:
            q = p**s
            g = math.gcd(q**m - 1, q + 1)
            forms = []
            for j in range(g):
                forms.append((p, s, m, j, j))
                forms.append((p, s, m, j, j + g * rng.randrange(1, (q**m - 1) // g)))
            ops += rng.sample(forms, len(forms))
        return ops

    def run(self, call, fields, op):
        p, s, m, _, log_gamma = op
        fld = fields[(p, s, m)]
        form = self.gp.forms.TraceForm(fld, int(fld.exp[log_gamma]), 1)
        closed = call["classify_form"](form)
        counts = call["kernel_counts"](form)
        counted = call["class_from_counts"](p**s, m, counts)
        return ((closed.rank, closed.type_sign), (counted.rank, counted.type_sign), counts,
                call["exp_sum"](form))

    def check(self, ops, outputs):
        by_field = {}
        for (p, s, m, j, log_gamma), out in zip(ops, outputs):
            if out is not None:
                coset = by_field.setdefault((p**s, m), {}).setdefault(j, [])
                coset.insert(0 if log_gamma == j else len(coset), out)
        for (q, m), cosets in by_field.items():
            checks.check_cosets(q, m, cosets)
        return sum(len(c) for cosets in by_field.values() for c in cosets.values())


def make_workload(name, gp):
    if name == "verify-dense":
        return Verify(gp, [(2, 1, 12, 1), (7, 1, 4, 2), (3, 1, 6, 1), (2, 1, 10, 5)])
    if name == "verify-trees":
        return Verify(gp, [(2, 2, 4, 1)])
    if name == "closed-forms-cli":
        return ClosedFormsCli()
    return FormsLargeField(gp, [(2, 1, 20), (2, 2, 10), (3, 1, 12), (5, 1, 8)])


# ---------------------------------------------------------------------------
# rounds and metrics
# ---------------------------------------------------------------------------

def entry_points() -> dict:
    """The untraced program functions the benchmark calls, by name."""
    return {key: getattr(importlib.import_module(f"gpaley.{layer}"), key)
            for key, layer in ENTRY_LAYERS.items()}


def one_round(gp, workload, ops, call, tracer=None):
    """Cold set-up, then every operation once. Set-up is ``import gpaley`` in
    a fresh interpreter plus building every field the workload uses after
    the get_field cache is emptied. Returns the set-up and body seconds, the
    outputs (None where an operation raised), the failures and the index of
    the first body span."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=120)
    gp.field.get_field.cache_clear()
    gc.collect()
    t0 = perf_counter()
    fields = {key: call["get_field"](*key) for key in workload.fields}
    setup_s = float(probe.stdout) + perf_counter() - t0
    body_start = len(tracer.spans) if tracer else 0
    outputs, failed = [], 0
    t0 = perf_counter()
    for op in ops:
        try:
            outputs.append(workload.run(call, fields, op))
        except Exception:  # an operation that raises is counted as failed; the run goes on
            failed += 1
            outputs.append(None)
            traceback.print_exc(file=sys.stderr)
    return setup_s, perf_counter() - t0, outputs, failed, body_start


def check_seconds(outputs) -> dict:
    """Seconds that run_suite reports per check group."""
    groups = dict.fromkeys(CHECK_GROUPS + ("other",), 0.0)
    for report in outputs:
        if hasattr(report, "checks"):
            for c in report.checks:
                group = next((g for g in CHECK_GROUPS if c.name.startswith(g)), "other")
                if c.name == "edge-preservation-criterion":
                    group = "arc-transitivity"
                groups[group] += c.seconds
    return groups


def layer_metrics(tracer, body_start, run_s, outputs):
    """Per-layer metrics of one traced round."""
    by_name, self_s, top = tracer.totals(body_start)

    def total(name):
        return by_name.get(name, (0, 0.0))[1]

    def observed(name, body=True):
        return [out for i, out in tracer.observed.get(name, ()) if (i >= body_start) == body]

    tables = sum(observed("field.get_field", body=False))
    trace_maps = dict(observed("field.trace_map"))
    # adjacency held at once by one top-level operation (a graph and its complement)
    adjacency = {}
    for i, nbytes in tracer.observed.get("graphs.build_graph", ()):
        while tracer.spans[i][1] >= 0:
            i = tracer.spans[i][1]
        adjacency[i] = adjacency.get(i, 0) + nbytes
    reported = check_seconds(outputs)
    run_suite_s = total("oracles.run_suite")
    setup_builds = [t1 - t0 for name, parent, t0, t1 in tracer.spans[:body_start]
                    if name == "field.get_field" and parent < 0]
    metrics = {
        "field.build_s": (sum(setup_builds), "s"),
        "field.trace_map_s": (total("field.trace_map"), "s"),
        "field.table_mb": ((tables + sum(trace_maps.values())) / MB, "MB"),
        "graphs.build_graph_s": (total("graphs.build_graph"), "s"),
        "graphs.adjacency_mb": (max(adjacency.values(), default=0) / MB, "MB"),
        "forms.classify_form_calls": (by_name.get("forms.classify_form", (0,))[0], "count"),
        "forms.classify_form_s": (total("forms.classify_form"), "s"),
        "forms.kernel_counts_s": (total("forms.kernel_counts"), "s"),
        "forms.exp_sum_s": (total("forms.exp_sum"), "s"),
        "arith.int_to_str_s": (total("arith.int_to_str"), "s"),
        "arith.int_to_str_digits": (sum(observed("arith.int_to_str")), "count"),
        "oracles.run_suite_s": (run_suite_s, "s"),
        "oracles.unrecorded_s": (run_suite_s and run_suite_s - total("graphs.build_graph")
                                 - sum(reported.values()), "s"),
        "cli.dispatch_self_s": (self_s["cli"], "s"),
        "cli.output_mb": (sum(len(o) for o in outputs if isinstance(o, str)) / MB, "MB"),
        "trace.run_s": (run_s, "s"),
        "trace.unaccounted_s": (run_s - top, "s"),
    }
    for layer in LAYERS:
        if layer != "cli":
            metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for group, seconds in reported.items():
        metrics[f"oracles.check.{group}_s"] = (seconds, "s")
    return metrics


def measure(name, seed, seconds, trace):
    import gpaley as gp

    if Path(gp.__file__).resolve().parent != SRC / "gpaley":
        raise SystemExit(f"imported gpaley from {gp.__file__}, not from {SRC}")
    workload = make_workload(name, gp)
    ops = workload.ops(random.Random(seed))
    modules = [importlib.import_module(f"gpaley.{layer}") for layer in LAYERS]
    plain = entry_points()

    setups, plain_runs, traced, dump = [], [], [], None
    correct, results, failed, rounds = True, None, 0, 0
    # two extra cold set-ups, so that set-up has three samples or more
    for _ in range(2):
        setups.append(one_round(gp, workload, [], plain)[0])
    started = perf_counter()
    while True:
        tracer = Tracer() if trace and rounds % 2 else None
        if tracer:
            call = {key: tracer.wrap(f"{layer}.{key}", plain[key], OBSERVERS.get(f"{layer}.{key}"))
                    for key, layer in ENTRY_LAYERS.items()}
            tracer.install(modules, gp.field.FieldTable, OBSERVERS)
            try:
                setup_s, run_s, outputs, fails, body_start = one_round(gp, workload, ops, call,
                                                                       tracer)
            finally:
                tracer.uninstall()
            traced.append(layer_metrics(tracer, body_start, run_s, outputs))
            if dump is None:
                dump = {"body_start": body_start, **tracer.dump()}
        else:
            setup_s, run_s, outputs, fails, _ = one_round(gp, workload, ops, plain)
            plain_runs.append(run_s)
        setups.append(setup_s)
        failed += fails
        rounds += 1
        try:
            got = workload.check(ops, outputs)
            if results is not None and got != results:
                raise checks.CheckFailed(f"round {rounds} gave {got} results, not {results}")
            results = got
        except (checks.CheckFailed, LookupError, TypeError, ValueError) as exc:
            # a malformed output (missing key, bad JSON, wrong type) fails the checks too
            correct = False
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
        del outputs
        print(f"round {rounds}{' traced' if tracer else ''}: set-up {setup_s:.3f} s, "
              f"run {run_s:.3f} s", file=sys.stderr)
        if rounds >= 1 + trace and perf_counter() - started >= seconds:
            break

    if trace:
        metrics = {key: (statistics.fmean(r[key][0] for r in traced), unit)
                   for key, (_, unit) in traced[0].items()}
        metrics["trace.overhead_s"] = (metrics["trace.run_s"][0]
                                       - statistics.fmean(plain_runs), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(plain_runs), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "results": (results or 0, "count"),
        }
    result = {
        "correct": correct and results is not None,
        "attempted": len(ops) * rounds,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in sorted(metrics.items())},
    }
    return result, dump


def run_all(args) -> dict:
    """Each workload in a fresh process; the last line of each is its result."""
    combined = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=900)
        combined[name] = json.loads(done.stdout.strip().splitlines()[-1])
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="orders each workload's inputs and picks the second gamma per coset")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="start rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gpaley" / "__init__.py").is_file():
        print(f"error: no gpaley sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    sys.path.insert(0, str(SRC))
    result, dump = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if dump is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(dump) + "\n")
    for key, metric in result["metrics"].items():
        print(f"{key:34s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
