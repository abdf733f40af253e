"""Self-test of the benchmark's output checks: each must pass the program's
real outputs on small inputs and reject every corrupted copy of them.

    python3 bench/selftest.py        # a few seconds; exit 1 if a check lets one through
"""

import copy
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
from checks import CheckFailed  # noqa: E402

import gpaley as gp  # noqa: E402

PLAIN = run.entry_points()


def outputs_of(workload, ops, fields=None):
    return [workload.run(PLAIN, fields, op) for op in ops]


def verify_cases():
    workload = run.Verify(gp, [(3, 1, 4, 1)])
    ops = workload.ops(random.Random(0))
    (report,) = outputs_of(workload, ops)
    yield "verify: real report", workload, ops, [report], None

    def edit(change):
        bad = copy.deepcopy(report)
        change(bad)
        return [bad]

    yield "verify: one check removed", workload, ops, edit(lambda r: r.checks.pop(5)), CheckFailed
    yield "verify: one check failed", workload, ops, \
        edit(lambda r: setattr(r.checks[3], "passed", False)), CheckFailed

    def bareiss_off(r):
        (trees,) = [c for c in r.checks if c.name == "trees-complement"]
        trees.expected = trees.observed = trees.observed + 1

    yield "verify: tree count off by one", workload, ops, edit(bareiss_off), CheckFailed

    spectrum_off = run.Verify(gp, [(3, 1, 4, 1)])
    independent, program = copy.deepcopy(workload._expectations((3, 1, 4, 1)))
    top, (lam, mult), *rest = program["primal"][0]
    program["primal"] = ((top, (lam + 1, mult), *rest), program["primal"][1])
    spectrum_off._expected[(3, 1, 4, 1)] = (independent, program)
    yield "verify: perturbed eigenvalue", spectrum_off, ops, [report], CheckFailed


def cli_cases():
    workload = run.ClosedFormsCli()
    spec = ["--p", "3", "--s", "1", "--m", "4", "--ell", "1", "--complement"]
    ops = [["srg"] + spec, ["zeta"] + spec, ["ramanujan"] + spec, ["tables", "--family", "3"]]
    texts = outputs_of(workload, ops)
    yield "cli: real records", workload, ops, texts, None

    def edit(i, change):
        payload = json.loads(texts[i])
        change(payload)
        return texts[:i] + [json.dumps(payload)] + texts[i + 1:]

    def shift(delta, *path):
        """Add delta to the decimal string at path in a record."""
        def change(record):
            *parents, last = path
            for key in parents:
                record = record[key]
            record[last] = str(int(record[last]) + delta)
        return change

    def negate_all(key):
        def change(record):
            for factor in record["factors"]:
                factor[key] = str(-int(factor[key]))
        return change

    def repeat_top(rows):
        rows[0]["spectrum"] = rows[0]["spectrum"].replace("^1,", "^2,", 1)

    corruptions = [
        ("srg: eigenvalue", 0, shift(1, "spectrum", 1, 0)),
        ("srg: multiplicity", 0, shift(-1, "spectrum", 2, 1)),
        ("srg: e", 0, shift(1, "srg", 2)),
        ("srg: 4-walks", 0, shift(6, "walks", "4")),
        ("srg: tree count", 0, shift(10, "trees")),
        ("zeta: quadratic coefficient sign", 1, negate_all("quad_coeff")),
        ("zeta: linear coefficient sign", 1, negate_all("linear_coeff")),
        ("zeta: square exponent", 1, shift(1, "square_exp")),
        ("ramanujan: flag", 2, lambda record: record.update(ramanujan=not record["ramanujan"])),
        ("tables: d", 3, shift(1, 1, "d")),
        ("tables: top multiplicity", 3, repeat_top),
    ]
    for name, i, change in corruptions:
        yield f"cli: {name}", workload, ops, edit(i, change), CheckFailed


def forms_cases():
    workload = run.FormsLargeField(gp, [(2, 1, 6), (3, 1, 4)])
    ops = workload.ops(random.Random(0))
    fields = {key: gp.field.get_field(*key) for key in workload.fields}
    outputs = outputs_of(workload, ops, fields)
    yield "forms: real outputs", workload, ops, outputs, None

    def edit(i, change):
        bad = copy.deepcopy(outputs)
        closed, counted, counts, esum = bad[i]
        bad[i] = change(closed, counted, counts, esum)
        return bad

    def move_one(closed, counted, counts, esum):
        a, b = sorted(counts)[:2]
        counts[a] -= 1
        counts[b] += 1
        return closed, counted, counts, esum

    yield "forms: histogram count moved", workload, ops, edit(0, move_one), CheckFailed
    # a second gamma given the (valid) outputs of a gamma in another class
    second, other = next((i, k) for i, a in enumerate(ops) for k, b in enumerate(ops)
                         if a[3] != a[4] and a[:3] == b[:3] and outputs[i][2] != outputs[k][2])
    yield "forms: second gamma's histogram", workload, ops, \
        edit(second, lambda *_: outputs[other]), CheckFailed
    yield "forms: character sum", workload, ops, \
        edit(0, lambda c, d, h, e: (c, d, h, -e)), CheckFailed
    yield "forms: classify_form type", workload, ops, \
        edit(0, lambda c, d, h, e: ((c[0], -c[1]), d, h, e)), CheckFailed
    yield "forms: class_from_counts rank", workload, ops, \
        edit(0, lambda c, d, h, e: (c, (d[0] - 2, d[1]), h, e)), CheckFailed
    one_coset = [(op, out) for op, out in zip(ops, outputs) if op[3] != 0 or op[:3] != ops[0][:3]]
    yield "forms: a coset missing from the zero sum", workload, \
        [op for op, _ in one_coset], [out for _, out in one_coset], CheckFailed


def main() -> int:
    bad = 0
    for cases in (verify_cases, cli_cases, forms_cases):
        for name, workload, ops, outputs, expected in cases():
            try:
                workload.check(ops, outputs)
                outcome = None
            except CheckFailed as exc:
                outcome, message = CheckFailed, str(exc)
            ok = outcome is expected
            bad += not ok
            detail = f"rejected: {message}" if outcome else "accepted"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{bad} check(s) misjudged" if bad else "every check passed real outputs and "
          "rejected every corruption")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
