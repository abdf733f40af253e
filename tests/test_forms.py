import math
import re
from collections import Counter

import numpy as np
import pytest

import gpaley.forms
from gpaley.errors import InternalCheckError, OutOfTheory, UnbalancedCounts, ZeroElement
from gpaley.field import FieldTable, get_field
from gpaley.forms import (
    FormClass,
    TraceForm,
    class_from_counts,
    classify_form,
    classify_logs,
    exp_sum,
    kernel_counts,
)
from gpaley.graphs import GraphSpec, connection_set
from gpaley.spectra import spectrum
from reference import evaluate_form, frobenius_trace_map


def test_zero_maps_to_zero():
    f = get_field(2, 1, 4)
    form = TraceForm(f, 1, 1)
    assert evaluate_form(form, 0) == 0


def test_gamma_zero_rejected():
    f = get_field(2, 1, 4)
    with pytest.raises(ZeroElement):
        TraceForm(f, 0, 1)


@pytest.mark.parametrize("gamma", [-1, -15, 16])
def test_gamma_outside_the_field_rejected(gamma):
    # a negative index would wrap in the log table and name another element
    f = get_field(2, 1, 4)
    with pytest.raises(ValueError, match="not an element index"):
        TraceForm(f, gamma, 1)


@pytest.mark.parametrize(
    "gamma, ell, name, bad",
    [(1, True, "ell", "True"), (True, 1, "gamma", "True"), (3, 1.0, "ell", "1.0"),
     (3.0, 1, "gamma", "3.0")],
)
def test_trace_form_refuses_a_parameter_that_is_not_an_integer(gamma, ell, name, bad):
    # ell = True used to compute as ell = 1, and gamma = True or ell = 1.0
    # failed later with a bare TypeError in kernel_counts or classify_form
    f = get_field(2, 1, 4)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(bad)}$"):
        TraceForm(f, gamma, ell)


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: TraceForm(get_field(2, 1, 4), 3, -1), ValueError, "ell must be nonnegative"),
        (lambda: FormClass(3, 1), ValueError, "rank must be even and type +-1"),
        (lambda: FormClass(2, 0), ValueError, "rank must be even and type +-1"),
        # as many zeros as ones: no even-rank form over F_16 counts so
        (lambda: class_from_counts(2, 4, {0: 8, 1: 8}), OutOfTheory,
         "zero-count offset vanishes: not an even-rank form"),
    ],
    ids=["negative-ell", "odd-rank", "zero-type", "no-offset"],
)
def test_form_refusals(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_trace_form_takes_numpy_integers():
    form = TraceForm(get_field(2, 1, 4), np.int64(3), np.int32(1))
    assert (type(form.gamma), type(form.ell)) == (int, int)
    assert kernel_counts(form) == kernel_counts(TraceForm(get_field(2, 1, 4), 3, 1))


def test_homogeneity_over_small_field():
    # Q(c x) = c^2 Q(x) for scalars c in F_q
    f = get_field(3, 1, 4)
    form = TraceForm(f, 7, 1)
    for c in range(1, 3):  # prime-subfield scalars are indices 0..p-1
        c2 = f.mul(c, c)
        for x in range(81):
            lhs = evaluate_form(form, f.mul(c, x))
            rhs = f.mul(c2, evaluate_form(form, x))
            assert lhs == rhs


def test_kernel_counts_partition():
    f = get_field(2, 1, 4)
    for gamma in (1, 5, 9):
        counts = kernel_counts(TraceForm(f, gamma, 1))
        assert sum(counts.values()) == 16


_FORM_FIELDS = [(2, 1, 4, 1), (3, 1, 4, 1), (2, 2, 4, 1), (2, 1, 8, 2)]


@pytest.mark.parametrize("p,s,m,ell", _FORM_FIELDS)
def test_histogram_is_the_bincount_of_the_form_values(p, s, m, ell):
    # the coset read against the reference trace on gamma S, its h-fold
    # multiset against the scalar evaluation on F^*, and the histogram
    # against the values in index order, Q(0) included
    f = get_field(p, s, m)
    values, tr = f.subfield_indices(s), frobenius_trace_map(f, s, f.n)
    h = math.gcd(p ** (s * ell) + 1, f.order - 1)
    for gamma in range(1, f.order):
        form = TraceForm(f, gamma, ell)
        pointwise = [evaluate_form(form, x) for x in range(f.order)]
        unit_values = values[gpaley.forms._unit_values(form)].tolist()
        assert unit_values == tr[f.exp[f.log[gamma] % h :: h]].tolist()
        assert sorted(unit_values * h) == sorted(pointwise[1:])
        counts = np.bincount(pointwise, minlength=f.order)
        assert form.histogram == {int(x): int(counts[x]) for x in values}
        assert counts[values].sum() == f.order  # every value lies in F_q


def test_each_form_is_evaluated_once(monkeypatch):
    real_pow = FieldTable.pow_array

    def no_power_map(fld, a, e):
        # the scalar pow is this kernel at one index, and the trace map
        # raises its n basis images; a whole-field power map has p^n
        if np.size(a) > fld.n:
            raise AssertionError("a form built a whole-field power map")
        return real_pow(fld, a, e)

    monkeypatch.setattr(FieldTable, "pow_array", no_power_map)
    g = get_field(2, 1, 4)
    f = FieldTable(g.params, g.modulus, g.alpha)  # no trace map built yet
    calls = []
    real = gpaley.forms._unit_values
    monkeypatch.setattr(gpaley.forms, "_unit_values", lambda form: calls.append(form) or real(form))
    form = TraceForm(f, 3, 1)
    counts = kernel_counts(form)
    counts[0] += 1  # the caller's copy, not the form's histogram
    assert exp_sum(form) == 4
    assert kernel_counts(form)[0] == 10
    assert calls == [form]


@pytest.mark.parametrize(
    "p,s,m,ell",
    [(2, 1, 4, 1), (3, 1, 4, 1), (2, 2, 4, 1), (2, 1, 8, 2), (5, 1, 4, 1), (7, 1, 4, 1),
     (2, 1, 6, 3), (3, 1, 4, 2)],
)
def test_character_sums_are_gauss_periods(p, s, m, ell):
    # x -> x^e is h-to-1 onto S, so the sum of Q_{alpha^j} is 1 + h lambda_j,
    # with lambda_j = sum_{s in S} zeta_p^Tr(alpha^j s) the Gauss period of the
    # coset alpha^j S, counted here with the reference trace to F_p; k copies
    # of each period are the nontrivial spectrum
    spec, f = GraphSpec(p, s, m, ell), get_field(p, s, m)
    units = f.order - 1
    e = p ** (s * ell) + 1
    s_logs = np.unique(e * np.arange(units) % units)  # the logs of S = {x^e}
    k, h = len(s_logs), units // len(s_logs)
    tr = frobenius_trace_map(f, 1, f.n)
    primal, complement = Counter({k: 1}), Counter({units - k: 1})
    for j in range(h):
        zeros = int(np.count_nonzero(tr[f.exp[(j + s_logs) % units]] == 0))
        lam, rem = divmod(p * zeros - k, p - 1)
        assert rem == 0
        assert exp_sum(TraceForm(f, int(f.exp[j]), ell)) == 1 + h * lam
        primal[lam] += k
        complement[-1 - lam] += k
    assert primal == dict(spectrum(spec).pairs)
    assert complement == dict(spectrum(spec.complement()).pairs)


def test_exp_sum_builds_no_small_field_trace_map(monkeypatch):
    # Tr_{q/p} is read on the q summed values, through an n x n digit matrix,
    # and the trace sequence from the n basis images: no whole-field trace
    # map is built
    get_field.cache_clear()
    f = get_field(2, 2, 4)  # q = 4, m = 4
    degrees, real = [], f.trace_map
    monkeypatch.setattr(f, "trace_map", lambda t: degrees.append(t) or real(t))
    try:
        exp_sum(TraceForm(f, 1, 1))
        assert degrees == []
        assert list(f._sequence_cache) == [2]
        assert set(f._frobenius_cache) == {(2, 4), (1, 2)}  # Tr to F_4, Tr_{4/2}
        assert all(m.shape == (f.n, f.n) for m in f._frobenius_cache.values())
    finally:
        get_field.cache_clear()


@pytest.mark.parametrize("p,s,m", [(3, 1, 4), (5, 1, 4), (3, 2, 2)])
def test_a_forms_round_builds_no_zech_table(p, s, m):
    # the traces are digit-matrix products and the forms read the trace
    # sequence, so no addition table is built on an odd-p field
    g = get_field(p, s, m)
    f = FieldTable(g.params, g.modulus, g.alpha)
    for gamma in range(1, f.order, max(1, f.order // 20)):
        form = TraceForm(f, gamma, 1)
        classify_form(form), kernel_counts(form), exp_sum(form)
    assert "zech" not in vars(f)


def test_a_forms_round_keeps_no_whole_field_trace_map():
    # the trace sequence is kept, one byte per element; the trace map it was
    # built from is not, so exp and log are the only arrays in the table
    # dtype of field length that the table holds
    get_field.cache_clear()
    f = get_field(2, 1, 8)
    for ell in (1, 2):
        for gamma in range(1, f.order, 5):
            form = TraceForm(f, gamma, ell)
            classify_form(form), kernel_counts(form), exp_sum(form)
    held = []
    for value in vars(f).values():
        held += value.values() if isinstance(value, dict) else [value]
        held += vars(value).values() if isinstance(value, FieldTable) else []
    large = {id(a) for a in held if isinstance(a, np.ndarray)
             and a.dtype == f.exp.dtype and a.size >= f.order - 1}
    assert large == {id(f.exp), id(f.log)}
    assert f.trace_sequence(1).dtype == np.uint8
    get_field.cache_clear()


@pytest.mark.parametrize("p,s,m", [(2, 1, 4), (3, 1, 4), (2, 2, 4)])
def test_a_trace_map_entry_outside_the_subfield_fails_the_histogram(monkeypatch, p, s, m):
    # a trace sequence holds positions in [0, q), q = p^s; an entry at q or
    # past it is a value outside the subfield, and every bin from q up must
    # stay empty
    g = get_field(p, s, m)
    f = FieldTable(g.params, g.modulus, g.alpha)
    for position in (p**s, p**s + 1):
        corrupted = f.trace_sequence(s).copy()
        corrupted[1] = position
        monkeypatch.setitem(f._sequence_cache, s, corrupted)
        with pytest.raises(InternalCheckError, match="form took a value outside the subfield"):
            TraceForm(f, f.alpha, 1).histogram
        monkeypatch.undo()


def test_kernel_matches_balanced_formula_f16():
    # rank/type from exhaustive counts; N(0) = q^(m-1) + eps(q-1)q^(m-r/2-1)
    f = get_field(2, 1, 4)
    conn = connection_set(GraphSpec(2, 1, 4, 1), f)
    for gamma in range(1, 16):
        counts = kernel_counts(TraceForm(f, gamma, 1))
        fc = class_from_counts(2, 4, counts)
        if conn.members[gamma]:
            assert (fc.rank, fc.type_sign) == (2, -1)
            assert counts[0] == 8 + (-1) * 1 * 2 ** (4 - 1 - 1)  # = 4
        else:
            assert (fc.rank, fc.type_sign) == (4, 1)
            assert counts[0] == 8 + 1 * 1 * 2 ** (4 - 2 - 1)  # = 10


def test_exp_sum_examples_f16():
    f = get_field(2, 1, 4)
    conn = connection_set(GraphSpec(2, 1, 4, 1), f)
    for gamma in range(1, 16):
        T = exp_sum(TraceForm(f, gamma, 1))
        if conn.members[gamma]:
            assert T == -8
            assert (T - 1) // 3 == -3  # the negative graph eigenvalue
        else:
            assert T == 4
            assert (T - 1) // 3 == 1  # the positive nontrivial eigenvalue


def test_exp_sum_independent_of_a():
    # sum_x zeta_p^(Tr_{q/p}(a Q(x))) is exp_sum at every unit a of F_q,
    # which is why exp_sum takes no a: count the residues of Tr(a Q(x))
    for f, log_gamma in [(get_field(2, 2, 2), 0), (get_field(3, 2, 2), 5)]:  # q = 4, 9; m = 2
        form = TraceForm(f, int(f.exp[log_gamma]), 1)
        values = np.array([evaluate_form(form, x) for x in range(f.order)])
        for a in f.subfield_indices(2)[1:].tolist():
            residues = np.bincount(f.trace_map(1)[f.mul_array(values, a)], minlength=f.p)
            assert len(set(residues[1:].tolist())) == 1
            assert residues[0] - residues[1] == exp_sum(form)


def test_classify_examples():
    f = get_field(2, 1, 4)
    alpha3 = int(f.exp[3])
    fc = classify_form(TraceForm(f, alpha3, 1))
    assert (fc.rank, fc.type_sign) == (2, -1)

    f3 = get_field(3, 1, 4)
    fc = classify_form(TraceForm(f3, 1, 1))  # t = 0
    assert (fc.rank, fc.type_sign) == (2, -1)

    f32 = get_field(3, 1, 2)  # eps = -1, L = 4, t = L/2 = 2
    fc = classify_form(TraceForm(f32, int(f32.exp[2]), 1))
    assert (fc.rank, fc.type_sign) == (0, 1)


def test_classify_out_of_theory():
    f = get_field(2, 1, 3)  # m_ell = 3 odd
    with pytest.raises(OutOfTheory):
        classify_form(TraceForm(f, 1, 1))


def test_unbalanced_counts_raised_outside_theory():
    f = get_field(3, 1, 3)  # m_ell odd: sums are not rational integers
    with pytest.raises(UnbalancedCounts):
        exp_sum(TraceForm(f, 1, 1))


@pytest.mark.parametrize(
    "p,s,m,ell",
    [(2, 1, 4, 1), (2, 1, 4, 2), (2, 1, 6, 1), (2, 1, 6, 3), (3, 1, 4, 1),
     (3, 1, 4, 2), (2, 2, 4, 1), (2, 2, 4, 2), (5, 1, 2, 1), (7, 1, 2, 1),
     (3, 2, 2, 1), (2, 3, 2, 1), (2, 1, 8, 2), (3, 1, 6, 1)],
)
def test_classification_vs_counting_sweep(p, s, m, ell):
    """Closed classification == exhaustive reverse engineering, for one form
    and for the whole log table at once, the sum equals
    type * q^(m - rank/2), and the low-rank class has exactly
    (q^m-1)/(q^ell+1) members."""
    import math

    f = get_field(p, s, m)
    q = p**s
    d = math.gcd(m, ell)
    low = 0
    table_low, classes = classify_logs(q, m, ell, f.log[1:])
    for gamma in range(1, q**m):
        form = TraceForm(f, gamma, ell)
        closed = classify_form(form)
        counted = class_from_counts(q, m, kernel_counts(form))
        assert (closed.rank, closed.type_sign) == (counted.rank, counted.type_sign)
        assert classes[int(table_low[gamma - 1])] == counted
        assert exp_sum(form) == closed.type_sign * q ** (m - closed.rank // 2)
        if closed.rank == m - 2 * d:
            low += 1
    assert low == (q**m - 1) // (q**ell + 1)
