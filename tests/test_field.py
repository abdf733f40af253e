import copy
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

import gpaley.field
from gpaley.errors import (
    BudgetExceeded,
    CompositeP,
    InternalCheckError,
    NotASubfield,
    ZeroElement,
)
from gpaley.field import (
    FieldParams,
    FieldTable,
    certify_field,
    element_to_string,
    field_to_dict,
    get_field,
    trace,
)
from gpaley.forms import TraceForm
from gpaley.graphs import GraphSpec, build_graph, connection_set
from reference import (
    digit_add,
    digit_neg,
    element_order,
    frobenius_trace_map,
    power,
    power_table,
)


def test_build_f16():
    f = get_field(2, 1, 4)
    assert f.order == 16
    assert f.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1, least in base-2 order
    assert element_order(f, f.alpha) == 15


def test_build_f81():
    f = get_field(3, 1, 4)
    assert f.order == 81
    assert element_order(f, f.alpha) == 80


def test_f256_as_degree8_with_f4_subfield():
    f = get_field(2, 2, 4)
    assert f.n == 8 and f.params.q == 4
    # the 4-element subfield is exactly the fixed set of x -> x^4
    fixed = [x for x in range(256) if f.pow(x, 4) == x]
    assert len(fixed) == 4
    assert sorted(f.subfield_indices(2).tolist()) == sorted(fixed)


def test_composite_p_rejected():
    with pytest.raises(CompositeP):
        FieldParams(6, 1, 2)


@pytest.mark.parametrize(
    "args, name, bad",
    [((2, True, 4), "s", "True"), ((3, 1, 2.0), "m", "2.0"), ((2.0, 1, 4), "p", "2.0"),
     ((4.0, 1, 2), "p", "4.0")],
)
def test_field_params_refuse_a_parameter_that_is_not_an_integer(args, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(bad)}$"):
        FieldParams(*args)


def test_field_params_take_numpy_integers():
    params = FieldParams(np.int64(3), np.int32(1), np.int64(2))
    assert params == FieldParams(3, 1, 2) and type(params.m) is int


def test_budget():
    with pytest.raises(BudgetExceeded):
        get_field(2, 1, 30)
    # explicit override allows small degrees regardless
    get_field(2, 1, 4, max_order=1 << 22)


def test_trace_examples():
    f = get_field(2, 1, 4)
    assert trace(f, 1, 4, 1) == 0  # 1+1+1+1 over F_2
    # alpha + alpha^2 + alpha^4 + alpha^8 with modulus x^4+x+1:
    # alpha^4 = alpha+1, alpha^8 = alpha^2+1, so the sum telescopes to 0
    alpha = f.alpha
    by_hand = f.add(f.add(alpha, f.pow(alpha, 2)), f.add(f.pow(alpha, 4), f.pow(alpha, 8)))
    assert by_hand == 0
    assert trace(f, alpha, 4, 1) == 0

    f81 = get_field(3, 1, 4)
    assert trace(f81, 1, 4, 1) == 1  # 4 mod 3


@pytest.mark.parametrize(
    "call",
    [
        lambda f: trace(f, 1, 4, 0),
        lambda f: trace(f, 1, 0, 1),
        lambda f: f.trace_map(0),
        lambda f: f.trace_map(-2),
        lambda f: f.subfield_indices(0),
        lambda f: f.subfield_indices(-4),
    ],
    ids=["trace-to-0", "trace-from-0", "trace_map-0", "trace_map--2", "subfield_indices-0",
         "subfield_indices--4"],
)
def test_a_degree_below_one_is_not_a_subfield(call):
    # F_16 has subfields of degree 1, 2 and 4 only; 0 must not divide by zero
    with pytest.raises(NotASubfield):
        call(get_field(2, 1, 4))


def test_trace_subfield_and_errors():
    f = get_field(2, 2, 4)
    with pytest.raises(NotASubfield):
        trace(f, 1, 8, 3)
    with pytest.raises(NotASubfield):
        trace(f, f.alpha, 2, 1)  # alpha generates F_256, not F_4
    # intermediate trace of a subfield element
    sub = f.subfield_indices(4)
    assert trace(f, int(sub[2]), 4, 2) in f.subfield_indices(2)


def test_trace_linear_and_surjective():
    # exhaustive over a couple of small fields
    for (p, s, m) in [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2)]:
        f = get_field(p, s, m)
        tr = f.trace_map(1)
        prime_vals = set(range(p))
        assert set(tr.tolist()) == prime_vals  # onto the prime field
        for x in range(f.order):
            for y in range(f.order):
                assert tr[f.add(x, y)] == f.add(int(tr[x]), int(tr[y]))
        # scalar linearity over the target subfield (prime field here)
        for c in range(p):
            for x in range(f.order):
                assert int(tr[f.mul(c, x)]) == f.mul(c, int(tr[x]))
        # each fiber has the same size
        assert np.bincount(tr, minlength=p).tolist() == [f.order // p] * p


@pytest.mark.parametrize("p,s,m", [(2, 1, 8), (2, 2, 4), (3, 1, 6), (3, 2, 2), (5, 1, 4), (7, 1, 3)])
def test_trace_map_matches_the_frobenius_reference(p, s, m):
    # the map built from n basis images, on every index and every t | n,
    # and the scalar trace on every element of the degree-f subfield, t | f | n
    fld = get_field(p, s, m)
    for f in (f for f in range(1, fld.n + 1) if fld.n % f == 0):
        for t in (t for t in range(1, f + 1) if f % t == 0):
            reference = frobenius_trace_map(fld, t, f)
            if f == fld.n:
                tr = fld.trace_map(t)
                assert tr.dtype == np.int32
                assert np.array_equal(tr, reference)
            assert all(
                int(reference[x]) == trace(fld, x, f, t)
                for x in fld.subfield_indices(f).tolist()
            )


@pytest.mark.parametrize("p,s,m,t", [(2, 1, 4, 1), (2, 1, 4, 2), (3, 1, 4, 1), (5, 1, 2, 1)])
def test_trace_map_refuses_an_image_outside_the_subfield(monkeypatch, p, s, m, t):
    # a builder that moves one entry of the map off F_{p^t} is refused by the
    # map's whole-field check
    g = get_field(p, s, m)
    fld = FieldTable(g.params, g.modulus, g.alpha)  # no trace sequence built yet
    outside = min(set(range(fld.order)) - set(fld.subfield_indices(t).tolist()))
    real = gpaley.field._linear_map

    def moved(p, n, images, dtype=None):
        out = real(p, n, images, dtype)
        out[fld.order // 3] = outside
        return out

    with monkeypatch.context() as patch:
        patch.setattr(gpaley.field, "_linear_map", moved)
        with pytest.raises(NotASubfield, match="^trace image escaped the target subfield$"):
            fld.trace_map(t)
    # one basis image moved off F_{p^t} is refused by both: the map by its
    # whole-field check, the sequence by its check of the n basis images;
    # nothing refused is kept
    real_sum = fld._frobenius_sum

    def moved_image(a, t, r):
        out = real_sum(a, t, r).copy()
        out[-1] = outside
        return out

    monkeypatch.setattr(fld, "_frobenius_sum", moved_image)
    with pytest.raises(NotASubfield, match="^trace image escaped the target subfield$"):
        fld.trace_map(t)
    with pytest.raises(NotASubfield, match="^trace image escaped the target subfield$"):
        fld.trace_sequence(t)
    assert t not in fld._sequence_cache


@pytest.mark.parametrize("p,s,m,t", [(2, 1, 4, 2), (2, 1, 8, 4), (3, 1, 4, 2), (7, 1, 4, 2)])
def test_trace_sequence_refuses_members_off_their_keys(monkeypatch, p, s, m, t):
    # a member's position is its key only while the members are listed in
    # index order; a listing with two members swapped is refused, and
    # nothing refused is kept
    g = get_field(p, s, m)
    fld = FieldTable(g.params, g.modulus, g.alpha)  # no trace sequence built yet
    real = fld.subfield_indices

    def swapped(t):
        out = real(t).copy()
        out[[1, 2]] = out[[2, 1]]
        return out

    monkeypatch.setattr(fld, "subfield_indices", swapped)
    with pytest.raises(InternalCheckError, match=rf"^the members of F_{{{p}\^{t}}} do not sit "):
        fld.trace_sequence(t)
    assert t not in fld._sequence_cache


@pytest.mark.parametrize(
    "p,s,m",
    [(2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 1, 8),
     # p = 2 with t = 9, 10: keys past one byte
     (2, 1, 9), (2, 1, 10),
     # odd p with t > 1: subfields whose pivots are not their lowest digits
     (3, 1, 6), (5, 1, 4), (7, 1, 4)],
)
def test_trace_sequence_is_the_reference_trace_in_log_order(p, s, m):
    # entry i is the position of Tr(alpha^i) among the subfield indices, in
    # the narrowest unsigned dtype that holds p^t, for every t | n
    fld = get_field(p, s, m)
    for t in (t for t in range(1, fld.n + 1) if fld.n % t == 0):
        reference = frobenius_trace_map(fld, t, fld.n)[fld.exp]
        sequence = fld.trace_sequence(t)
        assert sequence.dtype == np.min_scalar_type(p**t)
        assert np.array_equal(sequence, np.searchsorted(fld.subfield_indices(t), reference))


def test_trace_sequence_widens_for_the_sentinel(monkeypatch):
    # 256 subfield positions fit a byte, the first position past them does
    # not: the sequence is uint16, so a planted 256 reads as 256, not as 0,
    # and the forms histogram refuses it
    g = get_field(2, 8, 2)
    fld = FieldTable(g.params, g.modulus, g.alpha)  # no trace sequence built yet
    sequence = fld.trace_sequence(8)
    assert sequence.dtype == np.uint16
    assert np.array_equal(np.unique(sequence), np.arange(256))
    corrupted = sequence.copy()
    corrupted[1] = 256
    monkeypatch.setitem(fld._sequence_cache, 8, corrupted)
    with pytest.raises(InternalCheckError, match="form took a value outside the subfield"):
        TraceForm(fld, fld.alpha, 1).histogram


@pytest.mark.parametrize("used", ["every", "lowest", "gapped", "none"])
@pytest.mark.parametrize("p,n", [(3, 5), (5, 3), (7, 3), (131, 2)])
def test_linear_map_is_the_digit_dot_product(p, n, used):
    # each index x = sum x_i p^i goes to sum x_i images[i], digit by digit
    # mod p; the images use only the digit positions named by ``used``, and
    # at p = 131 two digits sum past 255
    rng = np.random.default_rng(p * n)
    positions = {"every": list(range(n)), "lowest": [0], "gapped": [0, 2] if n > 2 else [1],
                 "none": []}[used]
    image_digits = np.zeros((n, n), dtype=np.int64)
    image_digits[:, positions] = rng.integers(0, p, (n, len(positions)))
    image_digits[0, positions] = p - 1  # every listed position is used
    weights = p ** np.arange(n, dtype=np.int64)
    images = (image_digits @ weights).tolist()
    x_digits = np.arange(p**n, dtype=np.int64)[:, None] // weights % p
    expected = (x_digits @ image_digits % p) @ weights
    out = gpaley.field._linear_map(p, n, images)
    assert out.dtype == np.int32
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("p,n", [(2, 64), (3, 41)])
def test_digits_refuse_a_weight_past_int64(p, n):
    # p^(n-1) >= 2^63 would wrap in int64: 2^63 read digit 63 of 5 as 1,
    # and 3^40 read digit 40 of 5 as 2. One size smaller, every digit of the
    # largest int64 index is the Python integer's
    with pytest.raises(ValueError, match=rf"F_{{{p}\^{n}}}: the weight {p}\^{n - 1} "):
        gpaley.field._digits(5, p, n)
    top = np.iinfo(np.int64).max
    digits = gpaley.field._digits(top, p, n - 1).tolist()
    assert digits == [top // p**i % p for i in range(n - 1)]
    assert gpaley.field._digits(5, p, n - 1).tolist() == [5 // p**i % p for i in range(n - 1)]


@pytest.mark.parametrize(
    "p, n, admitted",
    [(2**31 - 1, 1, True), (2, 31, False), (2**31 + 1, 1, False)],
    ids=["2^31-1", "2^31", "2^31+1"],
)
def test_tables_are_int32_below_2_to_the_31(p, n, admitted):
    # the rule alone, read on sizes whose tables are never built: every
    # index and exponent of a field below 2^31 fits int32, and a larger
    # field is refused by name rather than held in a second dtype
    if admitted:
        assert gpaley.field._table_dtype(p, n) is np.int32
    else:
        with pytest.raises(ValueError, match=rf"^F_{{{p}\^{n}}}: .* int32"):
            gpaley.field._table_dtype(p, n)


def test_a_field_past_int32_is_refused_under_a_raised_budget():
    # F_{2^31} passes a raised table budget, and the build refuses it by
    # the dtype rule, read before its first table; nothing is memoized
    get_field.cache_clear()
    with pytest.raises(ValueError, match=r"^F_\{2\^31\}: "):
        get_field(2, 1, 31, max_order=2**31)
    assert gpaley.field._memoized_table.cache_info().currsize == 0


@pytest.mark.parametrize("p, s, m", [(2, 1, 20), (3, 1, 13)])
def test_pow_array_takes_the_log_product_in_int64(p, s, m):
    # log(x) e passes 2^31 for large logs and e near p^n - 1, and an int32
    # product would wrap without an error
    fld = get_field(p, s, m)
    units = fld.order - 1
    xs = fld.exp[[units - 1, units // 2 + 7, 3 * units // 4]].astype(np.int64)
    try:
        for e in (units - 1, units - 2, units + 5, -(units - 3)):
            expected = [power(p, fld.n, fld.modulus, int(x), e % units) for x in xs]
            assert fld.pow_array(xs, e).tolist() == expected, e
    finally:
        get_field.cache_clear()


def test_a_large_field_and_its_trace_sequences_peak_below_20_mib():
    # F_{2^20} with both of its trace sequences, traced by tracemalloc:
    # 28.0 MiB with int64 tables and whole-field gathers, and about 16 MiB
    # with int32 tables gathered in intp runs
    get_field.cache_clear()
    tracemalloc.start()
    try:
        fld = get_field(2, 1, 20)
        fld.trace_sequence(1), fld.trace_sequence(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    try:
        assert peak < 20 * 2**20
        assert fld.exp.nbytes == 4 * (fld.order - 1)
    finally:
        get_field.cache_clear()


def test_a_trace_sequence_builds_no_whole_field_trace_map():
    # trace_sequence(1) on F_{2^20} once its tables are built, traced by
    # tracemalloc: 7.25 MiB while it built the int32 trace map, a mask and a
    # position table; the byte-wide keys and the sequence are 1 MiB each
    get_field.cache_clear()
    try:
        fld = get_field(2, 1, 20)
        tracemalloc.start()
        try:
            fld.trace_sequence(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
    finally:
        get_field.cache_clear()


@pytest.mark.parametrize("p, s, m", [(2, 1, 8), (3, 2, 2), (5, 1, 4)])
def test_trace_of_an_index_array_is_the_scalar_trace(p, s, m):
    # one call on an array of subfield elements, against one call on each
    fld = get_field(p, s, m)
    for f in (f for f in range(1, fld.n + 1) if fld.n % f == 0):
        members = fld.subfield_indices(f)
        for t in (t for t in range(1, f + 1) if f % t == 0):
            traces = trace(fld, members, f, t)
            assert traces.tolist() == [trace(fld, x, f, t) for x in members.tolist()]
    outside = np.array([0, 1, fld.alpha])  # alpha generates the whole field
    with pytest.raises(NotASubfield, match=f"^element {fld.alpha} not in the degree-1 subfield$"):
        trace(fld, outside, 1, 1)
    for bad in (np.array([0, fld.order]), np.array([1, -1]), np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="is not an element index"):
            trace(fld, bad, fld.n, 1)


def test_frobenius_additive():
    for (p, s, m) in [(2, 1, 4), (3, 1, 3), (5, 1, 2)]:
        f = get_field(p, s, m)
        for x in range(f.order):
            for y in range(f.order):
                lhs = f.pow(f.add(x, y), p)
                rhs = f.add(f.pow(x, p), f.pow(y, p))
                assert lhs == rhs


def test_zech_round_trip():
    # 1 + alpha^i by the digit-wise reference, since f.add reads the Zech table
    for (p, s, m) in [(2, 1, 4), (3, 1, 2), (3, 1, 4), (2, 2, 2)]:
        f = get_field(p, s, m)
        one_plus = digit_add(1, f.exp, p, f.n)
        zero = one_plus == 0
        assert np.array_equal(f.zech < 0, zero)
        assert np.array_equal(f.exp[f.zech[~zero]], one_plus[~zero])


@pytest.mark.parametrize("p, s, m", [(2, 1, 1), (2, 1, 4), (3, 1, 1), (3, 1, 4), (2, 2, 6),
                                     (5, 1, 3), (7, 1, 2), (2, 1, 15)])
def test_the_field_certificate_passes_every_built_table_and_refuses_one_wrong_entry(p, s, m):
    # the tables get_field builds pass; a copy with one log entry moved, or,
    # for odd p, one Zech entry moved, is refused
    f = get_field(p, s, m)
    certify_field(f)
    units = f.order - 1
    for table, i in [("log", int(f.exp[-1])), ("zech", units // 2)][: 1 + (p > 2)]:
        faulty = copy.copy(f)
        wrong = getattr(f, table).copy()
        wrong[i] = (wrong[i] + 1) % max(units, 2)
        setattr(faulty, table, wrong)
        with pytest.raises(InternalCheckError, match=table):
            certify_field(faulty)
    if units > 2:
        # exp[1] and exp[2] swapped in exp and in log alike: log still
        # inverts exp, so only the digit-matrix step can refuse it
        faulty = copy.copy(f)
        faulty.exp, faulty.log = f.exp.copy(), f.log.copy()
        faulty.exp[[1, 2]] = f.exp[[2, 1]]
        faulty.log[f.exp[[1, 2]]] = [2, 1]
        with pytest.raises(InternalCheckError, match=r"exp\[1\] is not alpha times exp\[0\]"):
            certify_field(faulty)


@pytest.mark.parametrize("p, s, m", [(2, 1, 12), (3, 1, 6), (7, 1, 4), (5, 1, 8)])
def test_the_field_certificate_does_not_trust_the_map_it_gathers_by(monkeypatch, p, s, m):
    # the certificate's index map of x -> alpha x and the build's giant step
    # both come from _linear_map: on a table built by the real map, a map
    # that moves the one entry at exp[i] must be refused at exp[i + 1]
    f = get_field(p, s, m)
    real, units = gpaley.field._linear_map, f.order - 1
    for i in (0, units // 2, units - 1):
        at = int(f.exp[i])

        def moved(*args, at=at):
            out = real(*args)
            out[at] = (out[at] + 1) % f.order
            return out

        monkeypatch.setattr(gpaley.field, "_linear_map", moved)
        with pytest.raises(InternalCheckError,
                           match=rf"exp\[{i + 1}\] is not alpha times exp\[{i}\]"):
            certify_field(f)
    monkeypatch.undo()
    certify_field(f)


def test_the_field_certificate_refuses_an_exp_entry_past_the_field():
    # an exp entry outside [0, N) is refused as the image of the entry
    # before it, not read as an index
    f = get_field(3, 1, 4)
    for i, value in [(5, f.order), (7, f.order + 3), (9, -1)]:
        faulty = copy.copy(f)
        faulty.exp = f.exp.copy()
        faulty.exp[i] = value
        with pytest.raises(InternalCheckError, match=rf"exp\[{i}\] is not alpha times"):
            certify_field(faulty)


def test_zech_is_built_only_when_read():
    # p = 2 adds by XOR, so its Zech table is never built; odd p builds it at
    # the first addition and keeps it, and traces, digit-matrix products,
    # read no Zech table
    get_field.cache_clear()
    f = get_field(2, 1, 6)
    f.mul(3, 5), f.pow(3, 7), f.add_arrays(np.arange(64), 9), f.trace_map(1)
    assert build_graph(GraphSpec(2, 1, 6, 1)).field is f
    assert "zech" not in vars(f)
    g = get_field(3, 1, 4)
    g.trace_map(1), g.trace_sequence(2), trace(g, 5, 4, 1), trace(g, 1, 4, 2)
    assert "zech" not in vars(g)
    g.add(1, 1)
    zech = vars(g)["zech"]
    g.add(5, 7), g.add_arrays(np.arange(81), 2)
    assert g.zech is zech


def test_every_name_of_a_field_shares_its_table():
    # F_256 over F_2 and over F_4 is one field: one exp and log table and one
    # trace sequence per degree, under two params that the spec guard reads
    get_field.cache_clear()
    a, b = get_field(2, 1, 8), get_field(2, 2, 4)
    assert a is get_field(2, 1, 8) and b is get_field(2, 2, 4) and a is not b
    assert np.shares_memory(a.exp, b.exp) and np.shares_memory(a.log, b.log)
    assert (a.params, b.params) == (FieldParams(2, 1, 8), FieldParams(2, 2, 4))
    assert (field_to_dict(a)["s"], field_to_dict(b)["s"]) == (1, 2)
    connection_set(GraphSpec(2, 2, 4, 1), b)
    with pytest.raises(ValueError, match="^field does not match spec$"):
        connection_set(GraphSpec(2, 2, 4, 1), a)
    assert b.trace_sequence(2) is a.trace_sequence(2)
    get_field.cache_clear()
    for old, new in ((a, get_field(2, 1, 8)), (b, get_field(2, 2, 4))):
        assert new is not old and not np.shares_memory(new.exp, old.exp)
    get_field.cache_clear()


def test_two_names_of_one_odd_field_build_one_zech_table():
    # F_81 over F_3 and over F_9: the first addition through either name
    # builds the Zech table, and the other name reads that same array
    get_field.cache_clear()
    a, b = get_field(3, 1, 4), get_field(3, 2, 2)
    b.add(1, 2)
    assert a.zech is b.zech
    c, d = get_field(5, 1, 2), get_field(5, 2, 1)
    c.add(1, 2)
    assert d.zech is c.zech
    get_field.cache_clear()


def test_exp_log_inverse():
    f = get_field(3, 1, 4)
    for i in range(f.order - 1):
        assert int(f.log[f.exp[i]]) == i
    for x in range(1, f.order):
        assert int(f.exp[f.log[x]]) == x


def test_arithmetic_axioms_sampled():
    f = get_field(3, 1, 3)
    rng = np.random.default_rng(7)
    xs = rng.integers(0, f.order, 40)
    for x in xs:
        x = int(x)
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
        for y in xs[:10]:
            y = int(y)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.add(x, y) == f.add(y, x)


@pytest.mark.parametrize(
    "bad", [-1, -15, 16, 2.5, 2.7, 1.0, 2.0, np.float64(3.0), True, False, np.bool_(True)]
)
def test_scalar_ops_refuse_an_index_outside_the_field(bad):
    # a negative index used to wrap to the last elements (mul(-1, 1) gave
    # 15 and inv(-1) gave 8 on F_16) and 16 raised IndexError; a float was
    # truncated (mul(2.5, 3) gave 6, neg(1.0) gave 1) or raised IndexError
    # (inv(2.7)) or TypeError (add(2.0, 1)), and True was taken as 1
    f = get_field(2, 1, 4)
    calls = [
        lambda: f.add(bad, 0), lambda: f.add(0, bad), lambda: f.neg(bad),
        lambda: f.mul(bad, 1), lambda: f.mul(1, bad), lambda: f.inv(bad),
        lambda: f.pow(bad, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))} is not an element index"):
            call()


@pytest.mark.parametrize("params", [(2, 1, 4), (3, 1, 2)], ids=str)
def test_scalar_ops_take_python_and_numpy_integers(params):
    # add(2.5, 1) on F_9 used to return 0, the sum of 2 and 1
    f = get_field(*params)
    for a, b in [(np.int64(2), np.uint8(1)), (np.int32(2), 1), (2, np.uint64(1))]:
        assert (f.add(a, b), f.mul(a, b), f.neg(a), f.inv(a), f.pow(a, 3)) == (
            f.add(2, 1), f.mul(2, 1), f.neg(2), f.inv(2), f.pow(2, 3))
    with pytest.raises(ValueError, match="^2.5 is not an element index"):
        f.add(2.5, 1)


@pytest.mark.parametrize("t", [True, 2.0])
def test_subfield_degree_must_be_an_integer(t):
    # True acted as degree 1, and 2.0 failed with a bare TypeError
    f = get_field(2, 1, 4)
    for call in (f.subfield_indices, f.trace_map):
        with pytest.raises(ValueError, match=f"^subfield degree must be an integer, not {t}$"):
            call(t)


@pytest.mark.parametrize(
    "from_degree, to_degree, name, bad",
    [(8, True, "to_degree", "True"), (True, 1, "from_degree", "True"),
     (8, 2.0, "to_degree", "2.0"), (8.0, 2, "from_degree", "8.0")],
)
def test_trace_refuses_a_degree_that_is_not_an_integer(from_degree, to_degree, name, bad):
    # trace(f, 5, 8, True) used to return 0, the trace to degree 1
    f = get_field(2, 1, 8)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(bad)}$"):
        trace(f, 5, from_degree, to_degree)


@pytest.mark.parametrize("e", [2.0, 0.5, np.float64(3.0), True, False])
def test_pow_refuses_an_exponent_that_is_not_an_integer(e):
    # a float exponent used to raise numpy's IndexError, and a bool was
    # taken as 1 or 0
    f = get_field(2, 1, 4)
    for call in (lambda: f.pow(3, e), lambda: f.pow_array(np.arange(16), e)):
        with pytest.raises(ValueError, match=f"^exponent {e} is not an integer$"):
            call()
    for n in (np.int64(5), np.int32(-3), np.uint8(5)):
        assert f.pow(3, n) == f.pow(3, int(n))


def test_vector_ops_match_scalar():
    # the whole-array products and powers against the scalar ones, which are
    # the same kernels at one index; addition and negation are held to the
    # digit-wise reference below, and negative powers to square-and-multiply
    f = get_field(3, 1, 3)
    idx = np.arange(f.order, dtype=np.int64)
    for e in [4, 0, -1, -5]:
        base = idx if e >= 0 else idx[1:]
        powed = f.pow_array(base, e)
        for i, x in enumerate(base.tolist()):
            assert int(powed[i]) == f.pow(x, e)
    for x in range(1, f.order):
        assert f.pow(x, -1) == f.inv(x) == power(3, 3, f.modulus, x, f.order - 2)
        assert f.pow(x, -5) == power(3, 3, f.modulus, x, -5 % (f.order - 1))
    # zero to a negative power has no value, at one index or in an array
    with pytest.raises(ZeroElement):
        f.pow(0, -1)
    with pytest.raises(ZeroElement):
        f.pow_array(np.array([0, 1, 2]), -1)
    for b in [0, 1, 5, 20]:
        prod = f.mul_array(idx, b)
        for x in range(f.order):
            assert int(prod[x]) == f.mul(x, b)
    # two arrays broadcast against each other
    table = f.mul_array(idx[:, None], idx)
    assert table.shape == (f.order, f.order)
    assert table.tolist() == [[f.mul(x, y) for y in range(f.order)] for x in range(f.order)]


@pytest.mark.parametrize(
    "p, s, m", [(3, 2, 1), (5, 1, 2), (3, 1, 3), (7, 1, 2), (3, 2, 2), (11, 1, 2), (2, 3, 2)]
)
def test_addition_matches_the_digitwise_reference(p, s, m):
    """F_9, F_25, F_27, F_49, F_81, F_121 and F_64: every pair, zero operands
    and a = -b included, whole-array and scalar."""
    f = get_field(p, s, m)
    n, idx = f.n, np.arange(f.order, dtype=np.int64)
    a, b = np.meshgrid(idx, idx, indexing="ij")
    expect = digit_add(a, b, p, n)
    assert np.array_equal(f.add_arrays(a, b), expect)
    assert np.array_equal(f.add_arrays(idx[:, None], idx), expect)
    assert np.array_equal(f.add_arrays(idx, 0), idx)
    assert np.array_equal(f.add_arrays(0, idx), idx)
    neg = digit_neg(idx, p, n)
    assert np.array_equal(f.neg_array(idx), neg)
    assert not f.add_arrays(idx, neg).any()
    for x in range(f.order):
        assert f.neg(x) == neg[x]
        for y in range(f.order):
            assert f.add(x, y) == expect[x, y]


def test_addition_broadcasts_a_row_block():
    """A (256, 1) column of row indices broadcast against a row, as
    build_graph fills a block of rows."""
    f = get_field(3, 1, 6)
    idx = np.arange(f.order, dtype=np.int64)
    rows = idx[300:556, None]
    assert np.array_equal(f.add_arrays(rows, idx), digit_add(rows, idx, 3, 6))


def test_serialization_round_trip():
    # the record's modulus and generator rebuild the very tables
    f = get_field(3, 1, 4)
    d = field_to_dict(f)
    assert d == {"p": 3, "s": 1, "m": 4, "modulus": list(f.modulus), "alpha": f.alpha}
    g = FieldTable(FieldParams(d["p"], d["s"], d["m"]), d["modulus"], d["alpha"])
    assert np.array_equal(g.exp, f.exp)
    assert element_to_string(f, 37) == "1011"  # 37 = 1 + 0*3 + 1*9 + 1*27, little-endian


@pytest.mark.parametrize("p, s, m", [(13, 1, 1), (11, 1, 2), (3, 1, 4)])
def test_element_strings_round_trip(p, s, m):
    # p > 10 writes comma-separated digits, F_13's index 12 as "12"; the n
    # digits read back little-endian give the index
    f = get_field(p, s, m)
    for x in range(f.order):
        text = element_to_string(f, x)
        digits = [int(d) for d in (text.split(",") if p > 10 else text)]
        assert len(digits) == f.n and sum(d * p**i for i, d in enumerate(digits)) == x


@pytest.mark.parametrize(
    "modulus, alpha",
    [
        ((2, 1, 2), 4),  # not monic; the arithmetic would reduce by x^2 + x + 2
        ((1, 0, 2), 4),  # the canonical x^2 + 1 with leading coefficient 2
        ((1, 2, 0, 1), 4),  # degree 3, the modulus of F_27
        ((1, 0), 1),  # degree 1
        ((4, 0, 1), 4),  # a coefficient outside F_3
        ((2, 0, 1), 4),  # x^2 - 1 = (x - 1)(x + 1) is reducible
        ((0, 0, 1), 4),  # x^2 is reducible
        ((1, 0, 1), 3),  # x has order 4 modulo x^2 + 1, not 8
        ((1, 0, 1), 0),  # zero
        ((1, 0, 1), 9),  # not an element index
    ],
)
def test_field_table_rejects_a_modulus_or_alpha_that_defines_no_field(modulus, alpha):
    with pytest.raises(ValueError, match=r"F_3\^2"):
        FieldTable(FieldParams(3, 1, 2), modulus, alpha)


def test_field_table_accepts_any_primitive_alpha():
    f = get_field(3, 1, 2)
    assert (f.modulus, f.alpha) == ((1, 0, 1), 4)
    same = FieldTable(f.params, f.modulus, f.alpha)
    assert np.array_equal(same.exp, f.exp) and np.array_equal(same.zech, f.zech)
    other = FieldTable(f.params, f.modulus, f.exp[3])  # alpha^3, also primitive
    assert np.array_equal(other.exp, f.exp[(3 * np.arange(8)) % 8])


def _fields_up_to(limit, prime_powers):
    return [
        (p, s, m) for p, s in prime_powers for m in range(1, 23) if p ** (s * m) <= limit
    ]


@pytest.mark.parametrize(
    "p, s, m",
    _fields_up_to(1024, [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (11, 1)]),
)
def test_exp_table_matches_the_power_reference(p, s, m):
    # the canonical alpha, and alpha^3, which is a generator exactly when
    # gcd(3, p^n - 1) = 1; otherwise the table must refuse it
    f = get_field(p, s, m)
    assert f.exp.dtype == f.log.dtype == np.int32
    assert f.exp.tolist() == power_table(p, f.n, f.modulus, f.alpha)
    if f.order <= 4:
        return
    cube = power_table(p, f.n, f.modulus, int(f.exp[3]))
    if len(set(cube)) < f.order - 1:
        with pytest.raises(ValueError, match="does not generate"):
            FieldTable(f.params, f.modulus, f.exp[3])
    else:
        assert FieldTable(f.params, f.modulus, f.exp[3]).exp.tolist() == cube


def test_tables_are_reproducible_across_versions():
    # one digest of (p, s, m), exp, log, zech and every trace map
    # Tr_{p^f / p^t} with t | f | n, over 63 fields up to 2^16 elements; the
    # field builds Tr_{p^n / p^t}, and the reference gives the f < n maps
    digest = hashlib.sha256()
    fields = _fields_up_to(
        1 << 16, [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (11, 1), (13, 1), (2, 3)]
    )
    assert len(fields) == 63
    for p, s, m in fields:
        fld = get_field(p, s, m)
        digest.update(repr((p, s, m)).encode())
        # hashed as int64, the dtype the digest was pinned in
        for table in (fld.exp, fld.log, fld.zech):
            digest.update(table.astype(np.int64).tobytes())
        for f in (f for f in range(1, fld.n + 1) if fld.n % f == 0):
            for t in (t for t in range(1, f + 1) if f % t == 0):
                tr = fld.trace_map(t) if f == fld.n else frobenius_trace_map(fld, t, f)
                digest.update(tr.astype(np.int64).tobytes())
        get_field.cache_clear()
    assert digest.hexdigest() == (
        "d753dfa9adf177005e60f9b625e3d7c92c558b0c3a256ba87ac52f3e768731d6"
    )


@pytest.mark.parametrize(
    "p, s, m, digests",
    [
        (2, 1, 20, ("d9bbf13f33c1e260", "bd9e1410691d8862", "2a0abd96033a731a")),
        (2, 2, 10, ("d9bbf13f33c1e260", "bd9e1410691d8862", "2a0abd96033a731a")),
        (3, 1, 12, ("1739f36a6fe74e61", "8cbffb47be3c6acb", "76e90a6eaf50c22e")),
        (5, 1, 8, ("82ed0e210ffaa723", "90a519ab2ddbd6c8", "44340ecc23f72f3d")),
        (2, 1, 22, ("f4d7f9e633ca2c97", "03fd9e992155b34f", "5df9efbe711cc0e7")),
        (3, 1, 13, ("9cfbfd76dce39f38", "e72543565514e260", "d59bfb73bdf0067e")),
    ],
)
def test_large_tables_are_reproducible(p, s, m, digests):
    # sha256 prefixes of exp, log and zech, hashed as int64, the dtype they
    # were pinned in, and exp around the first block boundaries against
    # square-and-multiply powers
    fld = get_field(p, s, m)
    tables = (fld.exp, fld.log, fld.zech)
    assert all(t.dtype == np.int32 for t in tables)
    assert tuple(
        hashlib.sha256(t.astype(np.int64).tobytes()).hexdigest()[:16] for t in tables
    ) == digests
    block = math.isqrt(fld.order - 1)
    for i in (block - 1, block, block + 1, fld.order - 2):
        assert fld.exp[i] == power(p, fld.n, fld.modulus, fld.alpha, i)
    get_field.cache_clear()


def _mobius(n: int) -> int:
    sign, d = 1, 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return sign


@pytest.mark.parametrize("p, top", [(2, 10), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2)])
def test_irreducibility_test_accepts_gauss_count(p, top):
    # of the p^n monic candidates of degree n, exactly
    # (1/n) sum_{d | n} mu(d) p^(n/d) are irreducible
    for n in range(1, top + 1):
        accepted = sum(
            gpaley.field._is_irreducible([c // p**i % p for i in range(n)] + [1], p)
            for c in range(p**n)
        )
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert accepted * n == sum(_mobius(d) * p ** (n // d) for d in divisors), n


@pytest.mark.parametrize(
    "p, s, m", [(2, 1, 1), (2, 1, 4), (2, 1, 8), (2, 2, 3), (3, 1, 4), (5, 1, 3), (7, 1, 2),
                (89, 1, 1), (89, 1, 2)],
)
def test_alpha_is_the_least_primitive_index(p, s, m):
    # every smaller nonzero index has a smaller multiplicative order, each
    # order taken by the reference's list-polynomial powers
    f = get_field(p, s, m)
    units = f.order - 1
    assert element_order(f, f.alpha) == units
    assert all(element_order(f, x) < units for x in range(1, f.alpha))


def test_modulus_is_minimal_irreducible():
    # every smaller monic candidate of degree 4 over F_2 must be reducible:
    # scan indices below the chosen one and factor-check by root/gcd brute force
    f = get_field(2, 1, 4)
    chosen = sum(c << i for i, c in enumerate(f.modulus[:-1]))
    for c in range(chosen):
        coeffs = [(c >> i) & 1 for i in range(4)] + [1]
        assert _reducible_deg4_over_f2(coeffs)


def _reducible_deg4_over_f2(coeffs):
    # has a root, or is a product of two irreducible quadratics (only x^2+x+1)
    def ev(x_poly, val_bits):
        # evaluate in F_2[x]/(irrelevant): here just check roots in F_2
        return sum(c * val_bits**i for i, c in enumerate(x_poly)) % 2

    if ev(coeffs, 0) == 0 or ev(coeffs, 1) == 0:
        return True
    # (x^2+x+1)^2 = x^4+x^2+1
    return coeffs == [1, 0, 1, 0, 1]
