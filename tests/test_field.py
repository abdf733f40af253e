import hashlib
import math

import numpy as np
import pytest

from gpaley.errors import BudgetExceeded, CompositeP, NotASubfield, ZeroElement
from gpaley.field import (
    FieldParams,
    FieldTable,
    element_from_string,
    element_order,
    element_to_string,
    field_from_dict,
    field_to_dict,
    get_field,
    trace,
)
from gpaley.graphs import GraphSpec, build_graph
from reference import digit_add, digit_neg, frobenius_trace_map, power, power_table


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
                assert tr.dtype == np.int64
                assert np.array_equal(tr, reference)
            assert all(
                int(reference[x]) == trace(fld, x, f, t)
                for x in fld.subfield_indices(f).tolist()
            )


def test_element_order_examples():
    f = get_field(2, 1, 4)
    assert element_order(f, 1) == 1
    assert element_order(f, f.alpha) == 15
    assert element_order(f, f.pow(f.alpha, 5)) == 3  # 15 / gcd(15, 5)
    with pytest.raises(ZeroElement):
        element_order(f, 0)


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


def test_zech_is_built_only_when_read():
    # p = 2 adds by XOR, so its Zech table is never built; odd p builds it at
    # the first addition and keeps it
    get_field.cache_clear()
    f = get_field(2, 1, 6)
    f.mul(3, 5), f.pow(3, 7), f.add_arrays(np.arange(64), 9), f.trace_map(1)
    assert build_graph(GraphSpec(2, 1, 6, 1)).field is f
    assert "zech" not in vars(f)
    g = get_field(3, 1, 4)
    assert "zech" not in vars(g)
    g.add(1, 1)
    zech = vars(g)["zech"]
    g.add(5, 7), g.add_arrays(np.arange(81), 2)
    assert g.zech is zech


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


def test_vector_ops_match_scalar():
    # the whole-array products and powers against the scalar ones; addition
    # and negation are held to the digit-wise reference below instead, since
    # the scalar add and neg call the array kernels
    f = get_field(3, 1, 3)
    idx = np.arange(f.order, dtype=np.int64)
    powed = f.pow_array(idx, 4)
    for x in range(f.order):
        assert int(powed[x]) == f.pow(x, 4)
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
    f = get_field(3, 1, 4)
    d = field_to_dict(f)
    g = field_from_dict(d)
    assert g.modulus == f.modulus and g.alpha == f.alpha
    assert np.array_equal(g.exp, f.exp)
    s = element_to_string(f, 37)
    assert element_from_string(f, s) == 37
    assert s == "1011"  # 37 = 1 + 0*3 + 1*9 + 1*27, little-endian digits


@pytest.mark.parametrize("p, s, m", [(13, 1, 1), (11, 1, 2), (3, 1, 4)])
def test_element_strings_round_trip(p, s, m):
    # p > 10 writes comma-separated digits, F_13's index 12 as "12"
    f = get_field(p, s, m)
    for x in range(f.order):
        assert element_from_string(f, element_to_string(f, x)) == x
    with pytest.raises(ValueError):
        element_from_string(f, "")


@pytest.mark.parametrize(
    "modulus, alpha",
    [
        ([2, 1, 2], 3),  # not monic; the arithmetic would reduce by x^2 + x + 2
        ([1, 0, 2], 4),  # the canonical x^2 + 1 with leading coefficient 2
        ([1, 2, 0, 1], 4),  # degree 3, the modulus of F_27
        ([1, 0, 1], 3),  # x has order 4 modulo x^2 + 1, not 8
    ],
)
def test_field_from_dict_rejects_a_noncanonical_field(modulus, alpha):
    with pytest.raises(ValueError, match=r"F_3\^2"):
        field_from_dict({"p": 3, "s": 1, "m": 2, "modulus": modulus, "alpha": alpha})


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
    assert f.exp.dtype == np.int64
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
        for table in (fld.exp, fld.log, fld.zech):
            digest.update(table.tobytes())
        for f in (f for f in range(1, fld.n + 1) if fld.n % f == 0):
            for t in (t for t in range(1, f + 1) if f % t == 0):
                tr = fld.trace_map(t) if f == fld.n else frobenius_trace_map(fld, t, f)
                digest.update(tr.tobytes())
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
    # sha256 prefixes of exp, log and zech, and exp around the first block
    # boundaries against square-and-multiply powers
    fld = get_field(p, s, m)
    tables = (fld.exp, fld.log, fld.zech)
    assert tuple(hashlib.sha256(t.tobytes()).hexdigest()[:16] for t in tables) == digests
    block = math.isqrt(fld.order - 1)
    for i in (block - 1, block, block + 1, fld.order - 2):
        assert fld.exp[i] == power(p, fld.n, fld.modulus, fld.alpha, i)
    get_field.cache_clear()


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
