import numpy as np
import pytest

import gpaley.field
from gpaley.applications import (
    ZetaFactorization,
    family_table,
    ihara_zeta,
    is_ramanujan,
    verify_waring,
    waring_number,
    zeta_json,
)
from gpaley.errors import DegenerateGraph, Disconnected, NotApplicable, NotInFamily
from gpaley.field import get_field
from gpaley.graphs import GraphSpec, build_graph, enumerate_family
from reference import bareiss_determinant, digit_add, digit_neg

PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


# ---------------------------------------------------------------------------
# Waring numbers
# ---------------------------------------------------------------------------

def test_waring_examples():
    cert = waring_number(GraphSpec(2, 1, 4, 1))
    assert (cert.k_exp, cert.field_size, cert.g) == (3, 16, 2)
    assert len(cert.witnesses) == 16
    assert verify_waring(cert, get_field(2, 1, 4))

    cert = waring_number(GraphSpec(3, 1, 4, 1))
    assert (cert.k_exp, cert.g) == (4, 2)
    assert verify_waring(cert, get_field(3, 1, 4))

    cert = waring_number(GraphSpec(2, 1, 3, 1))  # complete-graph case
    assert (cert.k_exp, cert.g) == (3, 1)
    assert verify_waring(cert, get_field(2, 1, 3))
    # cubing is a bijection of F_8, so every witness has y = 0
    assert all(y == 0 for _, y in cert.witnesses.values())


def _brute_force_witnesses(spec):
    """The least root of every power, and for each element a outside the
    powers the first power b in ascending order with a - b a power, found
    with the digit-wise reference addition."""
    f = get_field(spec.p, spec.s, spec.m)
    e = spec.q**spec.ell + 1
    roots = {}
    for x in range(f.order):
        roots.setdefault(f.pow(x, e), x)
    powers = np.array(sorted(set(roots) - {0}), dtype=np.int64)
    neg_powers = digit_neg(powers, spec.p, f.n)
    witnesses = {}
    for a in range(f.order):
        if a in roots:
            witnesses[a] = (roots[a], 0)
            continue
        diffs = digit_add(a, neg_powers, spec.p, f.n).tolist()
        first = next(i for i, d in enumerate(diffs) if d in roots)
        witnesses[a] = (roots[diffs[first]], roots[int(powers[first])])
    return witnesses


@pytest.mark.parametrize(
    "spec",
    [GraphSpec(2, 1, 4, 1), GraphSpec(3, 1, 4, 1), GraphSpec(7, 1, 4, 1), GraphSpec(2, 1, 5, 1)],
    ids=GraphSpec.label,
)
def test_waring_witnesses_match_a_brute_force_search(spec):
    # Gamma_{2,5}(1) is a complete case: cubing is onto F_32
    cert = waring_number(spec)
    assert cert.witnesses == _brute_force_witnesses(spec)
    assert verify_waring(cert, get_field(spec.p, spec.s, spec.m))


def test_waring_g2_means_a_pair_is_needed():
    cert = waring_number(GraphSpec(2, 1, 4, 1))
    used_pairs = [w for w in cert.witnesses.values() if 0 not in w]
    assert used_pairs  # g would be 1 otherwise


def test_waring_not_applicable():
    with pytest.raises(NotApplicable):
        waring_number(GraphSpec(2, 1, 4, 2))  # ell = m/2
    with pytest.raises(NotApplicable):
        waring_number(GraphSpec(3, 1, 3, 1))  # odd q, odd m_ell
    with pytest.raises(NotApplicable):
        waring_number(GraphSpec(2, 1, 4, 1, True))


def test_waring_symbolic_beyond_budget():
    cert = waring_number(GraphSpec(2, 1, 20, 1), max_order=0)
    assert cert.g == 2 and cert.witnesses is None


def test_waring_without_witnesses_builds_no_table():
    get_field.cache_clear()
    cert = waring_number(GraphSpec(2, 1, 4, 1), max_order=0)
    assert cert.g == 2 and cert.witnesses is None
    assert gpaley.field._memoized_field.cache_info().currsize == 0


def test_verify_waring_refuses_a_certificate_without_witnesses():
    # nothing to re-evaluate is not a pass; the refusal comes before the
    # field is read, so F_16 stands in for F_{2^20}
    cert = waring_number(GraphSpec(2, 1, 20, 1), max_order=0)
    with pytest.raises(NotApplicable):
        verify_waring(cert, get_field(2, 1, 4))
    capped = waring_number(GraphSpec(2, 1, 4, 1), max_order=8)
    assert capped.witnesses is None
    with pytest.raises(NotApplicable):
        verify_waring(capped, get_field(2, 1, 4))


# ---------------------------------------------------------------------------
# Ramanujan classification
# ---------------------------------------------------------------------------

def test_ramanujan_examples():
    assert is_ramanujan(GraphSpec(2, 1, 4, 1)) is True  # 9 <= 16
    assert is_ramanujan(GraphSpec(2, 1, 12, 3)) is False  # 3249 > 1816
    assert is_ramanujan(GraphSpec(2, 1, 12, 3, True)) is True


def test_ramanujan_aliases_of_base4():
    # (2, 2t, 2) rewrites to (4, t, 1): positive cases despite ell != 1
    assert is_ramanujan(GraphSpec(2, 1, 8, 2)) is True
    assert is_ramanujan(GraphSpec(2, 1, 12, 2)) is True


def test_ramanujan_double_path_sweep():
    """The squared-gap evaluation and the closed classification agree on
    every proper spec with q <= 9, m <= 12 (is_ramanujan raises if the two
    paths ever split), and every complement is Ramanujan."""
    positives = []
    for p, s in PRIME_POWERS:
        for m in range(2, 13):
            for spec in enumerate_family(p, s, m):
                if spec.is_half:
                    continue
                if is_ramanujan(spec):
                    positives.append(spec)
                assert is_ramanujan(spec.complement()) is True
    # the positives are exactly the base-{2,3,4} power-1 members
    for spec in positives:
        canon = spec.canonical()
        assert canon.q in (2, 3, 4) and canon.m >= 4
    assert len(positives) == 17


def test_ramanujan_complement_includes_half_case():
    assert is_ramanujan(GraphSpec(2, 1, 4, 2, True)) is True
    assert is_ramanujan(GraphSpec(3, 1, 2, 1, True)) is True


def test_ramanujan_errors():
    with pytest.raises(Disconnected):
        is_ramanujan(GraphSpec(2, 1, 4, 2))
    with pytest.raises(NotInFamily):
        is_ramanujan(GraphSpec(2, 1, 3, 1))


# ---------------------------------------------------------------------------
# the three families' tables
# ---------------------------------------------------------------------------

TABLE_F2 = {
    (2, False): ((16, 5, 0, 2), ((5, 1), (1, 10), (-3, 5))),
    (2, True): ((16, 10, 6, 6), ((10, 1), (2, 5), (-2, 10))),
    (3, False): ((64, 21, 8, 6), ((21, 1), (5, 21), (-3, 42))),
    (3, True): ((64, 42, 26, 30), ((42, 1), (2, 42), (-6, 21))),
    (4, False): ((256, 85, 24, 30), ((85, 1), (5, 170), (-11, 85))),
    (4, True): ((256, 170, 114, 110), ((170, 1), (10, 85), (-6, 170))),
}

TABLE_F3 = {
    (2, False): ((81, 20, 1, 6), ((20, 1), (2, 60), (-7, 20))),
    (2, True): ((81, 60, 45, 42), ((60, 1), (6, 20), (-3, 60))),
    (3, False): ((729, 182, 55, 42), ((182, 1), (20, 182), (-7, 546))),
    (3, True): ((729, 546, 405, 420), ((546, 1), (6, 546), (-21, 182))),
    (4, False): ((6561, 1640, 379, 420), ((1640, 1), (20, 4920), (-61, 1640))),
    # complement degree is v - k - 1 = 6561 - 1640 - 1 = 4920 (= 3(9^4-1)/4)
    (4, True): ((6561, 4920, 3699, 3660), ((4920, 1), (60, 1640), (-21, 4920))),
}

TABLE_F4 = {
    (2, False): ((256, 51, 2, 12), ((51, 1), (3, 204), (-13, 51))),
    (2, True): ((256, 204, 164, 156), ((204, 1), (12, 51), (-4, 204))),
    (3, False): ((4096, 819, 194, 156), ((819, 1), (51, 819), (-13, 3276))),
    (3, True): ((4096, 3276, 2612, 2652), ((3276, 1), (12, 3276), (-52, 819))),
    (4, False): ((65536, 13107, 2498, 2652), ((13107, 1), (51, 52428), (-205, 13107))),
    (4, True): ((65536, 52428, 41972, 41820), ((52428, 1), (204, 13107), (-52, 52428))),
}


@pytest.mark.parametrize("q,table", [(2, TABLE_F2), (3, TABLE_F3), (4, TABLE_F4)])
def test_family_tables(q, table):
    rows = family_table(q, 4)
    assert len(rows) == 6
    for spec, rec, sp in rows:
        t = spec.m // 2
        want_params, want_spec = table[(t, spec.complemented)]
        assert rec.params() == want_params
        assert sp.pairs == want_spec
        assert rec.ramanujan is True


def test_family_formula_coherence_to_t8():
    # the t-parameterized displays equal the closed parameters up to t = 8
    for q in (2, 3, 4):
        rows = family_table(q, 8)
        assert len(rows) == 14  # family_table raises internally on mismatch


def test_family_table_rejects_other_bases():
    with pytest.raises(NotInFamily):
        family_table(5, 3)


# ---------------------------------------------------------------------------
# Ihara zeta
# ---------------------------------------------------------------------------

def _nonbacktracking_det(adj: np.ndarray, u: int) -> int:
    """det(I - uB), the reciprocal Ihara zeta at u by its definition: B is
    the non-backtracking matrix on arcs, B[(x,y),(y,z)] = 1 for z != x."""
    arcs = [(int(x), int(y)) for x, y in np.argwhere(adj)]
    index = {arc: i for i, arc in enumerate(arcs)}
    mat = np.eye(len(arcs), dtype=np.int64)
    for i, (x, y) in enumerate(arcs):
        for z in np.flatnonzero(adj[y]):
            if z != x:
                mat[i, index[(y, int(z))]] -= u
    return bareiss_determinant(mat)


def _zeta_json_at(payload: dict, u: int) -> int:
    """The emitted factorization (1-u^2)^square_exp * prod (1 + a u + b u^2)^exp at u."""
    value = (1 - u * u) ** int(payload["square_exp"])
    for f in payload["factors"]:
        value *= (1 + int(f["linear_coeff"]) * u + int(f["quad_coeff"]) * u * u) ** int(f["exp"])
    return value


def test_zeta_clebsch():
    z = ihara_zeta(GraphSpec(2, 1, 4, 1))
    assert z.square_factor_exponent == 24
    assert z.quad_coeff == 4
    assert z.factors == ((5, 1), (1, 10), (-3, 5))
    zc = ihara_zeta(GraphSpec(2, 1, 4, 1, True))
    assert zc.square_factor_exponent == 64
    assert zc.quad_coeff == 9
    assert zc.factors == ((10, 1), (2, 5), (-2, 10))
    # Ihara's theorem, exactly, on the 80- and 160-arc graphs: the emitted
    # factors reproduce det(I - 2B)
    for spec, zeta in ((GraphSpec(2, 1, 4, 1), z), (GraphSpec(2, 1, 4, 1, True), zc)):
        adj = build_graph(spec).adjacency
        assert _nonbacktracking_det(adj, 2) == _zeta_json_at(zeta_json(zeta), 2)


def test_zeta_brouwer_haemers():
    z = ihara_zeta(GraphSpec(3, 1, 4, 1))
    assert z.square_factor_exponent == 729
    assert z.quad_coeff == 19
    assert z.factors == ((20, 1), (2, 60), (-7, 20))
    zc = ihara_zeta(GraphSpec(3, 1, 4, 1, True))
    assert zc.square_factor_exponent == 2349
    assert zc.factors == ((60, 1), (6, 20), (-3, 60))
    # the complement is 60-regular, so its quadratic coefficient is 59
    assert zc.quad_coeff == 59


def test_zeta_sanity_invariants():
    for spec in [GraphSpec(2, 1, 6, 1), GraphSpec(3, 1, 4, 2, True), GraphSpec(2, 2, 4, 1)]:
        z = ihara_zeta(spec)
        n = spec.order
        sp_k = z.factors[0][0]
        edges = n * sp_k // 2
        assert z.square_factor_exponent == edges - n
        assert z.total_degree() == 2 * edges
        # u = 0 plugs to 1 in every factor by construction
        payload = zeta_json(z)
        assert payload["square_exp"] == str(edges - n)


def test_zeta_errors():
    with pytest.raises(Disconnected):
        ihara_zeta(GraphSpec(2, 1, 4, 2))
    with pytest.raises(DegenerateGraph):
        ihara_zeta(GraphSpec(2, 1, 2, 1))
    with pytest.raises(DegenerateGraph):
        ihara_zeta(GraphSpec(2, 1, 2, 1, True))  # the 4-cycle is bipartite
