import decimal
import math
from fractions import Fraction

import pytest

import gpaley.spectra
from gpaley.arith import int_to_str
from gpaley.applications import ihara_zeta, is_ramanujan, waring_number
from gpaley.errors import (
    DegenerateGraph,
    Disconnected,
    InternalCheckError,
    NotApplicable,
    NotInFamily,
)
from gpaley.graphs import GraphSpec, enumerate_family, is_subgraph
from gpaley.spectra import (
    closed_walks,
    eigenvalue_relations_check,
    intersection_array,
    invariant_bounds,
    latin_square_class,
    ramanujan_by_inequality,
    spanning_trees,
    spectrum,
    srg_params,
    tree_count_text,
)

PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _family_specs(max_m=16, max_order=None):
    for p, s in PRIME_POWERS:
        for m in range(2, max_m + 1):
            if max_order is not None and (p**s) ** m > max_order:
                continue
            yield from enumerate_family(p, s, m)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectrum_examples():
    assert spectrum(GraphSpec(2, 1, 12, 1)).pairs == ((1365, 1), (21, 2730), (-43, 1365))
    assert spectrum(GraphSpec(3, 1, 4, 1)).pairs == ((20, 1), (2, 60), (-7, 20))
    assert spectrum(GraphSpec(2, 1, 4, 1, True)).pairs == ((10, 1), (2, 5), (-2, 10))
    assert spectrum(GraphSpec(2, 1, 4, 2)).pairs == ((3, 4), (-1, 12))


def test_spectrum_rejects_non_family():
    with pytest.raises(NotInFamily):
        spectrum(GraphSpec(2, 1, 3, 1))  # complete-graph case
    with pytest.raises(NotInFamily):
        spectrum(GraphSpec(3, 1, 4, 0))  # classic Paley


def test_moment_identities_all_family_members():
    for spec in _family_specs(16):
        for s in (spec, spec.complement()):
            sp = spectrum(s)
            assert sp.v == s.order
            assert sp.moment(1) == 0
            assert sp.moment(2) == s.order * sp.k


def test_half_case_spectra():
    sp = spectrum(GraphSpec(3, 1, 2, 1))
    assert sp.pairs == ((2, 3), (-1, 6))
    spc = spectrum(GraphSpec(3, 1, 2, 1, True))
    assert spc.pairs == ((6, 1), (0, 6), (-3, 2))


def test_eigenvalue_relations():
    for spec in _family_specs(16):
        if not spec.is_half:
            assert eigenvalue_relations_check(spec) == []


def test_relations_worked_values():
    # -q^ell * upsilon = mu + 1 at (2,12,1): -2*21 = -42 = -43 + 1
    sp = spectrum(GraphSpec(2, 1, 12, 1))
    k, ups, mu = 1365, 21, -43
    assert sp.pairs[0] == (k, 1)
    assert -2 * ups == mu + 1
    # complement degree and mubar at (2,12,3): kbar = 8*455, mubar = 8*7
    spc = spectrum(GraphSpec(2, 1, 12, 3, True))
    assert spc.pairs[0] == (3640, 1)
    assert spc.multiplicity(56) == 455  # mubar = q^ell * upsilon = 56


def test_eigenvalue_shift_law():
    # second eigenvalue at extension degree 2m + 2*ell equals the third at 2m
    cases = [(2, 1, 1, 12), (2, 1, 1, 8), (3, 1, 1, 6), (2, 2, 1, 6), (2, 1, 3, 12)]
    for p, s, ell, two_m in cases:
        lo = spectrum(GraphSpec(p, s, two_m, ell))
        hi = spectrum(GraphSpec(p, s, two_m + 2 * ell, ell))
        k_hi = hi.pairs[0][0]
        q = p**s
        ups_hi = next(lam for lam, mult in hi.pairs if mult == q**ell * k_hi)
        mu_lo = next(lam for lam, mult in lo.pairs if mult == lo.pairs[0][0] and lam != lo.k)
        assert ups_hi == mu_lo
    # spot value: q=2, ell=1, degree 14 upsilon = -43 = mu at degree 12
    hi = spectrum(GraphSpec(2, 1, 14, 1))
    assert hi.multiplicity(-43) == 2 * hi.k


# ---------------------------------------------------------------------------
# srg parameters
# ---------------------------------------------------------------------------

def test_srg_examples():
    assert srg_params(GraphSpec(2, 1, 12, 1)).params() == (4096, 1365, 440, 462)
    assert srg_params(GraphSpec(2, 2, 4, 1)).params() == (256, 51, 2, 12)
    assert srg_params(GraphSpec(3, 1, 4, 1, True)).params() == (81, 60, 45, 42)


def test_srg_half_cases():
    assert srg_params(GraphSpec(2, 1, 4, 2)).params() == (16, 3, 2, 0)
    assert srg_params(GraphSpec(2, 1, 4, 2, True)).params() == (16, 12, 8, 12)
    with pytest.raises(DegenerateGraph):
        srg_params(GraphSpec(2, 1, 2, 1))
    # the complement of the degenerate case is the 4-cycle
    assert srg_params(GraphSpec(2, 1, 2, 1, True)).params() == (4, 2, 0, 2)


# The result, or the exception type, of each closed form on one spec of each
# kind: which guard answers first is part of the interface.
_GUARD_CALLS = {
    "spectrum": lambda s: spectrum(s).pairs,
    "srg_params": lambda s: srg_params(s).params(),
    "intersection_array": lambda s: intersection_array(s).as_tuple(),
    "invariant_bounds": lambda s: (lambda b: (b.girth, b.clique_exact))(invariant_bounds(s)),
    "ramanujan_by_inequality": ramanujan_by_inequality,
    "is_ramanujan": is_ramanujan,
    "ihara_zeta": lambda s: ihara_zeta(s).square_factor_exponent,
    "waring_number": lambda s: waring_number(s, max_order=0).g,
}
_CONNECTED_ONLY = ("intersection_array", "invariant_bounds", "ramanujan_by_inequality",
                   "is_ramanujan", "ihara_zeta")
_NOT_PROPER = dict.fromkeys(("spectrum", "srg_params") + _CONNECTED_ONLY, NotInFamily)
_HALF_PRIMAL = dict.fromkeys(_CONNECTED_ONLY, Disconnected)
_GUARD_TABLE = [
    # not proper (m_ell = 3), and ell = 0; both are complete Waring cases
    (GraphSpec(2, 1, 3, 1), {**_NOT_PROPER, "waring_number": 1}),
    (GraphSpec(2, 1, 4, 0), {**_NOT_PROPER, "waring_number": 1}),
    (GraphSpec(2, 1, 4, 2), {**_HALF_PRIMAL, "spectrum": ((3, 4), (-1, 12)),
                             "srg_params": (16, 3, 2, 0), "waring_number": NotApplicable}),
    (GraphSpec(2, 1, 4, 2, True), {
        "spectrum": ((12, 1), (0, 12), (-4, 3)), "srg_params": (16, 12, 8, 12),
        "intersection_array": (12, 3, 1, 12), "invariant_bounds": (3, 4),
        "ramanujan_by_inequality": True, "is_ramanujan": True, "ihara_zeta": 80,
        "waring_number": NotApplicable}),
    (GraphSpec(2, 1, 2, 1), {**_HALF_PRIMAL, "spectrum": ((1, 2), (-1, 2)),
                             "srg_params": DegenerateGraph, "ihara_zeta": DegenerateGraph,
                             "waring_number": NotApplicable}),
    (GraphSpec(2, 1, 2, 1, True), {
        "spectrum": ((2, 1), (0, 2), (-2, 1)), "srg_params": (4, 2, 0, 2),
        "intersection_array": (2, 1, 1, 2), "invariant_bounds": DegenerateGraph,
        "ramanujan_by_inequality": True, "is_ramanujan": True, "ihara_zeta": DegenerateGraph,
        "waring_number": NotApplicable}),
    (GraphSpec(2, 1, 4, 1), {
        "spectrum": ((5, 1), (1, 10), (-3, 5)), "srg_params": (16, 5, 0, 2),
        "intersection_array": (5, 4, 1, 2), "invariant_bounds": (4, None),
        "ramanujan_by_inequality": True, "is_ramanujan": True, "ihara_zeta": 24,
        "waring_number": 2}),
    (GraphSpec(2, 1, 4, 1, True), {
        "spectrum": ((10, 1), (2, 5), (-2, 10)), "srg_params": (16, 10, 6, 6),
        "intersection_array": (10, 3, 1, 6), "invariant_bounds": (3, None),
        "ramanujan_by_inequality": True, "is_ramanujan": True, "ihara_zeta": 64,
        "waring_number": NotApplicable}),
]


@pytest.mark.parametrize("spec, expected", _GUARD_TABLE, ids=[s.label() for s, _ in _GUARD_TABLE])
def test_guard_precedence_table(spec, expected):
    observed = {}
    for name, call in _GUARD_CALLS.items():
        try:
            observed[name] = call(spec)
        except Exception as exc:  # the table records which exception answers
            observed[name] = type(exc)
    assert observed == expected


def test_srg_params_are_held_to_the_stated_form(monkeypatch):
    # e and d read off the spectrum must equal the paper's (e, d) on the
    # primal graph and the complement rule on its complement
    stated = gpaley.spectra._core_e_d

    def shifted(spec):
        e, d = stated(spec)
        return e + 1, d

    monkeypatch.setattr(gpaley.spectra, "_core_e_d", shifted)
    specs = [spec for spec in _family_specs(12, max_order=2**12) if not spec.is_half]
    assert len(specs) == 15
    for spec in specs:
        for s in (spec, spec.complement()):
            with pytest.raises(InternalCheckError):
                srg_params(s)


def test_srg_identity_and_flags_family_wide():
    for spec in _family_specs(16, max_order=1 << 40):
        for s in (spec, spec.complement()):
            if (s.q, s.m, s.ell, s.complemented) == (2, 2, 1, False):
                continue
            rec = srg_params(s)
            assert (rec.v - rec.k - 1) * rec.d == rec.k * (rec.k - rec.e - 1)
            assert rec.conference is False  # ell >= 1 throughout the family
            assert rec.primitive == (not s.is_half)
            if not s.is_half or s.complemented:
                assert rec.vertex_connectivity == rec.k
            else:
                assert rec.vertex_connectivity == 0


def test_complement_involution():
    for spec in list(_family_specs(12, max_order=1 << 30))[:40]:
        if (spec.q, spec.m, spec.ell) == (2, 2, 1):
            continue
        rec = srg_params(spec)
        back = srg_params(spec.complement().complement())
        assert rec == back
        sp, spc = spectrum(spec), spectrum(spec.complement())
        if not spec.is_half:
            vals = sorted(lam for lam, _ in sp.pairs[1:] + spc.pairs[1:])
            # nontrivial eigenvalues pair up as lambda + lambdabar = -1
            lo, hi = vals[0], vals[-1]
            assert any(lam + lam2 == -1 for lam in (lo, hi) for lam2, _ in sp.pairs)


def test_primal_and_complement_parameters_never_collide():
    primal, comp = set(), set()
    for spec in _family_specs(16, max_order=1 << 16):
        if (spec.q, spec.m, spec.ell) == (2, 2, 1):
            continue
        primal.add(srg_params(spec).params())
        comp.add(srg_params(spec.complement()).params())
    assert primal and comp
    assert not primal & comp


def test_subgraph_divisibility():
    for p, s in PRIME_POWERS:
        for m in range(2, 17):
            fam = enumerate_family(p, s, m)
            for a in fam:
                for b in fam:
                    if a == b or not is_subgraph(a, b):
                        continue
                    spa, spb = spectrum(a), spectrum(b)
                    ka, kb = spa.k, spb.k
                    assert kb % ka == 0
                    q = p**s
                    ups_a = next(l for l, mult in spa.pairs if mult == q**a.ell * ka)
                    ups_b = next(l for l, mult in spb.pairs if mult == q**b.ell * kb)
                    assert ups_b % ups_a == 0
                    edges_a = closed_walks(a, 2) // 2
                    edges_b = closed_walks(b, 2) // 2
                    assert edges_b % edges_a == 0


# ---------------------------------------------------------------------------
# intersection arrays
# ---------------------------------------------------------------------------

def test_intersection_array_examples():
    assert intersection_array(GraphSpec(2, 1, 12, 1)).as_tuple() == (1365, 924, 1, 462)
    assert intersection_array(GraphSpec(2, 1, 12, 3)).as_tuple() == (455, 448, 1, 56)
    assert intersection_array(GraphSpec(2, 1, 12, 1, True)).as_tuple() == (2730, 903, 1, 1806)
    assert intersection_array(GraphSpec(2, 1, 12, 3, True)).as_tuple() == (3640, 399, 1, 3192)


def test_intersection_array_disconnected():
    with pytest.raises(Disconnected):
        intersection_array(GraphSpec(2, 1, 4, 2))
    # complete multipartite complement is fine
    assert intersection_array(GraphSpec(2, 1, 4, 2, True)).as_tuple() == (12, 3, 1, 12)


def test_primal_b1_identity_family_wide():
    for spec in _family_specs(14, max_order=1 << 30):
        if spec.is_half:
            continue
        rec = srg_params(spec)
        arr = intersection_array(spec)
        assert arr.as_tuple() == (rec.k, rec.k - rec.e - 1, 1, rec.d)
        assert arr.b1 == spec.q**spec.ell * rec.d


# ---------------------------------------------------------------------------
# Latin square classification
# ---------------------------------------------------------------------------

def test_latin_square_examples():
    assert latin_square_class(GraphSpec(2, 1, 6, 1)) == (-3, 8)
    assert latin_square_class(GraphSpec(3, 1, 4, 1)) is None  # m_ell/2 = 2 even
    assert latin_square_class(GraphSpec(2, 1, 12, 3)) is None  # m_ell = 4
    assert latin_square_class(GraphSpec(3, 1, 6, 1)) == (-7, 27)


def test_latin_square_parameter_shape():
    for spec in _family_specs(12, max_order=1 << 24):
        ls = latin_square_class(spec)
        if ls is None:
            continue
        s_, u = ls
        rec = srg_params(spec)
        assert (u * u, -s_ * (u - 1), s_ * s_ + 3 * s_ + u, s_ * (s_ + 1)) == rec.params()
        assert u == spec.q ** (spec.m // 2)


# ---------------------------------------------------------------------------
# walks and trees
# ---------------------------------------------------------------------------

def test_walk_examples():
    assert closed_walks(GraphSpec(2, 1, 4, 1), 3) == 0
    assert closed_walks(GraphSpec(2, 1, 4, 1, True), 3) == 960  # 160 triangles
    for spec in (GraphSpec(3, 1, 4, 1), GraphSpec(2, 1, 12, 3)):
        assert closed_walks(spec, 2) == spec.order * spectrum(spec).k


def test_walk_divisibility():
    for spec in _family_specs(12, max_order=1 << 24):
        for s in (spec, spec.complement()):
            k = spectrum(s).k
            for r in (2, 3, 4, 5, 6):
                assert closed_walks(s, r) % k == 0


def test_tree_examples():
    assert spanning_trees(GraphSpec(2, 1, 4, 1)) == 2**31
    assert spanning_trees(GraphSpec(2, 1, 4, 1, True)) == 2**31 * 3**10
    assert spanning_trees(GraphSpec(2, 1, 4, 2)) == 0
    assert spanning_trees(GraphSpec(2, 1, 4, 2, True)) == 4**4 * 12**12
    # spectrum-product and hand product forms agree internally; call a few more
    for spec in (GraphSpec(3, 1, 4, 1), GraphSpec(3, 1, 6, 1), GraphSpec(2, 1, 8, 2)):
        assert spanning_trees(spec) > 0
        assert spanning_trees(spec.complement()) > 0


def test_tree_count_text_is_the_decimal_of_the_int():
    # every proper member with q^m < 2^16 and its complement, plus a count
    # of about 300k digits on both sides
    specs = list(_family_specs(16, max_order=2**16 - 1))
    assert len(specs) == 45
    for spec in specs + [GraphSpec(2, 1, 16, 1)]:
        for s in (spec, spec.complement()):
            text = tree_count_text(s)
            assert text.isdigit() and (text == "0" or text[0] != "0")
            assert text == int_to_str(spanning_trees(s))


def test_tree_count_is_held_to_the_hand_product_form(monkeypatch):
    # both routes evaluate the hand product form and must refuse a count
    # that disagrees with the spectrum product
    stated = gpaley.spectra._hand_tree_factors
    monkeypatch.setattr(
        gpaley.spectra, "_hand_tree_factors", lambda spec: stated(spec) + ((2, 1),)
    )
    specs = [spec for spec in _family_specs(12, max_order=2**12) if not spec.is_half]
    assert len(specs) == 15
    for spec in specs:
        for s in (spec, spec.complement()):
            with pytest.raises(InternalCheckError, match="product form"):
                spanning_trees(s)
            with pytest.raises(InternalCheckError, match="product form"):
                tree_count_text(s)


def test_tree_count_text_leaves_the_decimal_context_as_it_was():
    def state():
        ctx = decimal.getcontext()
        return ctx.prec, ctx.Emax, dict(ctx.traps)

    before = state()
    assert len(tree_count_text(GraphSpec(2, 1, 16, 1))) > 10**5
    assert state() == before


# ---------------------------------------------------------------------------
# invariant bounds
# ---------------------------------------------------------------------------

def test_invariant_bounds_examples():
    ib = invariant_bounds(GraphSpec(3, 1, 4, 1))
    assert ib.clique_upper == Fraction(108, 28)
    assert math.floor(ib.clique_upper) == 3
    assert ib.clique_exact is None
    assert ib.diameter == 2 and ib.girth == 3

    ib = invariant_bounds(GraphSpec(2, 1, 6, 1))
    assert ib.clique_exact == ib.independence_exact == ib.chromatic_exact == 8

    assert invariant_bounds(GraphSpec(2, 1, 4, 1)).girth == 4
    assert invariant_bounds(GraphSpec(2, 1, 4, 1, True)).girth == 3


def test_invariant_bounds_isoperimetric_and_connectivity():
    for spec in _family_specs(12, max_order=1 << 24):
        if spec.is_half or (spec.q, spec.m, spec.ell) == (2, 2, 1):
            continue
        for s in (spec, spec.complement()):
            ib = invariant_bounds(s)
            sp = spectrum(s)
            assert ib.algebraic_connectivity == sp.second_largest()
            assert ib.laplacian_gap == sp.k - sp.second_largest()
            assert ib.isoperimetric_lower == Fraction(ib.laplacian_gap, 2)
            assert ib.isoperimetric_upper_sq == sp.k**2 - sp.second_largest() ** 2
            assert ib.isoperimetric_lower**2 <= ib.isoperimetric_upper_sq
            assert ib.isoperimetric_upper_floor**2 <= ib.isoperimetric_upper_sq


def test_invariant_bounds_errors():
    with pytest.raises(Disconnected):
        invariant_bounds(GraphSpec(2, 1, 4, 2))
    with pytest.raises(DegenerateGraph):
        invariant_bounds(GraphSpec(2, 1, 2, 1, True))
