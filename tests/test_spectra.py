import decimal
import hashlib

import pytest

import gpaley.applications
import gpaley.spectra
from gpaley.arith import int_to_str, is_prime
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
    intersection_array,
    latin_square_class,
    record_json,
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


@pytest.mark.parametrize("r", [0, -2])
def test_closed_walks_refuses_a_length_below_one(r):
    with pytest.raises(ValueError, match="^walk length must be positive$"):
        closed_walks(GraphSpec(2, 1, 4, 1), r)


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


def test_half_case_spectra_are_disjoint_cliques_and_complete_multipartite():
    # at ell = m/2 the Gauss-period formula and the complement rule give
    # u = q^(m/2) disjoint K_u and the complete u-partite graph K_{u x u}
    half = [
        GraphSpec(p, s, 2 * t, t)
        for p in range(2, 2**10 + 1)
        if is_prime(p)
        for s in range(1, 11)
        for t in range(1, 11)
        if p ** (s * t) <= 2**10
    ]
    assert len(half) == 236 and all(spec.is_half for spec in half)
    for spec in half:
        u = spec.q ** spec.ell
        assert spectrum(spec).pairs == ((u - 1, u), (-1, u * (u - 1)))
        assert spectrum(spec.complement()).pairs == ((u * (u - 1), 1), (0, u * (u - 1)), (-u, u - 1))


@pytest.mark.parametrize("shift", [(0, 1, 0), (0, 0, 1)], ids=["upsilon", "mu"])
def test_spectrum_refuses_shifted_core_eigenvalues(monkeypatch, shift):
    # -q^ell upsilon = mu + 1 is the first moment, so an upsilon or a mu off
    # by one must fail the moment checks of every spectrum, primal or
    # complement, ell = m/2 included
    stated = gpaley.spectra._core_eigenvalues
    monkeypatch.setattr(
        gpaley.spectra,
        "_core_eigenvalues",
        lambda spec: tuple(x + dx for x, dx in zip(stated(spec), shift)),
    )
    specs = list(_family_specs(16, max_order=2**16))
    assert len(specs) == 52
    for spec in specs:
        for s in (spec, spec.complement()):
            with pytest.raises(InternalCheckError):
                spectrum(s)


def test_each_record_reads_few_spectra(monkeypatch):
    # each rule reads the spectrum its caller already holds: record_json
    # evaluates one for itself, one per srg record (two: srg_params and
    # intersection_array) and one for the tree count; srg_params and
    # is_ramanujan one each
    calls = []
    evaluate = gpaley.spectra.spectrum

    def counted(spec):
        calls.append(spec)
        return evaluate(spec)

    for module in (gpaley.spectra, gpaley.applications):
        monkeypatch.setattr(module, "spectrum", counted)
    spec = GraphSpec(2, 1, 12, 1)
    for call, most in ((record_json, 4), (srg_params, 1), (is_ramanujan, 1)):
        calls.clear()
        call(spec)
        assert len(calls) <= most, call.__name__


def test_relations_worked_values():
    # -q^ell * upsilon = mu + 1 at (2,12,1): -2*21 = -42 = -43 + 1
    sp = spectrum(GraphSpec(2, 1, 12, 1))
    k, ups, mu = 1365, 21, -43
    assert sp.pairs[0] == (k, 1)
    assert -2 * ups == mu + 1
    # complement degree and mubar at (2,12,3): kbar = 8*455, mubar = 8*7
    spc = spectrum(GraphSpec(2, 1, 12, 3, True))
    assert spc.pairs[0] == (3640, 1)
    assert dict(spc.pairs)[56] == 455  # mubar = q^ell * upsilon = 56


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
    assert dict(hi.pairs)[-43] == 2 * hi.k


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
    "intersection_array": intersection_array,
    "girth": lambda s: srg_params(s).girth,
    "is_ramanujan": is_ramanujan,
    "ihara_zeta": lambda s: ihara_zeta(s).square_factor_exponent,
    "waring_number": lambda s: waring_number(s).g,
}
_CONNECTED_ONLY = ("intersection_array", "is_ramanujan", "ihara_zeta")
_NOT_PROPER = dict.fromkeys(("spectrum", "srg_params", "girth") + _CONNECTED_ONLY, NotInFamily)
_HALF_PRIMAL = dict.fromkeys(_CONNECTED_ONLY, Disconnected)
_GUARD_TABLE = [
    # not proper (m_ell = 3), and ell = 0; both are complete Waring cases
    (GraphSpec(2, 1, 3, 1), {**_NOT_PROPER, "waring_number": 1}),
    (GraphSpec(2, 1, 4, 0), {**_NOT_PROPER, "waring_number": 1}),
    (GraphSpec(2, 1, 4, 2), {**_HALF_PRIMAL, "spectrum": ((3, 4), (-1, 12)),
                             "srg_params": (16, 3, 2, 0), "girth": 3,
                             "waring_number": NotApplicable}),
    (GraphSpec(2, 1, 4, 2, True), {
        "spectrum": ((12, 1), (0, 12), (-4, 3)), "srg_params": (16, 12, 8, 12),
        "intersection_array": (12, 3, 1, 12), "girth": 3,
        "is_ramanujan": True, "ihara_zeta": 80,
        "waring_number": NotApplicable}),
    (GraphSpec(2, 1, 2, 1), {**_HALF_PRIMAL, "spectrum": ((1, 2), (-1, 2)),
                             "srg_params": DegenerateGraph, "girth": DegenerateGraph,
                             "ihara_zeta": DegenerateGraph,
                             "waring_number": NotApplicable}),
    (GraphSpec(2, 1, 2, 1, True), {
        "spectrum": ((2, 1), (0, 2), (-2, 1)), "srg_params": (4, 2, 0, 2),
        "intersection_array": (2, 1, 1, 2), "girth": 4,
        "is_ramanujan": True, "ihara_zeta": DegenerateGraph,
        "waring_number": NotApplicable}),
    (GraphSpec(2, 1, 4, 1), {
        "spectrum": ((5, 1), (1, 10), (-3, 5)), "srg_params": (16, 5, 0, 2),
        "intersection_array": (5, 4, 1, 2), "girth": 4,
        "is_ramanujan": True, "ihara_zeta": 24,
        "waring_number": 2}),
    (GraphSpec(2, 1, 4, 1, True), {
        "spectrum": ((10, 1), (2, 5), (-2, 10)), "srg_params": (16, 10, 6, 6),
        "intersection_array": (10, 3, 1, 6), "girth": 3,
        "is_ramanujan": True, "ihara_zeta": 64,
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
    specs = list(_family_specs(12, max_order=2**12))
    assert len(specs) == 34  # 19 of them with ell = m/2
    for spec in specs:
        # the (2,2,1) primal has no srg parameters to hold
        sides = [spec.complement()] if spec.is_degenerate else [spec, spec.complement()]
        for s in sides:
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
    assert intersection_array(GraphSpec(2, 1, 12, 1)) == (1365, 924, 1, 462)
    assert intersection_array(GraphSpec(2, 1, 12, 3)) == (455, 448, 1, 56)
    assert intersection_array(GraphSpec(2, 1, 12, 1, True)) == (2730, 903, 1, 1806)
    assert intersection_array(GraphSpec(2, 1, 12, 3, True)) == (3640, 399, 1, 3192)


def test_intersection_array_disconnected():
    with pytest.raises(Disconnected):
        intersection_array(GraphSpec(2, 1, 4, 2))
    # complete multipartite complement is fine
    assert intersection_array(GraphSpec(2, 1, 4, 2, True)) == (12, 3, 1, 12)


def test_primal_b1_identity_family_wide():
    for spec in _family_specs(14, max_order=1 << 30):
        if spec.is_half:
            continue
        rec = srg_params(spec)
        b0, b1, c1, c2 = intersection_array(spec)
        assert (b0, b1, c1, c2) == (rec.k, rec.k - rec.e - 1, 1, rec.d)
        assert b1 == spec.q**spec.ell * rec.d


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


@pytest.mark.parametrize("r", [2.0, True, 2.5])
def test_walk_length_must_be_an_integer(r):
    # 2.0 used to give the float 80.0 and True the r = 1 count 0
    with pytest.raises(ValueError, match=f"^walk length r must be an integer, not {r}$"):
        closed_walks(GraphSpec(2, 1, 4, 1), r)


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
    # 2^30 disjoint cliques: zero without forming a power of 2^30 factors
    assert spanning_trees(GraphSpec(2, 1, 60, 30)) == 0
    assert tree_count_text(GraphSpec(2, 1, 60, 30)) == "0"
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


def _swap_last_exponents(factors):
    *head, (a, i), (b, j) = factors
    return (*head, (a, j), (b, i))


def _split_first_factor(factors):
    (q, e), *tail = factors
    return ((q, e - 1), (q, 1), *tail)


def test_tree_count_is_held_to_the_hand_product_form(monkeypatch):
    # both routes hold the hand product form to the spectrum product and
    # must refuse a count that disagrees with it: one with an extra factor
    # 2, and one with the exponents of its last two factors swapped. On an
    # ell = m/2 primal graph the hand form has a zero base, so a corrupted
    # form is still zero and equal to the count; its complement is held
    stated = gpaley.spectra._hand_tree_factors
    specs = list(_family_specs(12, max_order=2**12))
    assert len(specs) == 34
    for corrupt in (lambda f: f + ((2, 1),), _swap_last_exponents):
        monkeypatch.setattr(
            gpaley.spectra, "_hand_tree_factors", lambda spec: corrupt(stated(spec))
        )
        for spec in specs:
            sides = [spec.complement()] if spec.is_half else [spec, spec.complement()]
            for s in sides:
                with pytest.raises(InternalCheckError, match="product form"):
                    spanning_trees(s)
                with pytest.raises(InternalCheckError, match="product form"):
                    tree_count_text(s)


def test_tree_count_passes_a_value_preserving_rewrite_of_the_hand_form(monkeypatch):
    # (q, e) split into (q, e-1), (q, 1) is the same product written
    # differently, so the check must still pass with the same count
    specs = [spec for spec in _family_specs(12, max_order=2**12) if not spec.is_half]
    specs = [s for spec in specs for s in (spec, spec.complement())]
    expected = [spanning_trees(s) for s in specs]
    stated = gpaley.spectra._hand_tree_factors
    monkeypatch.setattr(
        gpaley.spectra, "_hand_tree_factors", lambda spec: _split_first_factor(stated(spec))
    )
    assert [spanning_trees(s) for s in specs] == expected
    assert [tree_count_text(s) for s in specs] == [int_to_str(n) for n in expected]


# sha256 prefixes of tree_count_text, each count 246k to 304k digits long
PINNED_TREE_TEXT = {
    GraphSpec(3, 1, 10, 1): "226ac08a595c26fe",
    GraphSpec(3, 1, 10, 1, True): "2a35d3232f937bbd",
    GraphSpec(3, 1, 10, 5, True): "03f91d724b472473",
    GraphSpec(2, 1, 16, 1): "d978062ba1613c55",
    GraphSpec(2, 1, 16, 1, True): "4e6ea0973fb084de",
}


@pytest.mark.parametrize("spec", PINNED_TREE_TEXT, ids=lambda s: s.label())
def test_tree_count_text_is_pinned(spec):
    text = tree_count_text(spec)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_TREE_TEXT[spec]


def test_each_tree_count_is_one_power_product(monkeypatch):
    # the count is evaluated once per call: the hand form is checked on
    # exponents and never evaluated as a second number
    calls = []
    evaluate = gpaley.spectra._power_product

    def counted(one, factors):
        calls.append(type(one))
        return evaluate(one, factors)

    monkeypatch.setattr(gpaley.spectra, "_power_product", counted)
    for spec in (GraphSpec(3, 1, 4, 1), GraphSpec(2, 1, 8, 2), GraphSpec(3, 1, 4, 2)):
        for s in (spec, spec.complement()):
            calls.clear()
            spanning_trees(s)
            assert calls == [int]
            calls.clear()
            tree_count_text(s)
            assert calls == [decimal.Decimal]


def test_tree_count_text_leaves_the_decimal_context_as_it_was():
    def state():
        ctx = decimal.getcontext()
        return ctx.prec, ctx.Emax, dict(ctx.traps)

    before = state()
    assert len(tree_count_text(GraphSpec(2, 1, 16, 1))) > 10**5
    assert state() == before


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------

def test_girth_examples():
    assert srg_params(GraphSpec(3, 1, 4, 1)).girth == 3
    assert srg_params(GraphSpec(2, 1, 4, 1)).girth == 4
    assert srg_params(GraphSpec(2, 1, 4, 1, True)).girth == 3
