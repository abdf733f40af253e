"""Waring-number certification, Ramanujan classification with its three
infinite families, and Ihara zeta factorization: closed forms on the spec,
loading no numpy and no field table. The Waring witnesses are searched on a
built graph by ``graphs.waring_witnesses``."""

from .arith import int_to_str, require_int
from .errors import (
    DegenerateGraph,
    Disconnected,
    InternalCheckError,
    NotApplicable,
    NotInFamily,
)
from .spec import GraphSpec, Record
from .spectra import Spectrum, SrgRecord, spectrum, srg_params


class WaringCertificate(Record):
    """g is the least s with every field element a sum of s many
    (q^ell+1)-th powers; witnesses, None from ``waring_number`` and filled
    in by ``graphs.waring_witnesses``, is one (field_size, 2) int64 array
    whose row a holds indices (x, y) with x^(q^ell+1) + y^(q^ell+1) = a."""

    k_exp: int
    field_size: int
    g: int
    witnesses: "np.ndarray | None"  # numpy is loaded only by the search


class ZetaFactorization(Record):
    """Reciprocal Ihara zeta of a connected k-regular non-bipartite graph:

        (1 - u^2)^(E - n) * prod_i (1 - lambda_i u + (k-1) u^2)^(mult_i)

    with E the edge count; the square-factor exponent E - n is the circuit
    rank E - n + 1 minus one."""

    square_factor_exponent: int
    k: int
    factors: tuple[tuple[int, int], ...]  # (eigenvalue, exponent)

    @property
    def quad_coeff(self) -> int:
        return self.k - 1


def waring_number(spec: GraphSpec) -> WaringCertificate:
    """Waring number of the exponent q^ell + 1 over F_{q^m}, with no witnesses.

    Complete-graph cases (q even, m_ell odd) give g = 1: the power map is
    onto. Proper members with ell < m/2 give g = 2: the graph is connected
    with diameter 2, so every element is a sum of at most two powers.
    ell = m/2 is refused (the powers generate a proper subfield)."""
    if spec.complemented:
        raise NotApplicable("Waring certification concerns the primal power graph")
    k_exp = spec.q**spec.ell + 1
    N = spec.order
    if spec.is_half:
        raise NotApplicable("ell = m/2: the powers span a proper subfield only")
    if spec.tag == "complete":
        return WaringCertificate(k_exp, N, 1, None)
    if spec.tag == "paley":
        raise NotApplicable("odd q with m_ell odd is the classic Paley regime")
    if not spec.is_proper:
        raise NotInFamily(f"{spec.label()} is not a proper family member")
    return WaringCertificate(k_exp, N, 2, None)


def is_ramanujan(spec: GraphSpec) -> bool:
    """Ramanujan certification, computed twice and compared.

    Path one is ``Spectrum.ramanujan``, the exact squared comparison
    max|lambda|^2 <= 4(k-1). Path two is the closed classification: after
    rewriting in the canonical power-1 presentation (q, m, ell) ->
    (q^ell, m/ell, 1), primal members are Ramanujan exactly for base in
    {2, 3, 4} (the degree is then automatically >= 4); complements are
    always Ramanujan. The two paths disagreeing is a fatal error."""
    if not spec.connected:
        raise Disconnected("Ramanujan condition needs a connected graph")
    by_gap = spectrum(spec).ramanujan()
    if spec.complemented:
        if not by_gap:
            raise InternalCheckError(f"complement {spec.label()} failed the gap bound")
        return True
    canon = spec.canonical()
    by_class = canon.q in (2, 3, 4) and canon.m >= 4
    if by_gap != by_class:
        raise InternalCheckError(
            f"classification ({by_class}) and gap bound ({by_gap}) split on {spec.label()}"
        )
    return by_gap


def family_table(q: int, t_max: int) -> list[tuple[GraphSpec, SrgRecord, Spectrum]]:
    """Rows (spec, srg record, spectrum) for the three Ramanujan families
    over F_2, F_3, F_4: primal and complement of (q, 2t, 1) for t = 2..t_max.
    Each srg tuple is re-derived from the t-parameterized family formulas
    and compared; a mismatch is fatal."""
    require_int(q, "q")
    require_int(t_max, "t_max")
    if q not in (2, 3, 4):
        raise NotInFamily("the infinite Ramanujan families live over F_2, F_3, F_4")
    p, s = (2, 1) if q == 2 else ((3, 1) if q == 3 else (2, 2))
    rows = []
    for t in range(2, t_max + 1):
        for complemented in (False, True):
            spec = GraphSpec(p, s, 2 * t, 1, complemented)
            rec = srg_params(spec)
            expect = _family_formula(q, t, complemented)
            if rec.params() != expect:
                raise InternalCheckError(
                    f"family formula mismatch at q={q}, t={t}: {rec.params()} != {expect}"
                )
            rows.append((spec, rec, spectrum(spec)))
    return rows


def _family_formula(q: int, t: int, complemented: bool) -> tuple[int, int, int, int]:
    """The t-parameterized srg tuples of the three families."""
    if q == 2:
        if not complemented:
            return (4**t, (4**t - 1) // 3, (4**t + (-2) ** (t + 1) - 8) // 9,
                    (4**t + (-2) ** t - 2) // 9)
        return (4**t, 2 * (4**t - 1) // 3, (4 ** (t + 1) + (-2) ** t - 14) // 9,
                (4 ** (t + 1) + (-2) ** (t + 1) - 2) // 9)
    if q == 3:
        if not complemented:
            return (9**t, (9**t - 1) // 4, (9**t + 2 * (-3) ** (t + 1) - 11) // 16,
                    (9**t + 2 * (-3) ** t - 3) // 16)
        return (9**t, 3 * (9**t - 1) // 4, (9 ** (t + 1) + 2 * (-3) ** t - 27) // 16,
                (9 ** (t + 1) + 2 * (-3) ** (t + 1) - 3) // 16)
    if not complemented:
        return (16**t, (16**t - 1) // 5, (16**t + 3 * (-4) ** (t + 1) - 14) // 25,
                (16**t + 3 * (-4) ** t - 4) // 25)
    return (16**t, 4 * (16**t - 1) // 5, (16 ** (t + 1) + 3 * (-4) ** t - 44) // 25,
            (16 ** (t + 1) + 3 * (-4) ** (t + 1) - 4) // 25)


def ihara_zeta(spec: GraphSpec) -> ZetaFactorization:
    """Factor the reciprocal Ihara zeta from the spectrum.

    Needs a connected, non-bipartite, k >= 2 regular graph: every proper
    member with ell != m/2, every complement except the (2,2,1) square."""
    if spec.is_degenerate:
        raise DegenerateGraph("(2,2,1) and its 4-cycle complement are excluded")
    if not spec.connected:
        raise Disconnected("Ihara zeta here targets connected graphs")
    sp = spectrum(spec)
    n, k = sp.v, sp.k
    return ZetaFactorization(n * k // 2 - n, k, sp.pairs)


def zeta_json(z: ZetaFactorization) -> dict:
    return {
        "square_exp": int_to_str(z.square_factor_exponent),
        "factors": [
            {"linear_coeff": int_to_str(-lam), "quad_coeff": int_to_str(z.quad_coeff),
             "exp": int_to_str(mult)}
            for lam, mult in z.factors
        ],
    }
