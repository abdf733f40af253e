"""Waring-number certification, Ramanujan classification with its three
infinite families, and Ihara zeta factorization."""

from dataclasses import dataclass

import numpy as np

from .arith import int_to_str
from .budgets import budget
from .errors import (
    DegenerateGraph,
    Disconnected,
    InternalCheckError,
    NotApplicable,
    NotInFamily,
)
from .field import FieldTable, get_field
from .graphs import GraphSpec, connection_set
from .spectra import Spectrum, SrgRecord, ramanujan_by_inequality, spectrum, srg_params


@dataclass(frozen=True)
class WaringCertificate:
    """g is the least s with every field element a sum of s many
    (q^ell+1)-th powers; witnesses (when materialized) map each element
    index to a pair (x, y) of indices with x^(q^ell+1) + y^(q^ell+1) = it."""

    k_exp: int
    field_size: int
    g: int
    witnesses: dict[int, tuple[int, int]] | None


@dataclass(frozen=True)
class ZetaFactorization:
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

    def total_degree(self) -> int:
        return 2 * self.square_factor_exponent + 2 * sum(e for _, e in self.factors)


def waring_number(spec: GraphSpec, max_order: int | None = None) -> WaringCertificate:
    """Waring number of the exponent q^ell + 1 over F_{q^m}.

    Complete-graph cases (q even, m_ell odd) give g = 1: the power map is
    onto. Proper members with ell < m/2 give g = 2: the graph is connected
    with diameter 2, so breadth-first layers from 0 stop after two steps.
    ell = m/2 is refused (the powers generate a proper subfield). Witnesses
    are found via those BFS layers when q^m is within the ``graph`` budget
    resolved from ``max_order``; above it, and always for max_order=0, the
    certificate carries none and no field table is built."""
    if spec.complemented:
        raise NotApplicable("Waring certification concerns the primal power graph")
    k_exp = spec.q**spec.ell + 1
    N = spec.order
    if spec.is_half:
        raise NotApplicable("ell = m/2: the powers span a proper subfield only")
    if spec.tag == "complete":
        return WaringCertificate(k_exp, N, 1, _witnesses(spec, 1, max_order))
    if spec.tag == "paley":
        raise NotApplicable("odd q with m_ell odd is the classic Paley regime")
    if not spec.is_proper:
        raise NotInFamily(f"{spec.label()} is not a proper family member")
    return WaringCertificate(k_exp, N, 2, _witnesses(spec, 2, max_order))


def _root_map(spec: GraphSpec, field: FieldTable) -> np.ndarray:
    """roots[y] is the least x with x^(q^ell+1) = y, or -1 if there is none."""
    powers = field.pow_array(np.arange(spec.order, dtype=np.int64), spec.q**spec.ell + 1)
    attained, first = np.unique(powers, return_index=True)
    roots = np.full(spec.order, -1, dtype=np.int64)
    roots[attained] = first
    return roots


def _witnesses(spec: GraphSpec, g: int, max_order) -> dict[int, tuple[int, int]] | None:
    """Layered search from 0 for the Waring number g: layer 1 is the power
    set S itself, layer 2 is S + S, searched one member b of S at a time in
    ascending order over the elements still uncovered, so each element a
    gets (root of a - b, root of b) for its least such b. Diameter 2 means
    nothing is left over."""
    N = spec.order
    if N > budget("graph", max_order):
        return None
    field = get_field(spec.p, spec.s, spec.m, max_order)
    conn = connection_set(spec, field)
    roots = _root_map(spec, field)
    if g == 1 and (roots < 0).any():
        raise InternalCheckError("power map not onto in the complete case")
    if not np.array_equal(roots[1:] >= 0, conn.members[1:]):
        raise InternalCheckError("the nonzero powers are not the connection set")
    members = np.flatnonzero(conn.members)
    x, y = roots.copy(), np.zeros(N, dtype=np.int64)
    others = np.flatnonzero(~conn.members)[1:]  # index 0 is zero, its own witness
    left = others
    for b, neg_b in zip(members.tolist(), field.neg_array(members).tolist()):
        if not len(left):
            break
        diff = field.add_arrays(left, neg_b)
        hit = conn.members[diff]
        x[left[hit]], y[left[hit]] = roots[diff[hit]], roots[b]
        left = left[~hit]
    if len(left):
        raise InternalCheckError(f"element {left[0]} unreachable in two power steps")
    order = np.concatenate(([0], members, others))
    return dict(zip(order.tolist(), zip(x[order].tolist(), y[order].tolist())))


def verify_waring(cert: WaringCertificate, field: FieldTable) -> bool:
    """Soundness: re-evaluate every witness pair. A certificate without
    witnesses has nothing to re-evaluate and raises NotApplicable."""
    if cert.witnesses is None:
        raise NotApplicable("the certificate carries no witnesses")
    targets = np.fromiter(cert.witnesses, dtype=np.int64, count=len(cert.witnesses))
    x, y = np.array(list(cert.witnesses.values()), dtype=np.int64).reshape(-1, 2).T
    sums = field.add_arrays(field.pow_array(x, cert.k_exp), field.pow_array(y, cert.k_exp))
    return np.array_equal(sums, targets) and len(cert.witnesses) == cert.field_size


def is_ramanujan(spec: GraphSpec) -> bool:
    """Ramanujan certification, computed twice and compared.

    Path one is the exact squared comparison max|lambda|^2 <= 4(k-1). Path
    two is the closed classification: after rewriting in the canonical
    power-1 presentation (q, m, ell) -> (q^ell, m/ell, 1), primal members
    are Ramanujan exactly for base in {2, 3, 4} (the degree is then
    automatically >= 4); complements are always Ramanujan. The two paths
    disagreeing is a fatal error."""
    by_gap = ramanujan_by_inequality(spec)
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
    if spec.is_half and not spec.complemented:
        raise Disconnected("Ihara zeta here targets connected graphs")
    sp = spectrum(spec)
    n = sp.v
    k = sp.k
    edges = n * k // 2
    exponent = edges - n
    factors = tuple((lam, mult) for lam, mult in sp.pairs)
    z = ZetaFactorization(exponent, k, factors)
    if z.total_degree() != 2 * edges:
        raise InternalCheckError("reciprocal zeta degree != 2 * edge count")
    if sum(mult for _, mult in factors) != n:
        raise InternalCheckError("zeta factor exponents do not sum to n")
    return z


def zeta_json(z: ZetaFactorization) -> dict:
    return {
        "square_exp": int_to_str(z.square_factor_exponent),
        "factors": [
            {"linear_coeff": int_to_str(-lam), "quad_coeff": int_to_str(z.quad_coeff),
             "exp": int_to_str(mult)}
            for lam, mult in z.factors
        ],
    }
