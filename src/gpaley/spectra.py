"""Closed-form spectra, strongly-regular parameters, intersection arrays,
Latin-square classification, walk/tree counts and invariant bounds for the
family graphs and their complements.

Everything here is exact arithmetic on the spec (q, m, ell): integers,
and for the decimal text of a tree count, decimals with every rounding
trapped. No field or adjacency matrix is ever materialized, so these
formulas work far beyond any enumeration budget. Divisions are asserted
exact: the spectra are integral, and a nonzero remainder can only mean a
formula is wrong.
"""

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import exact_decimal, exact_div, int_to_str
from .errors import (
    DegenerateGraph,
    Disconnected,
    InternalCheckError,
    NotInFamily,
)
from .graphs import GraphSpec


def _require_proper(spec: GraphSpec) -> None:
    if not spec.is_proper:
        raise NotInFamily(
            f"{spec.label()} is not a proper family member (need ell | m, m/ell even)"
        )


def _core_eigenvalues(spec: GraphSpec) -> tuple[int, int, int]:
    """(k, upsilon, mu) of the primal graph, ell != m/2."""
    q, m, ell, eps = spec.q, spec.m, spec.ell, spec.eps
    k = exact_div(q**m - 1, q**ell + 1)
    ups = exact_div(eps * q ** (m // 2) - 1, q**ell + 1)
    mu = exact_div(-eps * q ** (m // 2 + ell) - 1, q**ell + 1)
    return k, ups, mu


def _core_e_d(spec: GraphSpec) -> tuple[int, int]:
    """(e, d) of the primal graph, ell != m/2:

      e = (q^m - eps q^(m/2+ell)(q^ell-1) - 3 q^ell - 2) / (q^ell+1)^2
      d = (q^m + eps q^(m/2)(q^ell-1) - q^ell) / (q^ell+1)^2"""
    q, m, ell, eps = spec.q, spec.m, spec.ell, spec.eps
    denom = (q**ell + 1) ** 2
    e = exact_div(q**m - eps * q ** (m // 2 + ell) * (q**ell - 1) - 3 * q**ell - 2, denom)
    d = exact_div(q**m + eps * q ** (m // 2) * (q**ell - 1) - q**ell, denom)
    return e, d


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, strictly decreasing."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        eigs = [lam for lam, _ in self.pairs]
        if eigs != sorted(eigs, reverse=True) or len(set(eigs)) != len(eigs):
            raise InternalCheckError("eigenvalues must be strictly decreasing")
        v, first, second = self.v, self.moment(1), self.moment(2)
        if first != 0 or second != v * self.k:
            raise InternalCheckError("spectrum moments are off: not a regular graph spectrum")

    @property
    def v(self) -> int:
        return sum(mult for _, mult in self.pairs)

    @property
    def k(self) -> int:
        return self.pairs[0][0]

    def moment(self, r: int) -> int:
        return sum(mult * lam**r for lam, mult in self.pairs)

    def multiplicity(self, lam: int) -> int:
        for ev, mult in self.pairs:
            if ev == lam:
                return mult
        return 0

    def second_largest(self) -> int:
        return self.pairs[1][0]

    def smallest(self) -> int:
        return self.pairs[-1][0]

    def nontrivial(self) -> tuple[tuple[int, int], ...]:
        """Pairs excluding one copy of the top (regularity) eigenvalue."""
        (top, mult), *rest = self.pairs
        out = list(rest)
        if mult > 1:
            out.insert(0, (top, mult - 1))
        return tuple(out)


@dataclass(frozen=True)
class IntersectionArray:
    b0: int
    b1: int
    c1: int
    c2: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.b0, self.b1, self.c1, self.c2)


@dataclass(frozen=True)
class SrgRecord:
    v: int
    k: int
    e: int
    d: int
    primitive: bool
    conference: bool
    latin_square: tuple[int, int] | None
    ramanujan: bool
    vertex_connectivity: int

    def params(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.e, self.d)


@dataclass(frozen=True)
class InvariantBounds:
    diameter: int
    girth: int
    clique_upper: Fraction
    clique_exact: int | None
    independence_upper: Fraction
    independence_exact: int | None
    chromatic_lower: Fraction
    chromatic_exact: int | None
    isoperimetric_lower: Fraction
    isoperimetric_upper_sq: int  # exact square of the upper bound
    isoperimetric_upper_floor: int
    algebraic_connectivity: int  # second-largest adjacency eigenvalue
    laplacian_gap: int  # k minus the above


def spectrum(spec: GraphSpec) -> Spectrum:
    """Exact spectrum of a proper family graph or its complement.

    Primal, ell != m/2: k = (q^m-1)/(q^ell+1) once,
    upsilon = (eps q^(m/2) - 1)/(q^ell+1) with multiplicity q^ell k,
    mu = (-eps q^(m/2+ell) - 1)/(q^ell+1) with multiplicity k,
    where eps = (-1)^(m_ell/2). Complements swap to -1-upsilon / -1-mu with
    the same multiplicity pairing. ell = m/2 degenerates to disjoint cliques
    (complement: complete multipartite)."""
    _require_proper(spec)
    q, m, ell = spec.q, spec.m, spec.ell
    N = spec.order
    if spec.is_half:
        root = q ** (m // 2)
        if not spec.complemented:
            pairs = [(root - 1, root), (-1, root * (root - 1))]
        else:
            pairs = [(root * (root - 1), 1), (0, root * (root - 1)), (-root, root - 1)]
        return Spectrum(tuple(pairs))
    k, ups, mu = _core_eigenvalues(spec)
    if not spec.complemented:
        entries = [(k, 1), (ups, q**ell * k), (mu, k)]
    else:
        entries = [(q**ell * k, 1), (-1 - ups, q**ell * k), (-1 - mu, k)]
    entries.sort(key=lambda t: -t[0])
    sp = Spectrum(tuple(entries))
    if sp.v != N:
        raise InternalCheckError("multiplicities do not sum to q^m")
    return sp


def eigenvalue_relations_check(spec: GraphSpec) -> list[str]:
    """Re-derive the arithmetic identities tying the primal and complement
    eigenvalues together; returns the list of falsified relation names
    (empty when everything holds)."""
    _require_proper(spec)
    if spec.is_half:
        raise Disconnected("relations are for connected members (ell != m/2)")
    q, ell, eps = spec.q, spec.ell, spec.eps
    k, ups, mu = _core_eigenvalues(spec)
    kbar, upsbar, mubar = q**ell * k, -1 - ups, -1 - mu
    failures = []
    if k != (eps * q ** (spec.m // 2) + 1) * ups:
        failures.append("k = (eps*q^(m/2)+1)*upsilon")
    if -(q**ell) * ups != mu + 1:
        failures.append("-q^ell*upsilon = mu+1")
    if math.gcd(abs(ups), abs(mu)) != 1:
        failures.append("gcd(upsilon, mu) = 1")
    if kbar != q**ell * k:
        failures.append("kbar = q^ell*k")
    if mubar != q**ell * ups:
        failures.append("mubar = q^ell*upsilon")
    if (upsbar + 1) * q**ell != mu + 1:
        failures.append("upsbar+1 = (mu+1)/q^ell")
    if ups + upsbar != -1 or mu + mubar != -1:
        failures.append("complement involution lambda + lambdabar = -1")
    return failures


def srg_params(spec: GraphSpec) -> SrgRecord:
    """Strongly-regular parameters (v, k, e, d) plus derived flags.

    (v, k) and the nontrivial eigenvalues r > s are read off the spectrum,
    and e = k + r + s + rs, d = k + rs (Brouwer and Haemers, Spectra of
    Graphs, 9.1). Off ell = m/2 that pair is held to the stated form: e and
    d as in ``_core_e_d`` for the primal graph, and ebar = v-2-2k+d,
    dbar = v-2k+e from the primal's k, e, d for the complement. The (2,2,1)
    tuple (4,1,0,0) is rejected as meaningless."""
    sp = spectrum(spec)
    if spec.is_degenerate and not spec.complemented:
        raise DegenerateGraph("(2,2,1) has no sensible srg parameters")
    v, k = sp.v, sp.k
    r, s = sp.nontrivial()[0][0], sp.smallest()
    e, d = k + r + s + r * s, k + r * s
    if not spec.is_half:
        e0, d0 = _core_e_d(spec)
        if spec.complemented:
            k0 = _core_eigenvalues(spec)[0]
            e0, d0 = v - 2 - 2 * k0 + d0, v - 2 * k0 + e0
        if (e, d) != (e0, d0):
            raise InternalCheckError("srg (e, d) from the spectrum disagree with the stated form")
    if (v - k - 1) * d != k * (k - e - 1):
        raise InternalCheckError("srg identity (v-k-1)d = k(k-e-1) violated")
    conference = 2 * k + (v - 1) * (e - d) == 0
    primitive = not spec.is_half
    connected = spec.complemented or not spec.is_half
    return SrgRecord(
        v=v,
        k=k,
        e=e,
        d=d,
        primitive=primitive,
        conference=conference,
        latin_square=latin_square_class(spec),
        ramanujan=ramanujan_by_inequality(spec) if connected else False,
        vertex_connectivity=k if connected else 0,
    )


def intersection_array(spec: GraphSpec) -> IntersectionArray:
    """Distance-regular intersection array {b0, b1; c1, c2}.

    Primal: {k, k-e-1; 1, d} with k-e-1 = q^ell * d. Complement:
    {kbar, kbar-ebar-1; 1, dbar}, i.e. {q^ell k, k-d; 1, v-2k+e}."""
    if spec.is_half and not spec.complemented:
        raise Disconnected("ell = m/2 graphs are disconnected")
    rec = srg_params(spec)
    arr = IntersectionArray(rec.k, rec.k - rec.e - 1, 1, rec.d)
    if not spec.is_half:
        prim = srg_params(GraphSpec(spec.p, spec.s, spec.m, spec.ell))
        if spec.complemented:
            if arr.b1 != prim.k - prim.d:
                raise InternalCheckError("complement b1 != k - d")
        elif arr.b1 != spec.q**spec.ell * prim.d:
            raise InternalCheckError("primal b1 != q^ell * d")
    return arr


def latin_square_class(spec: GraphSpec) -> tuple[int, int] | None:
    """Pseudo-Latin-square membership for primal connected members.

    When m_ell/2 is odd the graph has the PL parameter shape with
    s = upsilon and u = mu - upsilon (= q^(m/2)): the srg tuple equals
    (u^2, -s(u-1), s^2+3s+u, s(s+1)). Returns (s, u), else None."""
    if spec.complemented or not spec.is_proper or spec.is_half:
        return None
    if spec.eps == 1:
        return None
    k, ups, mu = _core_eigenvalues(spec)
    s, u = ups, mu - ups
    if k != -s * (u - 1):
        raise InternalCheckError("Latin-square degree check failed")
    e, d = _core_e_d(spec)
    if (u * u, -s * (u - 1), s * s + 3 * s + u, s * (s + 1)) != (spec.order, k, e, d):
        raise InternalCheckError("PL parameter tuple mismatch")
    return (s, u)


def closed_walks(spec: GraphSpec, r: int) -> int:
    """Number of closed r-walks: the r-th spectral moment. Always divisible
    by the regularity degree (the graphs are walk-regular)."""
    if r < 1:
        raise ValueError("walk length must be positive")
    sp = spectrum(spec)
    w = sp.moment(r)
    if w % sp.k:
        raise InternalCheckError("walk count not divisible by the degree")
    return w


def _tree_count(spec: GraphSpec, one):
    """The spanning-tree count as a number of the type of ``one``: the
    product of (k - lambda) over nontrivial eigenvalues, divided by the
    vertex count. Zero for the disconnected ell = m/2 primal graphs. For
    connected non-half members the hand product form is evaluated as well;
    the two must agree."""
    if spec.is_half and not spec.complemented:
        return 0 * one
    sp = spectrum(spec)
    laplacian = ((sp.k - lam, mult) for lam, mult in sp.nontrivial())
    trees = exact_div(_power_product(one, laplacian), sp.v)
    if not spec.is_half and _power_product(one, _hand_tree_factors(spec)) != trees:
        raise InternalCheckError("tree-count product form disagrees with spectrum form")
    return trees


def _hand_tree_factors(spec: GraphSpec) -> tuple[tuple[int, int], ...]:
    """(base, exponent) pairs of the hand product form of the tree count of
    a connected non-half member,

        q^((m/2)(q^m-3)) * upsilon^(q^ell k) * ((q^(m/2)+eps q^ell)/(q^ell+1))^k

    and of its complement,

        q^(ell k - m + (m/2) q^ell k) * mu^(q^ell k) * (k - upsilon)^k."""
    q, m, ell, eps = spec.q, spec.m, spec.ell, spec.eps
    k, ups, mu = _core_eigenvalues(spec)
    if spec.complemented:
        return ((q, ell * k - m + (m // 2) * q**ell * k), (mu, q**ell * k), (k - ups, k))
    base = exact_div(q ** (m // 2) + eps * q**ell, q**ell + 1)
    return ((q, (m // 2) * (q**m - 3)), (ups, q**ell * k), (base, k))


def _power_product(one, factors):
    """The product of base^exp over the (base, exp) pairs, each base lifted
    to the type of ``one``."""
    out = one
    for base, exp in factors:
        out *= (one * base) ** exp
    return out


def spanning_trees(spec: GraphSpec) -> int:
    """Spanning-tree count via the Laplacian spectrum, as an exact int (see
    ``_tree_count``). For output, ``tree_count_text`` gives the same count
    in decimal without converting this int."""
    return _tree_count(spec, 1)


def tree_count_text(spec: GraphSpec) -> str:
    """Decimal digits of ``spanning_trees(spec)``. The count is computed in
    exact decimal arithmetic from the start, whose str() is linear in the
    number of digits; converting a binary int of millions of digits is not.
    Any rounding raises ``decimal.Inexact`` (see ``arith.exact_decimal``)."""
    with exact_decimal():
        return str(_tree_count(spec, decimal.Decimal(1)))


def ramanujan_by_inequality(spec: GraphSpec) -> bool:
    """lambda(G) <= 2 sqrt(k-1), decided by the exact squared comparison
    max(|lambda|)^2 <= 4(k-1) over nontrivial eigenvalues."""
    if spec.is_half and not spec.complemented:
        raise Disconnected("Ramanujan condition needs a connected graph")
    sp = spectrum(spec)
    lam = max(abs(l) for l, _ in sp.nontrivial())
    return lam * lam <= 4 * (sp.k - 1)


def invariant_bounds(spec: GraphSpec) -> InvariantBounds:
    """Diameter, girth, clique/independence/chromatic data, isoperimetric
    interval and the algebraic-connectivity eigenvalue.

    Girth is 3 when adjacent vertices have a common neighbour (srg e > 0),
    else 4: the diameter is 2, so two vertices at distance 2 have d common
    neighbours, and d = 1 (a Moore graph) occurs in no member. For
    m_ell/2 odd, clique = independence = chromatic = q^(m/2) exactly;
    otherwise only the eigenvalue bounds are available. Isoperimetric
    bounds are kept exact: the lower bound as a rational, the upper bound
    as its exact square plus the floor of its square root."""
    _require_proper(spec)
    if spec.is_half and not spec.complemented:
        raise Disconnected("invariants target connected members")
    if spec.is_degenerate:
        raise DegenerateGraph("(2,2,1) is excluded from the invariant table")
    q, m, ell = spec.q, spec.m, spec.ell
    half_odd = spec.eps == -1
    sp = spectrum(spec)
    k = sp.k
    girth = 3 if srg_params(spec).e > 0 else 4
    root = q ** (m // 2)
    if half_odd:
        cl_up = ind_up = chrom_low = Fraction(root)
        cl_ex = ind_ex = chrom_ex = root
    else:
        cl_ex = ind_ex = chrom_ex = None
        hi = q ** (m // 2 + ell)
        lo = q ** (m // 2 - ell)
        if not spec.complemented:
            cl_up = Fraction(q**m + hi, hi + 1)
            ind_up = Fraction(q**m + lo, lo + 1)
            chrom_low = Fraction((q**m - 1) * (lo + 1), q**m + lo)
        else:
            cl_up = Fraction(q**m + lo, lo + 1)
            ind_up = Fraction(q**m + hi, hi + 1)
            chrom_low = Fraction((q**m - 1) * (hi + 1), q**m + hi)
    lam2 = sp.second_largest()
    theta2 = k - lam2
    iso_lower = Fraction(theta2, 2)
    iso_upper_sq = theta2 * (2 * k - theta2)  # = k^2 - lam2^2
    return InvariantBounds(
        diameter=2,
        girth=girth,
        clique_upper=cl_up,
        clique_exact=cl_ex,
        independence_upper=ind_up,
        independence_exact=ind_ex,
        chromatic_lower=chrom_low,
        chromatic_exact=chrom_ex,
        isoperimetric_lower=iso_lower,
        isoperimetric_upper_sq=iso_upper_sq,
        isoperimetric_upper_floor=math.isqrt(iso_upper_sq),
        algebraic_connectivity=lam2,
        laplacian_gap=theta2,
    )


def record_json(spec: GraphSpec) -> dict:
    """The stable JSON record for a spec: spectrum, srg tuple, intersection
    array, flags, triangle walks and tree count (big integers as decimal
    strings)."""
    sp = spectrum(spec)
    out: dict = {
        "spec": spec.to_json(),
        "spectrum": [[int_to_str(lam), int_to_str(mult)] for lam, mult in sp.pairs],
    }
    try:
        rec = srg_params(spec)
        out["srg"] = [int_to_str(x) for x in rec.params()]
        out["flags"] = {
            "primitive": rec.primitive,
            "conference": rec.conference,
            "latin_square": [int_to_str(x) for x in rec.latin_square] if rec.latin_square else None,
            "ramanujan": rec.ramanujan,
        }
    except DegenerateGraph:
        out["srg"] = None
        out["flags"] = None
    try:
        out["array"] = [int_to_str(x) for x in intersection_array(spec).as_tuple()]
    except (Disconnected, DegenerateGraph):
        out["array"] = None
    out["walks"] = {str(r): int_to_str(closed_walks(spec, r)) for r in range(2, 7)}
    out["trees"] = tree_count_text(spec)
    return out
