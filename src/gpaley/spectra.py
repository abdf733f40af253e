"""Closed-form spectra, strongly-regular parameters, intersection arrays,
Latin-square classification and walk/tree counts for the family graphs and
their complements.

Each spectrum is stated once, for every proper member, ell = m/2
included; a complement's is derived from its primal's.

Everything here is exact arithmetic on the spec (q, m, ell): integers,
and for the decimal text of a tree count, decimals with every rounding
trapped. No field or adjacency matrix is ever materialized, so these
formulas work far beyond any enumeration budget. Divisions are asserted
exact: the spectra are integral, and a nonzero remainder can only mean a
formula is wrong.
"""

import decimal
import math

from .arith import exact_decimal, exact_div, int_to_str, require_int, same_product
from .errors import (
    DegenerateGraph,
    Disconnected,
    InternalCheckError,
    NotInFamily,
)
from .spec import GraphSpec, Record


def _require_proper(spec: GraphSpec) -> None:
    if not spec.is_proper:
        raise NotInFamily(
            f"{spec.label()} is not a proper family member (need ell | m, m/ell even)"
        )


def _core_eigenvalues(spec: GraphSpec) -> tuple[int, int, int]:
    """(k, upsilon, mu) of the primal graph; at ell = m/2, mu = k."""
    q, m, ell, eps = spec.q, spec.m, spec.ell, spec.eps
    k = exact_div(q**m - 1, q**ell + 1)
    ups = exact_div(eps * q ** (m // 2) - 1, q**ell + 1)
    mu = exact_div(-eps * q ** (m // 2 + ell) - 1, q**ell + 1)
    return k, ups, mu


def _core_e_d(spec: GraphSpec) -> tuple[int, int]:
    """(e, d) of the primal graph:

      e = (q^m - eps q^(m/2+ell)(q^ell-1) - 3 q^ell - 2) / (q^ell+1)^2
      d = (q^m + eps q^(m/2)(q^ell-1) - q^ell) / (q^ell+1)^2"""
    q, m, ell, eps = spec.q, spec.m, spec.ell, spec.eps
    denom = (q**ell + 1) ** 2
    e = exact_div(q**m - eps * q ** (m // 2 + ell) * (q**ell - 1) - 3 * q**ell - 2, denom)
    d = exact_div(q**m + eps * q ** (m // 2) * (q**ell - 1) - q**ell, denom)
    return e, d


class Spectrum(Record):
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
        """sum mult * lambda^r: v at r = 0, and for r >= 1 the closed r-walks,
        held to divisibility by k (the graphs are walk-regular)."""
        w = sum(mult * lam**r for lam, mult in self.pairs)
        if r >= 1 and w % self.k:
            raise InternalCheckError("walk count not divisible by the degree")
        return w

    def smallest(self) -> int:
        return self.pairs[-1][0]

    def nontrivial(self) -> tuple[tuple[int, int], ...]:
        """Pairs excluding one copy of the top (regularity) eigenvalue."""
        (top, mult), *rest = self.pairs
        out = list(rest)
        if mult > 1:
            out.insert(0, (top, mult - 1))
        return tuple(out)

    def ramanujan(self) -> bool:
        """lambda(G) <= 2 sqrt(k-1), decided by the exact squared comparison
        max|lambda|^2 <= 4(k-1) over the nontrivial eigenvalues."""
        lam = max(abs(l) for l, _ in self.nontrivial())
        return lam * lam <= 4 * (self.k - 1)


class SrgRecord(Record):
    v: int
    k: int
    e: int
    d: int
    primitive: bool
    conference: bool
    latin_square: tuple[int, int] | None
    ramanujan: bool

    def params(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.e, self.d)

    @property
    def girth(self) -> int:
        """3 when adjacent vertices have a common neighbour (e > 0), else 4:
        two vertices at distance 2 have d common neighbours, and d = 1 would
        make a Moore graph, which no member is."""
        return 3 if self.e > 0 else 4


def spectrum(spec: GraphSpec) -> Spectrum:
    """Exact spectrum of a proper family graph or its complement.

    Primal: the Gauss periods of a uniform cyclotomy (Baumert, Mills and
    Ward, J. Number Theory 14, 1982), k = (q^m-1)/(q^ell+1) once,
    upsilon = (eps q^(m/2) - 1)/(q^ell+1) with multiplicity q^ell k,
    mu = (-eps q^(m/2+ell) - 1)/(q^ell+1) with multiplicity k,
    where eps = (-1)^(m_ell/2). At ell = m/2, mu = k merges with k: the
    graph is q^(m/2) disjoint cliques. A complement has N-1-k once and
    -1-lambda over the primal's nontrivial eigenvalues, the entries after
    k's own (Brouwer and Haemers, Spectra of Graphs, 1.3.2)."""
    _require_proper(spec)
    k, ups, mu = _core_eigenvalues(spec)
    entries = [(k, 1), (ups, spec.q**spec.ell * k), (mu, k)]
    if spec.complemented:
        entries = [(spec.order - 1 - k, 1)] + [(-1 - lam, mult) for lam, mult in entries[1:]]
    mults: dict[int, int] = {}
    for lam, mult in entries:
        mults[lam] = mults.get(lam, 0) + mult
    sp = Spectrum(tuple(sorted(mults.items(), reverse=True)))
    if sp.v != spec.order:
        raise InternalCheckError("multiplicities do not sum to q^m")
    return sp


def srg_params(spec: GraphSpec) -> SrgRecord:
    """Strongly-regular parameters (v, k, e, d) plus derived flags.

    (v, k) and the nontrivial eigenvalues r > s are read off the spectrum,
    and e = k + r + s + rs, d = k + rs (Brouwer and Haemers, Spectra of
    Graphs, 9.1), and held to the stated form: e and d as in ``_core_e_d``
    for the primal graph, and ebar = v-2-2k+d, dbar = v-2k+e from the
    primal's k, e, d for the complement, ell = m/2 included. The (2,2,1)
    tuple (4,1,0,0) is rejected as meaningless."""
    sp = spectrum(spec)
    if spec.is_degenerate and not spec.complemented:
        raise DegenerateGraph("(2,2,1) has no sensible srg parameters")
    v, k = sp.v, sp.k
    r, s = sp.nontrivial()[0][0], sp.smallest()
    e, d = k + r + s + r * s, k + r * s
    e0, d0 = _core_e_d(spec)
    if spec.complemented:
        k0 = _core_eigenvalues(spec)[0]
        e0, d0 = v - 2 - 2 * k0 + d0, v - 2 * k0 + e0
    if (e, d) != (e0, d0):
        raise InternalCheckError("srg (e, d) from the spectrum disagree with the stated form")
    if (v - k - 1) * d != k * (k - e - 1):
        raise InternalCheckError("srg identity (v-k-1)d = k(k-e-1) violated")
    conference = 2 * k + (v - 1) * (e - d) == 0
    return SrgRecord(
        v=v,
        k=k,
        e=e,
        d=d,
        primitive=not spec.is_half,
        conference=conference,
        latin_square=latin_square_class(spec),
        ramanujan=spec.connected and sp.ramanujan(),
    )


def intersection_array(spec: GraphSpec) -> tuple[int, int, int, int]:
    """Distance-regular intersection array {b0, b1; c1, c2} as the tuple
    (b0, b1, c1, c2).

    Primal: {k, k-e-1; 1, d}, held to k-e-1 = q^ell * d. Complement:
    {kbar, kbar-ebar-1; 1, dbar}, i.e. {q^ell k, k-d; 1, v-2k+e} by the
    complement rule that ``srg_params`` holds."""
    if not spec.connected:
        raise Disconnected("ell = m/2 graphs are disconnected")
    rec = srg_params(spec)
    b1 = rec.k - rec.e - 1
    if not spec.complemented and b1 != spec.q**spec.ell * rec.d:
        raise InternalCheckError("primal b1 != q^ell * d")
    return (rec.k, b1, 1, rec.d)


def latin_square_class(spec: GraphSpec) -> tuple[int, int] | None:
    """Pseudo-Latin-square membership for primal connected members.

    When m_ell/2 is odd the graph has the PL parameter shape with
    s = upsilon and u = mu - upsilon (= q^(m/2)): the srg tuple equals
    (u^2, -s(u-1), s^2+3s+u, s(s+1)). Returns (s, u), else None."""
    if spec.complemented or not spec.is_proper or not spec.connected or spec.eps == 1:
        return None
    k, ups, mu = _core_eigenvalues(spec)
    s, u = ups, mu - ups
    e, d = _core_e_d(spec)
    if (u * u, -s * (u - 1), s * s + 3 * s + u, s * (s + 1)) != (spec.order, k, e, d):
        raise InternalCheckError("PL parameter tuple mismatch")
    return (s, u)


def closed_walks(spec: GraphSpec, r: int) -> int:
    """Number of closed r-walks: the r-th spectral moment, which
    ``Spectrum.moment`` holds to divisibility by the degree."""
    require_int(r, "walk length r")
    if r < 1:
        raise ValueError("walk length must be positive")
    return spectrum(spec).moment(r)


def _tree_count(spec: GraphSpec, one):
    """The spanning-tree count as a number of the type of ``one``: the
    product of (k - lambda)^mult over nontrivial eigenvalues, divided
    exactly by the vertex count v (zero on the disconnected ell = m/2
    primal graphs). The hand product form times v must equal the spectrum
    product; ``arith.same_product`` decides that on exponents over a
    coprime basis, so the count is evaluated once."""
    sp = spectrum(spec)
    laplacian = tuple((sp.k - lam, mult) for lam, mult in sp.nontrivial())
    if not same_product(laplacian, _hand_tree_factors(spec) + ((sp.v, 1),)):
        raise InternalCheckError("tree-count product form disagrees with spectrum form")
    return exact_div(_power_product(one, laplacian), sp.v)


def _hand_tree_factors(spec: GraphSpec) -> tuple[tuple[int, int], ...]:
    """(base, exponent) pairs of the hand product form of the tree count of
    a proper member,

        q^((m/2)(q^m-3)) * upsilon^(q^ell k) * ((q^(m/2)+eps q^ell)/(q^ell+1))^k

    whose last base is 0 at ell = m/2, and of its complement,

        q^(ell k - m + (m/2) q^ell k) * mu^(q^ell k) * (k - upsilon)^k."""
    q, m, ell, eps = spec.q, spec.m, spec.ell, spec.eps
    k, ups, mu = _core_eigenvalues(spec)
    if spec.complemented:
        return ((q, ell * k - m + (m // 2) * q**ell * k), (mu, q**ell * k), (k - ups, k))
    base = exact_div(q ** (m // 2) + eps * q**ell, q**ell + 1)
    return ((q, (m // 2) * (q**m - 3)), (ups, q**ell * k), (base, k))


def _power_product(one, factors):
    """The product of base^exp over the (base, exp) pairs, each base lifted
    to the type of ``one``, with one large power: with g the gcd of the
    exponents, prod base^(exp/g) is formed and raised to g. Over the
    Laplacian spectrum g is the primal degree k, so the inner product stays
    small, and a zero base gives 0 at once."""
    if any(base == 0 for base, _ in factors):
        return 0 * one
    g = math.gcd(*(exp for _, exp in factors))
    inner = one
    for base, exp in factors:
        inner *= (one * base) ** (exp // g)
    return inner**g


def spanning_trees(spec: GraphSpec) -> int:
    """Spanning-tree count via the Laplacian spectrum, as an exact int (see
    ``_tree_count``). For output, ``tree_count_text`` gives the same count
    in decimal without converting this int."""
    return _tree_count(spec, 1)


def tree_count_text(spec: GraphSpec) -> str:
    """Decimal digits of ``spanning_trees(spec)``. The count is computed in
    exact decimal arithmetic from the start, whose str() is linear in the
    number of digits; converting a binary int of millions of digits is not.
    It is one ``_power_product`` of the Laplacian spectrum, one exact
    division by v and one str(); the hand product form is checked on
    exponents, never evaluated. Any rounding raises ``decimal.Inexact``
    (see ``arith.exact_decimal``)."""
    with exact_decimal():
        return str(_tree_count(spec, decimal.Decimal(1)))


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
        out["array"] = [int_to_str(x) for x in intersection_array(spec)]
    except (Disconnected, DegenerateGraph):
        out["array"] = None
    out["walks"] = {str(r): int_to_str(sp.moment(r)) for r in range(2, 7)}
    out["trees"] = tree_count_text(spec)
    return out
