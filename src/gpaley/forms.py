"""Trace forms Q(x) = Tr_{q^m/q}(gamma * x^(q^ell + 1)), their value
distributions, the attached integral character sums, and the closed-form
rank/type classification.

A form of even rank r and type eps has value counts

    N(xi) = q^(m-1) + eps * nu(xi) * q^(m - r/2 - 1),

with nu(0) = q - 1 and nu(xi) = -1 otherwise, and its character sum equals
eps * q^(m - r/2). When m_ell = m/(m,ell) is even, one rule classifies
every form (``classify_logs``, for a whole array of logs at once, and
``classify_form``, the same rule at one form): with eps = (-1)^(m_ell/2) and
L = q^(m,ell) + 1, the form of gamma = alpha^t has rank m - 2(m,ell) and
type -eps when t = L/2 mod L (odd q, eps = -1) or t = 0 mod L (otherwise),
and rank m and type eps for every other gamma. Odd m_ell is outside the
classification and is reported as such rather than guessed at.

Field elements are integer indices (``gpaley.field``). x -> x^(q^ell+1)
maps F^* h-to-1 onto the nonzero (q^ell+1)-th powers S, so on F^* the form
takes the trace values of the coset gamma S, h times each. In log order the
trace values Tr(alpha^i) are the m-sequence of alpha (Golomb, Shift Register
Sequences, 1967) and the coset alpha^j S is its h-decimation from j
(Klapper, Des. Codes Cryptogr. 11, 1997): the field's ``trace_sequence``
sliced [j::h], a strided view with no gather. The value histogram, which
``kernel_counts`` and ``exp_sum`` both read, is one bin count of those k
positions, each in [0, q); a position from q up is refused. The
Klapper sweep of ``gpaley.oracles`` evaluates one form per coset, on its
representative alpha^j, and classifies every gamma in closed form with one
``classify_logs`` call on the whole log table.
"""

import math
from functools import cached_property

import numpy as np

from .arith import require_int
from .errors import InternalCheckError, OutOfTheory, UnbalancedCounts, ZeroElement
from .field import FieldTable, trace
from .spec import Record


class TraceForm(Record):
    """Q(x) = Tr_{q^m/q}(gamma * x^(q^ell+1)) on the field's full extension."""

    field: FieldTable
    gamma: int  # element index, nonzero
    ell: int

    def __post_init__(self):
        for name in ("gamma", "ell"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.gamma == 0:
            raise ZeroElement("gamma must be nonzero")
        if not 0 < self.gamma < self.field.order:
            raise ValueError(f"gamma {self.gamma} is not an element index of the field")
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")

    @cached_property
    def histogram(self) -> dict[int, int]:
        """{value index: count} of Q over the field, one entry per element of
        the q-element subfield: h counts per value on gamma S, and Q(0) = 0.
        The positions of the coset's values are counted in bins; a trace
        sequence holds positions in [0, q), so any count in a bin from q up
        is a value outside the subfield and raises. Computed at most once
        per form object."""
        fld, q = self.field, self.field.params.q
        on_coset = _unit_values(self)
        counts = np.bincount(on_coset, minlength=q)
        if counts[q:].any():
            raise InternalCheckError("form took a value outside the subfield")
        counts *= (fld.order - 1) // len(on_coset)  # h = (N - 1)/k
        counts[0] += 1  # Q(0) = 0, and 0 is the first subfield index
        values = fld.subfield_indices(fld.params.s).tolist()
        return dict(zip(values, counts.tolist()))

    @property
    def exponent(self) -> int:
        return self.field.params.q**self.ell + 1


class FormClass(Record):
    """Even rank plus the sign distinguishing the two even-rank classes."""

    rank: int
    type_sign: int

    def __post_init__(self):
        if self.rank % 2 or self.type_sign not in (-1, 1):
            raise ValueError("rank must be even and type +-1")


def _unit_values(f: TraceForm) -> np.ndarray:
    """Tr_{q^m/q} at the k members of gamma S = alpha^(log gamma mod h) S,
    h = gcd(e, N - 1), in log order, as positions in the q-element subfield:
    the h-decimation of the field's trace sequence, a strided view with no
    gather."""
    fld = f.field
    h = math.gcd(f.exponent, fld.order - 1)
    return fld.trace_sequence(fld.params.s)[int(fld.log[f.gamma]) % h :: h]


def kernel_counts(f: TraceForm) -> dict[int, int]:
    """Histogram {value index: count} of Q over the field."""
    return dict(f.histogram)


def exp_sum(f: TraceForm) -> int:
    """The character sum sum_x zeta_p^(Tr_{q/p}(Q(x))), evaluated exactly
    as an integer: tally the residue-class counts N_c over the q histogram
    entries and return N_0 - N_1, after insisting the counts are constant
    over c != 0 (they are whenever the sum is a rational integer of the
    even-rank shape; anything else is out of theory, not coerced). Q scaled
    by a unit a of F_q gives the same sum, as an even-rank form takes every
    nonzero value equally often and a permutes the nonzero values."""
    fld = f.field
    # Tr_{q/p} of the q values, in one call, summed; prime-subfield elements
    # are indices 0..p-1
    residues = trace(fld, np.fromiter(f.histogram, dtype=np.int64), fld.params.s, 1)
    counts = np.zeros(fld.p, dtype=np.int64)
    np.add.at(counts, residues, list(f.histogram.values()))
    counts = counts.tolist()
    if len(set(counts[1:])) > 1:
        raise UnbalancedCounts(f"residue counts {counts} not constant off zero")
    return counts[0] - counts[1]


def classify_logs(q: int, m: int, ell: int, logs) -> tuple[np.ndarray, tuple[FormClass, FormClass]]:
    """The closed rank/type rule of the module docstring at gamma = alpha^t,
    for every t in ``logs`` at once (m_ell = m/(m,ell) even). Returns (low,
    classes): low is True where t = c mod L, with c = L/2 for odd q and
    eps = -1 and c = 0 otherwise (for even q, gamma is then a (q^ell+1)-th
    power), and classes = (rank m and type eps, rank m - 2(m,ell) and type
    -eps), so the class of alpha^t is classes[low]."""
    d = math.gcd(m, ell)
    if (m // d) % 2:
        raise OutOfTheory(f"no closed classification for odd m_ell = {m // d}")
    eps = -1 if (m // d // 2) % 2 else 1
    L = q**d + 1
    c = L // 2 if q % 2 and eps == -1 else 0
    return np.asarray(logs) % L == c, (FormClass(m, eps), FormClass(m - 2 * d, -eps))


def classify_form(f: TraceForm) -> FormClass:
    """``classify_logs`` at the one gamma of the form."""
    params = f.field.params
    low, classes = classify_logs(params.q, params.m, f.ell, f.field.log[f.gamma])
    return classes[int(low)]


def class_from_counts(q: int, m: int, counts: dict[int, int]) -> FormClass:
    """Reverse-engineer (rank, type) from an exhaustive value histogram via
    the balanced count formula; the independent check for classify_form."""
    total = q**m
    n0 = counts[0]
    base = total // q  # q^(m-1)
    delta = n0 - base
    if delta == 0:
        raise OutOfTheory("zero-count offset vanishes: not an even-rank form")
    eps = 1 if delta > 0 else -1
    step = abs(delta) // (q - 1)
    if step * (q - 1) != abs(delta):
        raise OutOfTheory("offset not divisible by q-1")
    # step = q^(m - r/2 - 1): recover r from the exact power
    power = 0
    val = step
    while val % q == 0:
        val //= q
        power += 1
    if val != 1:
        raise OutOfTheory(f"offset {step} is not a power of q")
    rank = 2 * (m - 1 - power)
    if any(cnt != base - eps * step for xi, cnt in counts.items() if xi != 0):
        raise OutOfTheory("nonzero value counts do not match the balanced form")
    return FormClass(rank, eps)
