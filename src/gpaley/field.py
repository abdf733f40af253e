"""Exact arithmetic in F_{p^n} with discrete-log, exponential and Zech tables.

A field F_{q^m} with q = p^s is realized as a single degree-n extension of
F_p, n = s*m; the intermediate field F_q is recovered as the fixed field of
the s-fold Frobenius. An element is a plain integer index in [0, p^n):
the base-p digits of the index are the coefficients of the residue
polynomial (little-endian). Index 0 is zero, index 1 is one, and the prime
subfield occupies indices 0..p-1.

Multiplication adds logarithms. Addition is the XOR of the indices for
p = 2 and one Zech-logarithm lookup for odd p (Lidl and Niederreiter,
Finite Fields, 2.4); negation is the product by -1, the index p - 1. The
scalar ``add`` and ``neg`` call the whole-array kernels; ``mul``, ``inv``
and ``pow`` read the exp and log tables directly. The exp table is filled
by baby-step/giant-step (Shanks, 1971), and the Zech table is built on
first read, so a p = 2 field never builds it.

``get_field`` is the one constructor: it picks the modulus and the
generator alpha by a deterministic rule, so every table is reproducible
from (p, s, m) alone, and memoizes one table per (p, s, m).
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

from .arith import factorize, is_prime
from .budgets import require
from .errors import CompositeP, NotASubfield, ZeroElement

# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (little-endian coefficient lists)
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    n = len(mod) - 1
    # reduce by the monic modulus
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(n):
                out[i - n + j] = (out[i - n + j] - c * mod[j]) % p
    del out[n:]
    out.extend([0] * (n - len(out)))
    return out


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    n = len(mod) - 1
    result = [1] + [0] * (n - 1)
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p) if p > 2 else 1
        b_m = [(c * inv) % p for c in b]
        # a mod b_m
        r = list(a)
        while len(r) >= len(b_m) and _poly_trim(r):
            d = len(r) - len(b_m)
            c = r[-1]
            for j, bj in enumerate(b_m):
                r[d + j] = (r[d + j] - c * bj) % p
            _poly_trim(r)
        a, b = b, r
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Monic f of degree n is irreducible iff x^(p^n) = x mod f and
    x^(p^(n/r)) - x is coprime to f for every prime r | n."""
    n = len(f) - 1
    x = [0, 1] if n > 1 else [0]
    if n == 1:
        return True
    xq = _poly_powmod([0, 1], p**n, f, p)
    if _poly_trim([(xq[i] - x[i]) % p if i < len(x) else xq[i] for i in range(n)]):
        return False
    for r in factorize(n):
        xr = _poly_powmod([0, 1], p ** (n // r), f, p)
        diff = [(xr[i] - (1 if i == 1 else 0)) % p for i in range(n)]
        g = _poly_gcd(f, diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _index_digits(idx: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        idx, d = divmod(idx, p)
        out.append(d)
    return out


def _linear_map(p: int, n: int, images: list[int]) -> np.ndarray:
    """Index array of the F_p-linear map on F_{p^n} that sends each basis
    index p^i to images[i] (Lidl and Niederreiter, Finite Fields, 2.3).
    Block [d p^i, (d+1) p^i) is block d - 1 plus images[i], added without a
    field table: XOR for p = 2, else in rows of base-p digits sized for the
    sum of two."""
    if p == 2:
        out = np.zeros(2**n, dtype=np.int64)
        for i, image in enumerate(images):
            np.bitwise_xor(out[: 1 << i], image, out=out[1 << i : 2 << i])
        return out
    digits = np.zeros((n, p**n), dtype=np.min_scalar_type(2 * p))
    for i, image in enumerate(images):
        size, image_digits = p**i, np.array(_index_digits(image, p, n), dtype=digits.dtype)
        for d in range(1, p):
            block = digits[:, d * size : (d + 1) * size]
            np.add(digits[:, (d - 1) * size : d * size], image_digits[:, None], out=block)
            np.remainder(block, p, out=block)
    out = np.zeros(p**n, dtype=np.int64)
    for row in digits[::-1]:
        out *= p
        out += row
    return out


# ---------------------------------------------------------------------------
# field parameters and tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldParams:
    """F_{q^m} with q = p^s, realized over the prime field of degree n = s*m."""

    p: int
    s: int
    m: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise CompositeP(f"p = {self.p} is not prime")
        if self.s < 1 or self.m < 1:
            raise ValueError("s and m must be positive")

    @property
    def n(self) -> int:
        return self.s * self.m

    @property
    def q(self) -> int:
        return self.p**self.s

    @property
    def order(self) -> int:
        return self.p**self.n


class FieldTable:
    """Immutable table-backed realization of F_{p^n}.

    exp[i] is the index of alpha^i, log is its inverse on nonzero indices
    (log[0] = -1), and zech[i] solves alpha^zech[i] = 1 + alpha^i
    (-1 where 1 + alpha^i = 0). Multiplication is exponent addition;
    addition is XOR for p = 2 and one Zech lookup for odd p; negation
    multiplies by -1.

    exp is filled by baby-step/giant-step with B = isqrt(p^n - 1): the
    baby steps exp[:B] are B small products of digit vectors by the matrix
    of x -> alpha x; ``_linear_map`` builds the giant map x -> alpha^B x
    once, from the products alpha^B x^i mod the modulus, and each block
    exp[jB:(j+1)B] is its gather at block j - 1. log inverts exp; zech is
    built on first read.
    """

    def __init__(self, params: FieldParams, modulus: tuple[int, ...], alpha: int):
        self.params = params
        self.p = params.p
        self.n = params.n
        self.order = params.order
        self.modulus = tuple(int(c) for c in modulus)
        self.alpha = int(alpha)
        if (len(self.modulus) != self.n + 1 or self.modulus[-1] != 1
                or not all(0 <= c < self.p for c in self.modulus)):
            raise ValueError(
                f"modulus {list(self.modulus)} of F_{self.p}^{self.n} is not monic of "
                f"degree {self.n} with coefficients in [0, {self.p})"
            )
        if not 0 < self.alpha < self.order:
            raise ValueError(f"alpha {self.alpha} is not a nonzero element of F_{self.p}^{self.n}")
        self._unit_order_factors = factorize(self.order - 1) if self.order > 2 else {}
        self._build_tables()
        self._trace_cache: dict[int, np.ndarray] = {}

    # -- construction -------------------------------------------------------

    def _build_tables(self):
        p, n, N = self.p, self.n, self.order
        units, baby = N - 1, isqrt(N - 1)
        alpha_poly, mod = _index_digits(self.alpha, p, n), list(self.modulus)
        weights = p ** np.arange(n, dtype=np.int64)

        def basis_images(a: list[int]) -> np.ndarray:
            """Digit rows of a x^i mod the modulus, i < n: the map x -> a x."""
            return np.array([_poly_mulmod(a, [0] * i + [1], mod, p) for i in range(n)])

        exp = np.empty(units, dtype=np.int64)
        # baby steps: the digits of alpha^i, i < B, one small product each
        step, digits = basis_images(alpha_poly).T, np.zeros((baby, n), dtype=np.int64)
        digits[0, 0] = 1
        for i in range(1, baby):
            digits[i] = step @ digits[i - 1] % p
        exp[:baby] = digits @ weights
        # giant steps: block j is the map x -> alpha^B x gathered at block j - 1
        giant_poly = _poly_powmod(alpha_poly, baby, mod, p)
        giant = _linear_map(p, n, (basis_images(giant_poly) @ weights).tolist())
        for start in range(baby, units, baby):
            block = exp[start : start + baby]
            np.take(giant, exp[start - baby : start - baby + len(block)], out=block)
        del giant
        log = np.full(N, -1, dtype=np.int64)
        log[exp] = np.arange(units, dtype=np.int64)
        if np.any(log[1:] < 0):
            # a reducible modulus leaves no cyclic group of order p^n - 1
            raise ValueError(
                f"alpha {self.alpha} does not generate the unit group of F_{self.p}^{self.n} "
                f"modulo {list(self.modulus)}"
            )
        self.exp = exp
        self.log = log

    @cached_property
    def zech(self) -> np.ndarray:
        """zech[i] = log(1 + alpha^i), -1 where 1 + alpha^i = 0; built on
        first read, which only odd-p addition makes. Adding one steps the
        lowest base-p digit cyclically, so in rows of p consecutive indices
        log(x + 1) is the row of log(x) rotated by one."""
        log_plus_one = np.roll(self.log.reshape(-1, self.p), -1, axis=1).ravel()
        return log_plus_one[self.exp]

    # -- scalar arithmetic on indices ---------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_arrays(a, b))

    def neg(self, a: int) -> int:
        return int(self.neg_array(a))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % (self.order - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("zero has no inverse")
        return int(self.exp[(-int(self.log[a])) % (self.order - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroElement("zero to a negative power")
            return 0
        return int(self.exp[(int(self.log[a]) * e) % (self.order - 1)])

    # -- vectorized arithmetic on index arrays ------------------------------

    def add_arrays(self, a: np.ndarray, b) -> np.ndarray:
        """Elementwise sum of index arrays (either may be a scalar index):
        XOR of the digit vectors for p = 2, otherwise one Zech lookup,
        alpha^i + alpha^j = alpha^(i + zech[j - i])."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        la = self.log[a]
        # "wrap" reduces the exponents mod p^n - 1; log 0 = -1 only picks
        # entries that the zero cases below overwrite
        z = np.take(self.zech, self.log[b] - la, mode="wrap")
        out = np.asarray(np.take(self.exp, la + z, mode="wrap"))
        np.copyto(out, 0, where=z < 0)
        np.copyto(out, b, where=a == 0)
        np.copyto(out, a, where=b == 0)
        return out

    def neg_array(self, a: np.ndarray) -> np.ndarray:
        """-a = (-1) a, and -1 has index p - 1."""
        return self.mul_array(a, self.p - 1)

    def mul_array(self, a: np.ndarray, b) -> np.ndarray:
        """Elementwise product of index arrays (either may be a scalar
        index), broadcast against each other as ``add_arrays`` does:
        alpha^i alpha^j = alpha^(i + j)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        # "wrap" reduces the exponents mod p^n - 1; log 0 = -1 only picks
        # entries that the zero factors overwrite
        out = np.asarray(np.take(self.exp, self.log[a] + self.log[b], mode="wrap"))
        np.copyto(out, 0, where=(a == 0) | (b == 0))
        return out

    def pow_array(self, a: np.ndarray, e: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = a != 0
        out[nz] = self.exp[(self.log[a[nz]] * e) % (self.order - 1)]
        if e == 0:
            out[~nz] = 1
        return out

    # -- traces and subfields ------------------------------------------------

    def _frobenius_sum(self, a, t: int, r: int) -> np.ndarray:
        """sum_{j<r} a^(p^(t j)) for an index or index array a."""
        acc = y = np.asarray(a, dtype=np.int64)
        for _ in range(r - 1):
            y = self.pow_array(y, self.p**t)
            acc = self.add_arrays(acc, y)
        return acc

    def trace_map(self, to_degree: int) -> np.ndarray:
        """Index array of the trace Tr_{p^n / p^t}(x) onto the subfield of
        degree t = ``to_degree`` at every index x, cached per t. The trace is
        F_p-linear, so ``_linear_map`` builds it from the images of the basis
        indices p^i; for t = n that is the identity."""
        t = to_degree
        if self.n % t:
            raise NotASubfield(f"degree {t} does not divide {self.n}")
        if t not in self._trace_cache:
            basis = self.p ** np.arange(self.n, dtype=np.int64)
            acc = _linear_map(self.p, self.n, self._frobenius_sum(basis, t, self.n // t).tolist())
            if not np.array_equal(self.pow_array(acc, self.p**t), acc):
                raise NotASubfield("trace image escaped the target subfield")  # unreachable
            self._trace_cache[t] = acc
        return self._trace_cache[t]

    def subfield_indices(self, t: int) -> np.ndarray:
        """Sorted indices of the subfield with p^t elements."""
        if self.n % t:
            raise NotASubfield(f"degree {t} does not divide {self.n}")
        size = self.p**t
        if size == self.order:
            return np.arange(self.order, dtype=np.int64)
        step = (self.order - 1) // (size - 1)
        members = self.exp[:: step][: size - 1]
        return np.sort(np.concatenate(([0], members)))

    def in_subfield(self, a: int, t: int) -> bool:
        return self.pow(a, self.p**t) == a


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _find_primitive(modulus: list[int], params: FieldParams) -> int:
    p, n, N = params.p, params.n, params.order
    if N == 2:
        return 1
    units = N - 1
    primes = list(factorize(units))
    for idx in range(2, N):
        cand = _index_digits(idx, p, n)
        for r in primes:
            e = _poly_powmod(cand, units // r, modulus, p)
            if _poly_trim(list(e)) == [1]:
                break
        else:
            return idx
    raise CompositeP("no primitive element found")  # unreachable


def trace(fld: FieldTable, x: int, from_degree: int, to_degree: int) -> int:
    """Relative trace sum_{i<r} x^(p^(t*i)) with r = from/to (degrees over
    the prime field). x must lie in the subfield of size p^from."""
    if from_degree % to_degree or fld.n % from_degree:
        raise NotASubfield(
            f"need to | from | n, got to={to_degree}, from={from_degree}, n={fld.n}"
        )
    if fld.pow(x, fld.p**from_degree) != x:
        raise NotASubfield(f"element {x} not in the degree-{from_degree} subfield")
    return int(fld._frobenius_sum(x, to_degree, from_degree // to_degree))


def element_order(fld: FieldTable, x: int) -> int:
    """Multiplicative order, by stripping prime factors from p^n - 1."""
    if x == 0:
        raise ZeroElement("zero has no multiplicative order")
    order = fld.order - 1
    if order == 1:
        return 1
    for r in fld._unit_order_factors:
        while order % r == 0 and fld.pow(x, order // r) == 1:
            order //= r
    return order


def get_field(p: int, s: int, m: int, max_order: int | None = None) -> FieldTable:
    """The canonical table-backed realization of F_{p^(s*m)}, memoized.

    The modulus is the least monic irreducible of degree n in the base-p
    ordering of its non-leading coefficients; alpha is the least-index
    primitive element. Both searches are deterministic, so serialized
    artifacts are stable across runs. Every call applies the ``table`` cap
    resolved from ``max_order``; the memo holds one table per (p, s, m)
    whatever cap admitted it, since tables are immutable and sharing them
    is safe."""
    params = FieldParams(p, s, m)
    require("table", params.order, max_order)
    return _memoized_field(params)


@lru_cache(maxsize=32)
def _memoized_field(params: FieldParams) -> FieldTable:
    p, n = params.p, params.n
    for c in range(params.order):
        modulus = _index_digits(c, p, n) + [1]
        # a zero constant term makes x a factor
        if (n == 1 or modulus[0]) and _is_irreducible(modulus, p):
            return FieldTable(params, tuple(modulus), _find_primitive(modulus, params))
    # cannot happen: irreducibles exist in every degree
    raise CompositeP(f"no irreducible of degree {n} over F_{p}")


# empties the memo, e.g. to time cold builds
get_field.cache_clear = _memoized_field.cache_clear


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def field_to_dict(fld: FieldTable) -> dict:
    return {
        "p": fld.p,
        "s": fld.params.s,
        "m": fld.params.m,
        "modulus": list(fld.modulus),
        "alpha": fld.alpha,
    }


def field_from_dict(d: dict) -> FieldTable:
    """The canonical table of (p, s, m); the recorded modulus and alpha must
    be the canonical ones, since every table is reproducible from (p, s, m)."""
    fld = get_field(int(d["p"]), int(d["s"]), int(d["m"]))
    modulus, alpha = tuple(int(c) for c in d["modulus"]), int(d["alpha"])
    if (modulus, alpha) != (fld.modulus, fld.alpha):
        raise ValueError(
            f"modulus {list(modulus)} with alpha {alpha} is not the canonical "
            f"F_{fld.p}^{fld.n}: modulus {list(fld.modulus)}, alpha {fld.alpha}"
        )
    return fld


def element_to_string(fld: FieldTable, x: int) -> str:
    """Little-endian base-p digit string; comma-separated when p > 10."""
    return ("" if fld.p <= 10 else ",").join(str(d) for d in _index_digits(x, fld.p, fld.n))


def element_from_string(fld: FieldTable, s: str) -> int:
    """Inverse of element_to_string, split by the same p > 10 rule."""
    digits = s.split(",") if fld.p > 10 else list(s)
    if len(digits) != fld.n or not all(d.isdecimal() and int(d) < fld.p for d in digits):
        raise ValueError(f"bad digit string {s!r} for F_{fld.p}^{fld.n}")
    idx = 0
    for d in reversed(digits):
        idx = idx * fld.p + int(d)
    return idx
