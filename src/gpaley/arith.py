"""Integer helpers: primality, factoring, exact division, and the gcd of
q^m - 1 with q^ell + 1 that drives the whole family case analysis."""

import decimal
import functools
import math

from .errors import BudgetExceeded, InternalCheckError

# Deterministic Miller-Rabin witness set for n < 2^64 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_FACTOR_BIT_LIMIT = 128

# Integers up to this many bits (about 600 digits) have fewer digits than
# any setting of sys.set_int_max_str_digits allows, so str() converts them.
_STR_BITS = 2000


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    x0 = 2
    c = 1
    while True:
        x = y = x0
        d = 1
        q = 1
        ys = y
        m = 128
        r = 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += m
            r *= 2
        if d == n:
            # backtrack one squaring at a time
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
        if d != n:
            return d
        c += 1  # rare: retry with a different polynomial


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}. Trial division then Pollard
    rho; inputs beyond 128 bits are refused (callers fall back to symbolic
    paths that never need the factorization)."""
    if n.bit_length() > _FACTOR_BIT_LIMIT:
        raise BudgetExceeded(f"refusing to factor {n.bit_length()}-bit integer")
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def v2(n: int) -> int:
    """2-adic valuation of n (v2(0) treated as +infinity via a large int)."""
    if n == 0:
        return 1 << 62
    return (n & -n).bit_length() - 1


def gcd_power(q: int, m: int, ell: int) -> int:
    """gcd(q^m - 1, q^ell + 1) by the closed three-case rule:

        q^(m,ell) + 1   if v2(m) > v2(ell),
        2               if v2(m) <= v2(ell) and q odd,
        1               if v2(m) <= v2(ell) and q even.

    The Euclidean gcd is always computed alongside; disagreement is a fatal
    internal error, never a recoverable condition.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if m < 1 or ell < 0:
        raise ValueError("need m >= 1 and ell >= 0")
    if v2(m) > v2(ell):
        closed = q ** math.gcd(m, ell) + 1
    elif q % 2 == 1:
        closed = 2
    else:
        closed = 1
    euclid = math.gcd(q**m - 1, q**ell + 1)
    if closed != euclid:
        raise InternalCheckError(
            f"gcd rule mismatch at q={q}, m={m}, ell={ell}: {closed} != {euclid}"
        )
    return closed


def exact_div(a: int, b: int) -> int:
    """a // b with a zero-remainder assertion. All closed forms in this
    package divide exactly; a nonzero remainder means a formula is wrong."""
    d, r = divmod(a, b)
    if r != 0:
        raise InternalCheckError(f"non-exact division {a} / {b}")
    return d


def int_to_str(n: int) -> str:
    """Decimal string of n, equal to str(n) but free of the interpreter's
    digit limit, which it leaves as it is (tree counts legitimately run to
    millions of digits).

    Large n are split in binary halves, converted recursively and joined
    with exact decimal arithmetic, whose multiplication is subquadratic;
    str(n) on an int is quadratic in the number of digits. The same divide
    and conquer as CPython 3.12's ``_pylong.int_to_decimal_string``."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        two_to = functools.cache(lambda w: decimal.Decimal(2) ** w)

        def convert(x: int, w: int) -> decimal.Decimal:
            """x as a Decimal, given 0 <= x < 2^w."""
            if w <= _STR_BITS:
                return decimal.Decimal(str(x))
            half = w >> 1
            hi = x >> half
            return convert(x - (hi << half), half) + convert(hi, w - half) * two_to(half)

        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text
