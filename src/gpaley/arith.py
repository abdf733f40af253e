"""Integer helpers: primality, factoring, exact division, equality of
power products without evaluating them, the exact decimal context and
decimal text of large integers, and the gcd of
q^m - 1 with q^ell + 1 that drives the whole family case analysis."""

import contextlib
import decimal
import functools
import math

from .errors import BudgetExceeded, InternalCheckError

# Deterministic Miller-Rabin witness set for n < 2^64 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_FACTOR_BIT_LIMIT = 40

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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, by trial division up to
    isqrt(n). The package factors only degrees and unit-group orders
    p^n - 1 of fields within the table budget; inputs of 2^40 or more are
    refused, so every accepted input takes at most about 2^19 divisions."""
    if n.bit_length() > _FACTOR_BIT_LIMIT:
        raise BudgetExceeded(f"refusing to factor {n.bit_length()}-bit integer")
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
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
    package divide exactly; a nonzero remainder means a formula is wrong.
    The message names the dividend by its bit length, as a product may have
    more digits than str() converts."""
    d, r = divmod(a, b)
    if r != 0:
        raise InternalCheckError(
            f"non-exact division: remainder {r} modulo {b} of a {int(a).bit_length()}-bit dividend"
        )
    return d


def same_product(left, right) -> bool:
    """Whether the products of base^exp over two lists of (base, exp)
    pairs, with integer bases and exponents >= 0, are equal, decided
    without evaluating either. A zero factor must meet a zero factor, the
    exponents on negative bases must agree mod 2, and the exponent vectors
    over the coprime basis of the absolute bases must be equal. Pairwise
    coprime integers above 1 are multiplicatively independent, as a prime
    dividing one divides no other, so the vectors agree exactly when the
    absolute products do."""
    sides = [[(base, exp) for base, exp in pairs if exp] for pairs in (left, right)]
    zero = [any(base == 0 for base, _ in pairs) for pairs in sides]
    if any(zero):
        return zero[0] == zero[1]
    sign = [sum(exp for base, exp in pairs if base < 0) % 2 for pairs in sides]
    if sign[0] != sign[1]:
        return False
    basis = _coprime_basis(abs(base) for pairs in sides for base, _ in pairs)
    return _exponents(sides[0], basis) == _exponents(sides[1], basis)


def _coprime_basis(values) -> list[int]:
    """Pairwise coprime integers above 1 of which every value is a product:
    while two members share a factor g, x and y are replaced by x/g, y/g
    and g, and 1s are dropped. Each split divides the product of all
    members by g > 1, so the splitting ends (Bernstein, "Factoring into
    coprimes in essentially linear time", J. Algorithms 54, 2005, gives
    the fast version; these lists are short)."""
    todo = [x for x in values if x > 1]
    basis: list[int] = []
    while todo:
        x = todo.pop()
        for i, y in enumerate(basis):
            g = math.gcd(x, y)
            if g > 1:
                del basis[i]
                todo.extend(z for z in (x // g, y // g, g) if z > 1)
                break
        else:
            basis.append(x)
    return basis


def _exponents(pairs, basis: list[int]) -> list[int]:
    """The exponent of each basis member in the product of |base|^exp."""
    out = [0] * len(basis)
    for base, exp in pairs:
        rest = abs(base)
        for i, c in enumerate(basis):
            while rest % c == 0:
                rest //= c
                out[i] += exp
        if rest != 1:
            raise InternalCheckError(f"{abs(base)} is not a product over the coprime basis")
    return out


@contextlib.contextmanager
def exact_decimal():
    """A local decimal context in which integer arithmetic of any size is
    exact: the precision and exponent reach their maxima, and any rounding
    raises ``decimal.Inexact`` rather than change a digit. The caller's
    context is restored on exit."""
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        yield


def int_to_str(n: int) -> str:
    """Decimal string of n, equal to str(n) but free of the interpreter's
    digit limit, which it leaves as it is (walk counts at a large length
    legitimately run to millions of digits). Tree counts for output do not
    pass through here: ``spectra.tree_count_text`` computes them in decimal.

    Large n are split in binary halves, converted recursively and joined
    with exact decimal arithmetic, whose multiplication is subquadratic;
    str(n) on an int is quadratic in the number of digits. The same divide
    and conquer as CPython 3.12's ``_pylong.int_to_decimal_string``."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    with exact_decimal():
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
