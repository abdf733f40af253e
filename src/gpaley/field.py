"""Exact arithmetic in F_{p^n} with discrete-log, exponential and Zech tables.

A field F_{q^m} with q = p^s is realized as a single degree-n extension of
F_p, n = s*m; the intermediate field F_q is recovered as the fixed field of
the s-fold Frobenius. An element is a plain integer index in [0, p^n):
the base-p digits of the index are the coefficients of the residue
polynomial (little-endian). Index 0 is zero, index 1 is one, and the prime
subfield occupies indices 0..p-1. All F_p-linear algebra is done on one
representation, digit vectors and n x n matrices over F_p: the companion
matrix of v -> x v mod the modulus, the matrix of v -> a v built from it,
and their powers by square-and-multiply. The modulus and alpha are found,
and the exp table is filled, with these matrices alone.

Multiplication adds logarithms. Addition is the XOR of the indices for
p = 2 and one Zech-logarithm lookup for odd p (Lidl and Niederreiter,
Finite Fields, 2.4); negation is the product by -1, the index p - 1. The
scalar ``add``, ``neg``, ``mul`` and ``pow`` are the whole-array kernels
at one index; ``inv`` reads the exp and log tables directly. The exp table
is filled by baby-step/giant-step (Shanks, 1971), and the Zech table is
built on first read, which only odd-p addition makes: traces are F_p-linear
maps on base-p digit vectors, read off the log and exp tables, so neither a
p = 2 field nor a trace builds it. The library reads a trace as
``trace_sequence``, its log-order m-sequence of subfield positions, kept one
byte per element for p^t < 256 and filled by ``_linear_map`` from the
positions of the n basis images, with no whole-field map of indices; the
trace-form counts read it as strided views. ``trace_map``, the trace by
index, is built on each call for callers. ``certify_field`` holds the
exp, log and Zech tables to digit arithmetic in O(N) work, each power the
image of the last under the index map of x -> alpha x;
``graphs.build_graph`` runs it on every graph, and ``get_field`` does not.

The exp, log and Zech tables and every linear map of indices hold int32, 4
bytes per element: ``_table_dtype`` admits a field while p^n < 2^31 and
refuses a larger one. numpy converts an int32 index to intp whole before
it reads or writes by it, so every whole-field gather by a table goes
through ``_by_index``, and the one scatter, log from exp, is written the
same way: a run of indices at a time. Every sum or product of table entries
that can pass 2^31 - 1 is taken in int64.

``get_field`` is the one constructor: it picks the modulus and the
generator alpha from (p, n) alone by a deterministic rule, so every table
is reproducible, and it memoizes one table per (p, n). Each (p, s, m) with
s m = n gets its own memoized view of that table, which carries its own
params and shares the exp, log and Zech tables and the per-degree caches.
"""

import copy
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

from .arith import factorize, is_prime, require_int
from .budgets import require
from .errors import CompositeP, InternalCheckError, NotASubfield, ZeroElement

# ---------------------------------------------------------------------------
# F_p-linear algebra on base-p digit vectors and n x n matrices over F_p
# ---------------------------------------------------------------------------

def _digits(a, p: int, n: int) -> np.ndarray:
    """Little-endian base-p digits of an index or index array, on a new last
    axis: the coefficients of the residue polynomial. The weights p^i are
    int64, so a size whose top weight p^(n-1) passes int64 is refused with a
    ValueError rather than read through a wrapped weight."""
    if p ** (n - 1) >= 2**63:
        raise ValueError(f"digits of F_{{{p}^{n}}}: the weight {p}^{n - 1} does not fit in int64")
    return np.asarray(a, dtype=np.int64)[..., None] // p ** np.arange(n, dtype=np.int64) % p


def _companion(modulus, p: int) -> np.ndarray:
    """Matrix of v -> x v mod the monic ``modulus`` on digit vectors: x^i
    goes to x^(i+1), and x^(n-1) to x^n = -(f_0 + ... + f_(n-1) x^(n-1))."""
    n = len(modulus) - 1
    c = np.eye(n, k=-1, dtype=np.int64)
    c[:, -1] = -np.asarray(modulus[:n], dtype=np.int64) % p
    return c


def _times(companion: np.ndarray, a, p: int) -> np.ndarray:
    """Matrix of v -> a v for the digit vector a: column i is the digit
    vector of a x^i, the companion times column i - 1."""
    columns = [np.asarray(a, dtype=np.int64)]
    for _ in range(1, len(companion)):
        columns.append(companion @ columns[-1] % p)
    return np.stack(columns, axis=1)


def _matpow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p by square-and-multiply. Entries stay below p, so every
    entry of a product stays below n p^2 < 2^63 for any field that fits a
    table."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        m = m @ m % p
        e >>= 1
    return out


def _is_irreducible(f, p: int) -> bool:
    """Rabin's test (SIAM J. Comput. 9, 1980): monic f of degree n is
    irreducible iff x^(p^n) = x mod f and x^(p^(n/r)) - x is coprime to f
    for every prime r | n. Once x^(p^n) = x, f divides x^(p^n) - x, the
    product of the monic irreducibles of degrees dividing n (Lidl and
    Niederreiter, Finite Fields, Thm 3.20), so f is squarefree and
    F_p[x]/(f) is a product of fields F_(p^d) with d | n. Each unit group
    has order p^d - 1 dividing p^n - 1, and a non-unit has a zero
    component, so v = x^(p^(n/r)) - x is coprime to f exactly when
    v^(p^n - 1) = 1: one ``_matpow`` of the matrix of v -> v w."""
    n = len(f) - 1
    if n == 1:
        return True
    c = _companion(f, p)
    x = c[:, 0]  # x times 1
    if not np.array_equal(_matpow(c, p**n, p)[:, 0], x):
        return False
    one = np.eye(n, dtype=np.int64)
    for r in factorize(n):
        v = (_matpow(c, p ** (n // r), p)[:, 0] - x) % p
        if not np.array_equal(_matpow(_times(c, v, p), p**n - 1, p), one):
            return False
    return True


def _table_dtype(p: int, n: int) -> type:
    """The dtype of the tables and linear maps of F_{p^n}: int32, which
    holds every index and every exponent while p^n < 2^31, so every field
    under the default ``table`` budget 2^22. A larger field, which only a
    raised ``GPG_MAX_ORDER`` admits, is refused with a ValueError rather
    than held in a second dtype."""
    if p**n >= 2**31:
        raise ValueError(f"F_{{{p}^{n}}}: {p}^{n} indices do not fit in int32 tables")
    return np.int32


_CHUNK = 2**14


def _by_index(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index] for a 1-D index array, ``_CHUNK`` indices at a time,
    each run converted to intp first: numpy converts an int32 index to intp
    whole, 8 bytes per entry, before it reads by it, and reads through intp
    faster."""
    out = np.empty(len(index), dtype=table.dtype)
    for start in range(0, len(index), _CHUNK):
        out[start : start + _CHUNK] = table[index[start : start + _CHUNK].astype(np.intp)]
    return out


def _linear_map(p: int, n: int, images: list[int], dtype=None) -> np.ndarray:
    """Index array, in ``dtype`` (the field's ``_table_dtype`` by default,
    which holds every index), of the F_p-linear map on F_{p^n} that sends
    each basis index p^i to images[i] (Lidl and Niederreiter, Finite Fields,
    2.3); every value the map takes must fit ``dtype``. Block
    [d p^i, (d+1) p^i) is block d - 1 plus images[i], added without a field
    table: XOR for p = 2, else in rows of base-p digits sized for the sum of
    two. A digit row is kept only at the positions some image uses, so a
    trace onto F_p fills one row, and the value is put back together by
    Horner over those rows, one power of p per gap; each partial sum is a
    value of the map."""
    dtype = _table_dtype(p, n) if dtype is None else dtype
    if p == 2:
        out = np.zeros(2**n, dtype=dtype)
        for i, image in enumerate(images):
            np.bitwise_xor(out[: 1 << i], image, out=out[1 << i : 2 << i])
        return out
    digit_dtype = np.min_scalar_type(2 * p)
    image_digits = _digits(images, p, n).astype(digit_dtype)
    used = np.flatnonzero(image_digits.any(axis=0))
    digits = np.zeros((len(used), p**n), dtype=digit_dtype)
    for i, image in enumerate(image_digits[:, used]):
        size = p**i
        for d in range(1, p):
            block = digits[:, d * size : (d + 1) * size]
            np.add(digits[:, (d - 1) * size : d * size], image[:, None], out=block)
            np.remainder(block, p, out=block)
    out = np.zeros(p**n, dtype=dtype)
    # highest used position first; each gap to the next lower one is p^gap
    for row, gap in zip(digits[::-1], np.diff(used, prepend=0)[::-1].tolist()):
        out += row
        if gap:
            out *= p**gap
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
        for name in ("p", "s", "m"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
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

    exp is filled by ``_build_tables``, baby-step/giant-step on digit
    matrices; log inverts exp, and zech is built on first read. All three
    are int32 (``_table_dtype``), 4 bytes per element, 4 MiB each at 2^20;
    the sum of two logs, or a log times an exponent, is taken in int64.
    ``get_field`` hands out views of a table: shallow copies with their own
    params that share its arrays and caches.
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
        self._build_tables()
        self._root: FieldTable | None = None  # on a view, the table it shares
        self._sequence_cache: dict[int, np.ndarray] = {}
        self._frobenius_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- construction -------------------------------------------------------

    def _build_tables(self):
        """exp and log by baby-step/giant-step with B = isqrt(p^n - 1). The
        baby steps exp[:B] are B products of digit vectors by the matrix of
        v -> alpha v, ``_times`` of the companion matrix. Column i of that
        matrix to the B-th power is the digit vector of alpha^B x^i, so read
        as indices its columns are the basis images from which
        ``_linear_map`` builds the giant map v -> alpha^B v once; each block
        exp[jB:(j+1)B] is its gather at block j - 1. log is the scatter
        log[exp[i]] = i."""
        p, n, N = self.p, self.n, self.order
        units, baby = N - 1, isqrt(N - 1)
        weights = p ** np.arange(n, dtype=np.int64)
        dtype = _table_dtype(p, n)
        exp = np.empty(units, dtype=dtype)
        # baby steps: the digits of alpha^i, i < B, one small product each
        step = _times(_companion(self.modulus, p), _digits(self.alpha, p, n), p)
        digits = np.zeros((baby, n), dtype=np.int64)
        digits[0, 0] = 1
        for i in range(1, baby):
            digits[i] = step @ digits[i - 1] % p
        exp[:baby] = digits @ weights
        # giant steps: block j is the map v -> alpha^B v gathered at block j - 1
        giant = _linear_map(p, n, (weights @ _matpow(step, baby, p)).tolist())
        for start in range(baby, units, baby):
            block = exp[start : start + baby]
            np.take(giant, exp[start - baby : start - baby + len(block)], out=block)
        del giant
        log = np.full(N, -1, dtype=dtype)
        for start in range(0, units, _CHUNK):  # intp runs, as in _by_index
            run = exp[start : start + _CHUNK].astype(np.intp)
            log[run] = np.arange(start, start + len(run), dtype=dtype)
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
        log(x + 1) is the row of log(x) rotated by one. A view reads the
        Zech table of the table it shares, so each (p, n) builds one."""
        if self._root is not None:
            return self._root.zech
        log_plus_one = np.roll(self.log.reshape(-1, self.p), -1, axis=1).ravel()
        return _by_index(log_plus_one, self.exp)

    # -- scalar arithmetic on indices ---------------------------------------

    def _index(self, a: int) -> int:
        """a, refused with ValueError unless it is an integer (not a bool)
        in [0, p^n): the table lookups would wrap a negative index to the
        last elements and truncate a float. The array kernels leave this
        check to their callers."""
        if isinstance(a, bool) or not isinstance(a, numbers.Integral) or not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element index of F_{self.p}^{self.n}")
        return a

    def add(self, a: int, b: int) -> int:
        return int(self.add_arrays(self._index(a), self._index(b)))

    def neg(self, a: int) -> int:
        return int(self.neg_array(self._index(a)))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_array(self._index(a), self._index(b)))

    def inv(self, a: int) -> int:
        if self._index(a) == 0:
            raise ZeroElement("zero has no inverse")
        return int(self.exp[(-int(self.log[a])) % (self.order - 1)])

    def pow(self, a: int, e: int) -> int:
        return int(self.pow_array(self._index(a), e))

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
        # entries that the zero cases below overwrite. The exponents are
        # intp: a sum of two int32 logs can pass 2^31 - 1
        z = np.take(self.zech, np.subtract(self.log[b], la, dtype=np.intp), mode="wrap")
        out = np.asarray(np.take(self.exp, np.add(la, z, dtype=np.intp), mode="wrap"))
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
        exponents = np.add(self.log[a], self.log[b], dtype=np.intp)
        out = np.asarray(np.take(self.exp, exponents, mode="wrap"))
        np.copyto(out, 0, where=(a == 0) | (b == 0))
        return out

    def pow_array(self, a: np.ndarray, e: int) -> np.ndarray:
        """Elementwise a^e: alpha^i to the e is alpha^(i e mod p^n - 1), so e
        is reduced first; 0^0 = 1, 0^e = 0 for e > 0, and a zero base with
        e < 0 raises ZeroElement. An e that is not an integer, or is a bool,
        raises ValueError. The product of a log and e mod p^n - 1 is taken
        in int64: in int32 it would wrap without an error."""
        if isinstance(e, bool) or not isinstance(e, numbers.Integral):
            raise ValueError(f"exponent {e} is not an integer")
        a, units = np.asarray(a, dtype=np.int64), self.order - 1
        nz = a != 0
        if e < 0 and not nz.all():
            raise ZeroElement("zero to a negative power")
        out = np.full(a.shape, int(e == 0), dtype=np.int64)
        out[nz] = self.exp[self.log[a[nz]].astype(np.int64) * (e % units) % units]
        return out

    # -- traces and subfields ------------------------------------------------

    def _frobenius_sum(self, a, t: int, r: int) -> np.ndarray:
        """sum_{j<r} a^(p^(t j)) for an index or index array a; r = 1 returns
        a unchanged. The sum is F_p-linear: the base-p digit vector of a
        times the F_p matrix sum_{j<r} F^j mod p, F that of x -> x^(p^t),
        cached per (t, r). Row i of F^j is the digit vector of
        (p^i)^(p^(t j)); all r are read with one gather from exp at
        log(p^i) p^(t j) mod p^n - 1, so no Zech table is read."""
        a = np.asarray(a, dtype=np.int64)
        if r == 1:
            return a
        p, units = self.p, self.order - 1
        weights = p ** np.arange(self.n, dtype=np.int64)
        if (t, r) not in self._frobenius_cache:
            steps = np.array([pow(p, t * j, units) for j in range(r)], dtype=np.int64)
            images = self.exp[np.outer(steps, self.log[weights]) % units]
            self._frobenius_cache[t, r] = _digits(images, p, self.n).sum(axis=0) % p
        return _digits(a, p, self.n) @ self._frobenius_cache[t, r] % p @ weights

    def _trace_images(self, t: int) -> np.ndarray:
        """Tr_{p^n / p^t} of the n basis indices p^i, by one
        ``_frobenius_sum``; for t = n, the basis itself."""
        basis = self.p ** np.arange(self.n, dtype=np.int64)
        return self._frobenius_sum(basis, t, self.n // t)

    def trace_map(self, to_degree: int) -> np.ndarray:
        """Index array of the trace Tr_{p^n / p^t}(x) onto the subfield of
        degree t = ``to_degree`` at every index x, built on each call, int32
        as ``_linear_map`` returns it from the basis images. Every index is
        held to the subfield by one gather (``_by_index``) from a membership
        mask of ``subfield_indices(t)``: x^(p^t) = x exactly on F_{p^t}.
        The library reads ``trace_sequence``, not this map; it is kept for
        callers that want the trace by index."""
        t = to_degree
        self._require_subfield(t)
        out = _linear_map(self.p, self.n, self._trace_images(t).tolist())
        inside = np.zeros(self.order, dtype=bool)
        inside[self.subfield_indices(t)] = True
        if not _by_index(inside, out).all():
            raise NotASubfield("trace image escaped the target subfield")
        return out

    def trace_sequence(self, t: int) -> np.ndarray:
        """The trace onto the subfield of degree t in log order, cached per t
        and shared by every view of the table: entry i < p^n - 1 is the
        position of Tr_{p^n / p^t}(alpha^i) in ``subfield_indices(t)``, in
        the narrowest unsigned dtype that holds p^t. This is the m-sequence
        of alpha (Golomb, Shift Register Sequences, 1967), and the trace on a
        coset alpha^j <alpha^h> is its h-decimation from j, a strided view
        (Klapper, Des. Codes Cryptogr. 11, 1997).

        No whole-field trace map is built. The members of F_{p^t} form an
        F_p-subspace of the digit vectors; its pivots are the t digit
        positions at which some member has its highest nonzero digit. Two
        members first differ, from the top, at a pivot, as their difference
        is a member; so the key of a member, its digits at the pivots read
        as a base-p number, orders the members as their indices do, and is
        its position. Every member is checked to sit at its key, or
        InternalCheckError. The n basis images are held to F_{p^t} by the
        member at their key: a linear map lands in a subspace exactly when
        its basis images do. The trace is F_p-linear, so ``_linear_map``
        fills the key of every trace value from the keys of the basis
        images, in the sequence's dtype, and one ``_by_index`` gather by exp
        puts it in log order."""
        self._require_subfield(t)
        if t not in self._sequence_cache:
            p, members = self.p, self.subfield_indices(t)
            # a member's highest nonzero digit is c exactly when it lies in [p^c, p^(c+1))
            bounds = np.searchsorted(members, p ** np.arange(self.n + 1, dtype=np.int64))
            pivots = np.flatnonzero(np.diff(bounds)).tolist()
            # runs of consecutive pivots: (lowest position, length, first key digit)
            starts = [j for j, c in enumerate(pivots) if not j or pivots[j - 1] != c - 1]
            runs = [(pivots[a], b - a, a) for a, b in zip(starts, starts[1:] + [len(pivots)])]

            def key(x):
                return sum(x // p**c % p**size * p**j for c, size, j in runs)

            if not np.array_equal(key(members), np.arange(len(members))):
                raise InternalCheckError(f"the members of F_{{{p}^{t}}} do not sit at their keys")
            images = self._trace_images(t)
            keys = key(images)
            if not np.array_equal(members[keys], images):
                raise NotASubfield("trace image escaped the target subfield")
            keys_at = _linear_map(p, self.n, keys.tolist(), np.min_scalar_type(len(members)))
            self._sequence_cache[t] = _by_index(keys_at, self.exp)
        return self._sequence_cache[t]

    def subfield_indices(self, t: int) -> np.ndarray:
        """Sorted indices of the subfield with p^t elements."""
        self._require_subfield(t)
        size = self.p**t
        if size == self.order:
            return np.arange(self.order, dtype=np.int64)
        step = (self.order - 1) // (size - 1)
        members = self.exp[:: step][: size - 1]
        return np.sort(np.concatenate(([0], members)))

    def _require_subfield(self, t: int) -> None:
        """Subfields of F_{p^n} have the degrees t >= 1 that divide n."""
        require_int(t, "subfield degree")
        if t < 1 or self.n % t:
            raise NotASubfield(f"degree {t} does not divide {self.n}")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _find_primitive(modulus, params: FieldParams) -> int:
    """The least index a >= 2 whose power a^((p^n - 1)/r) is not one for
    any prime r | p^n - 1, each power a matrix power of v -> a v."""
    p, n, N = params.p, params.n, params.order
    if N == 2:
        return 1
    units, c, one = N - 1, _companion(modulus, p), np.eye(n, dtype=np.int64)
    primes = list(factorize(units))
    for idx in range(2, N):
        times = _times(c, _digits(idx, p, n), p)
        if not any(np.array_equal(_matpow(times, units // r, p), one) for r in primes):
            return idx
    raise CompositeP("no primitive element found")  # unreachable


def certify_field(fld: FieldTable) -> None:
    """Hold the tables of ``fld`` to digit arithmetic in O(N) work, ``_CHUNK``
    indices at a time, or raise InternalCheckError:
    - exp[0] = 1, and each exp[i + 1] is the image of exp[i] under
      x -> alpha x, that image at exp[N - 2] being 1: exp[i] is alpha^i. The
      map is one index array, ``_linear_map`` of the images of the basis
      under the digit matrix of v -> alpha v, read by one gather per run;
    - log[exp[i]] = i and log[0] = -1: exp takes each nonzero index once,
      so alpha has order N - 1, the modulus makes a field, and log inverts
      exp;
    - for odd p, zech[i] is the log of exp[i] with its lowest digit stepped
      by one mod p, which is exp[i] + 1: the Zech additions of
      ``add_arrays`` are digit arithmetic. For p = 2 addition is XOR.
    Each index product is checked before a later run reads it as an index."""
    p, n, units = fld.p, fld.n, fld.order - 1
    exp, log = fld.exp, fld.log
    if len(exp) != units or len(log) != fld.order or exp[0] != 1 or log[0] != -1:
        raise InternalCheckError(f"F_{p}^{n}: a table has the wrong length, exp[0] is not 1 "
                                 "or log[0] is not -1")
    step = _times(_companion(fld.modulus, p), _digits(fld.alpha, p, n), p)
    times_alpha = _linear_map(p, n, (p ** np.arange(n, dtype=np.int64) @ step).tolist())
    for start in range(0, units, _CHUNK):
        stop = min(start + _CHUNK, units)
        run = exp[start:stop].astype(np.int64)
        following = exp[start + 1 : stop + 1]
        if stop == units:
            following = np.append(following, 1)  # alpha^(N - 1) = 1
        # clipped: an entry past N - 1 is caught as the image of the one
        # before it, which the gather reads first
        wrong = np.flatnonzero(np.take(times_alpha, run, mode="clip") != following)
        if wrong.size:
            i = start + int(wrong[0])
            raise InternalCheckError(f"F_{p}^{n}: exp[{i + 1}] is not alpha times exp[{i}]")
        if not np.array_equal(log[run], np.arange(start, stop)):
            raise InternalCheckError(f"F_{p}^{n}: log does not invert exp in [{start}, {stop})")
        if p > 2:
            low = run % p
            if not np.array_equal(fld.zech[start:stop], log[run - low + (low + 1) % p]):
                raise InternalCheckError(f"F_{p}^{n}: a zech entry in [{start}, {stop}) is "
                                         "not the log of one plus its power")


def trace(fld: FieldTable, x, from_degree: int, to_degree: int):
    """Relative trace sum_{i<r} x^(p^(t*i)) with r = from/to (degrees over
    the prime field) of the index x, an int, or elementwise of the index
    array x, an int64 array. Every x must lie in the subfield of size
    p^from: one ``pow_array`` checks them all, and one ``_frobenius_sum``
    takes every trace."""
    require_int(from_degree, "from_degree")
    require_int(to_degree, "to_degree")
    if min(to_degree, from_degree) < 1 or from_degree % to_degree or fld.n % from_degree:
        raise NotASubfield(
            f"need to | from | n, got to={to_degree}, from={from_degree}, n={fld.n}"
        )
    xs = np.asarray(x)
    if xs.ndim == 0:
        fld._index(x)
    elif xs.dtype.kind not in "iu" or np.any((xs < 0) | (xs >= fld.order)):
        raise ValueError(f"an entry of {x!r} is not an element index of F_{fld.p}^{fld.n}")
    escaped = xs[fld.pow_array(xs, fld.p**from_degree) != xs]
    if escaped.size:
        raise NotASubfield(f"element {escaped[0]} not in the degree-{from_degree} subfield")
    out = fld._frobenius_sum(xs, to_degree, from_degree // to_degree)
    return int(out) if xs.ndim == 0 else out



def get_field(p: int, s: int, m: int, max_order: int | None = None) -> FieldTable:
    """The canonical table-backed realization of F_{p^(s*m)}, memoized.

    The modulus is the least monic irreducible of degree n = s m in the
    base-p ordering of its non-leading coefficients; alpha is the
    least-index primitive element. Both searches are deterministic and read
    (p, n) alone, so serialized artifacts are stable across runs. Every call
    applies the ``table`` cap resolved from ``max_order``. The memo holds
    one table per (p, n) whatever cap admitted it, and one view of it per
    (p, s, m) with its own params; the per-degree caches it shares are
    keyed by absolute degrees, and tables are immutable."""
    params = FieldParams(p, s, m)
    require("table", params.order, max_order)
    return _memoized_field(params, _memoized_table(params.p, params.n))


@lru_cache(maxsize=32)
def _memoized_table(p: int, n: int) -> FieldTable:
    params = FieldParams(p, 1, n)
    for c in range(params.order):
        modulus = _digits(c, p, n).tolist() + [1]
        # a zero constant term makes x a factor
        if (n == 1 or modulus[0]) and _is_irreducible(modulus, p):
            return FieldTable(params, tuple(modulus), _find_primitive(modulus, params))
    # cannot happen: irreducibles exist in every degree
    raise CompositeP(f"no irreducible of degree {n} over F_{p}")


@lru_cache(maxsize=32)
def _memoized_field(params: FieldParams, table: FieldTable) -> FieldTable:
    """``table`` named by ``params``: a shallow copy that shares its arrays
    and caches. Keyed by the table too, so every view handed out shares the
    table that ``_memoized_table`` holds."""
    view = copy.copy(table)
    view.params, view._root = params, table
    return view


def _clear_memos() -> None:
    """Empties both memos, e.g. to time cold builds."""
    _memoized_field.cache_clear()
    _memoized_table.cache_clear()


get_field.cache_clear = _clear_memos


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


def element_to_string(fld: FieldTable, x: int) -> str:
    """Little-endian base-p digit string; comma-separated when p > 10."""
    return ("" if fld.p <= 10 else ",").join(str(d) for d in _digits(x, fld.p, fld.n).tolist())
