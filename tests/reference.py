"""Reference computations for the tests, written apart from ``gpaley``.

Field addition here works on the base-p digits of the element indices,
which are the coefficients of the residue polynomials, so it shares
nothing with the library's XOR and Zech-logarithm kernels; the
translation check and the trace map below are built on it. The
automorphism check compares every entry of a permuted adjacency, and is
what the oracles' row-0 edge-preservation test is held to. The Bareiss
determinant is exact in Python integers; on the reduced Laplacian it is
what the tree count over the counted eigenvalues is tested against. The
power table multiplies residue polynomials in Python lists, one product
per power, and square-and-multiply gives single powers; the field's
exponential table is tested against both. The library multiplies by
matrices over F_p on digit vectors and keeps no list polynomials, so the
two share no arithmetic.
The multiplicative order takes those single powers at the divisors of
p^n - 1, so a primitivity test shares no table with the field it tests.
The scalar form evaluation reads the library's field table one element at
a time, with the trace map above, and is what the forms module's
whole-field pass is tested against.
The bit-dump reader decodes the file that ``gpaley export --kind bits``
writes, so the export is held to the adjacency it came from.
``with_adjacency`` plants a bool matrix as the adjacency of a copy of a
graph, a fault that only the readers of the whole matrix, such as the arc
checks, see. ``with_members`` plants a faulty connection set, which every
count reads.
"""

import dataclasses
import json
from functools import lru_cache

import numpy as np


def _digits(a, p: int, n: int) -> np.ndarray:
    """Little-endian base-p digits of every index, on a new last axis."""
    return (np.asarray(a, dtype=np.int64)[..., None] // p ** np.arange(n)) % p


def digit_add(a, b, p: int, n: int) -> np.ndarray:
    """Index of a + b: the digits added mod p, read back in base p."""
    return ((_digits(a, p, n) + _digits(b, p, n)) % p) @ p ** np.arange(n)


def digit_neg(a, p: int, n: int) -> np.ndarray:
    """Index of -a: every digit negated mod p."""
    return (-_digits(a, p, n) % p) @ p ** np.arange(n)


def frobenius_trace_map(fld, t: int, f: int) -> np.ndarray:
    """sum_{j < f/t} x^(p^(t j)) at every index x of the field table ``fld``,
    by f/t - 1 whole-array Frobenius passes through its exp and log tables,
    added digit by digit. Each log is widened to int64 before the product,
    which can pass 2^31 - 1, the largest int32 table entry."""
    p, n, units = fld.p, fld.n, fld.order - 1
    idx = np.arange(fld.order, dtype=np.int64)
    acc = y = idx
    for _ in range(f // t - 1):
        y = np.where(y == 0, 0, fld.exp[(fld.log[y].astype(np.int64) * p**t) % units])
        acc = digit_add(acc, y, p, n)
    return acc


def _mulmod(a: list[int], b: list[int], modulus, p: int) -> list[int]:
    """Digits of a b, multiplied and reduced by the monic ``modulus`` (its
    n + 1 coefficients, little-endian) in Python lists."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            prod[i + j] += c * d
    # x^k = x^(k-n) x^n, and x^n = -(modulus[0] + ... + modulus[n-1] x^(n-1))
    for k in range(2 * n - 2, n - 1, -1):
        lead = prod[k] % p
        for j in range(n):
            prod[k - n + j] -= lead * modulus[j]
    return [c % p for c in prod[:n]]


def power_table(p: int, n: int, modulus, alpha: int) -> list[int]:
    """Index of alpha^i for 0 <= i < p^n - 1, each power the previous one
    times alpha."""
    a = [alpha // p**j % p for j in range(n)]
    cur, table = [1] + [0] * (n - 1), []
    for _ in range(p**n - 1):
        table.append(sum(c * p**j for j, c in enumerate(cur)))
        cur = _mulmod(cur, a, modulus, p)
    return table


def power(p: int, n: int, modulus, alpha: int, e: int) -> int:
    """Index of alpha^e, by square-and-multiply on the bits of e."""
    base, cur = [alpha // p**j % p for j in range(n)], [1] + [0] * (n - 1)
    while e:
        if e & 1:
            cur = _mulmod(cur, base, modulus, p)
        base = _mulmod(base, base, modulus, p)
        e >>= 1
    return sum(c * p**j for j, c in enumerate(cur))


def element_order(fld, x: int) -> int:
    """Multiplicative order of the nonzero index x in the field table
    ``fld``: the least d | p^n - 1 with x^d = 1, each power by ``power``."""
    units = fld.order - 1
    return next(
        d for d in range(1, units + 1)
        if units % d == 0 and power(fld.p, fld.n, fld.modulus, x, d) == 1
    )


@lru_cache(maxsize=4)
def _trace_to_q(fld) -> np.ndarray:
    return frobenius_trace_map(fld, fld.params.s, fld.n)


def evaluate_form(f, x: int) -> int:
    """Q(x) = Tr(gamma x^(q^ell + 1)) of the trace form ``f`` at one index,
    landing in the q-element subfield; the trace is ``frobenius_trace_map``,
    built once per field table."""
    fld = f.field
    return int(_trace_to_q(fld)[fld.mul(f.gamma, fld.pow(x, f.exponent))])


def _difference_table(p: int, digits: int) -> np.ndarray:
    """Entry [x, y] is the index of y - x on indices of ``digits`` base-p
    digits, each entry taken digit by digit."""
    values = np.arange(p**digits)
    return digit_add(values, digit_neg(values, p, digits)[:, None], p, digits)


def translation_invariant(adj, p: int, n: int) -> bool:
    """A[0, x] = A[0, -x] and A[i, j] = A[0, j - i] for every i and j, 256
    rows at a time. j - i is read for every entry from two digit-difference
    tables, one for the low n // 2 base-p digits of i and j and one for the
    high digits, each p^(n/2) square: the digits of j - i are those of j
    minus those of i, mod p, with no carry between the halves."""
    adj = np.asarray(adj, dtype=bool)
    idx = np.arange(len(adj))
    row, neg = adj[0], digit_neg(idx, p, n)
    if not np.array_equal(row[neg], row):
        return False
    low = p ** (n // 2)
    low_diff, high_diff = _difference_table(p, n // 2), _difference_table(p, n - n // 2)
    for start in range(0, len(adj), 256):
        i = idx[start : start + 256]
        # entry [i, j // low, j % low] is the index of j - i
        diff = low * high_diff[i // low, :, None] + low_diff[i % low, None, :]
        if not np.array_equal(adj[start : start + 256], row[diff.reshape(len(i), -1)]):
            return False
    return True


def permutation_preserves_edges(g, perm) -> bool:
    """Whether a vertex permutation is an automorphism of the graph ``g``,
    by comparing every entry of the permuted adjacency with the original."""
    return np.array_equal(g.adjacency[np.ix_(perm, perm)], g.adjacency)


def read_bit_dump(path: str) -> tuple[dict, np.ndarray]:
    """(header, bool adjacency) of a bit dump: a JSON header line, then the
    rows packed row-major, bit j of byte b being column 8b + j."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    n = int(header["n"])
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(n, (n + 7) // 8)
    return header, np.unpackbits(packed, axis=1, bitorder="little")[:, :n].astype(bool)


def with_adjacency(g, adj):
    """A copy of the graph ``g`` whose cached ``adjacency`` is the bool
    matrix ``adj``, held read-only as the library holds it. The copy keeps
    the connection set of ``g``, so only what reads the adjacency sees the
    new matrix."""
    planted = dataclasses.replace(g)
    adj = np.array(adj, dtype=bool)
    adj.flags.writeable = False
    planted.__dict__["adjacency"] = adj
    return planted


def with_members(g, members):
    """A copy of the graph ``g`` on the connection set ``members``, a bool
    array over the field, held read-only as the library holds it, with its
    cardinality counted: row 0 of the copy's adjacency, and so every other
    row."""
    members = np.array(members, dtype=bool)
    members.flags.writeable = False
    conn = dataclasses.replace(g.connection, members=members, cardinality=int(members.sum()))
    return dataclasses.replace(g, connection=conn)


def bareiss_determinant(mat) -> int:
    """Fraction-free determinant of an integer matrix in Python integers.
    Every division below is exact by the Bareiss identity; pivoting tracks
    the sign."""
    m = [[int(x) for x in row] for row in np.asarray(mat)]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[col][col]
        row_k = m[col]
        for i in range(col + 1, n):
            row_i = m[i]
            lead = row_i[col]
            if lead:
                row_i[col + 1 :] = [
                    (x * piv - lead * y) // prev
                    for x, y in zip(row_i[col + 1 :], row_k[col + 1 :])
                ]
            else:
                row_i[col + 1 :] = [(x * piv) // prev for x in row_i[col + 1 :]]
        prev = piv
    return sign * m[n - 1][n - 1]
