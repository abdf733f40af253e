"""Reference computations for the tests, written apart from ``gpaley``.

Field addition here works on the base-p digits of the element indices,
which are the coefficients of the residue polynomials, so it shares
nothing with the library's XOR and Zech-logarithm kernels; the
translation check and the trace map below are built on it. The
automorphism check compares every entry of a permuted adjacency, and is
what the oracles' row-0 edge-preservation test is held to. The Bareiss
determinant is exact in Python integers and is what the multi-modular
determinant is tested against. The power table multiplies residue
polynomials in Python lists, one product per power, and square-and-multiply
gives single powers; the field's exponential table is tested against both.
The scalar form evaluation reads the library's field table one element at
a time, and is what the forms module's whole-field pass is tested against.
"""

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
    added digit by digit."""
    p, n, units = fld.p, fld.n, fld.order - 1
    idx = np.arange(fld.order, dtype=np.int64)
    acc = y = idx
    for _ in range(f // t - 1):
        y = np.where(y == 0, 0, fld.exp[(fld.log[y] * p**t) % units])
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


def evaluate_form(f, x: int) -> int:
    """Q(x) = Tr(gamma x^(q^ell + 1)) of the trace form ``f`` at one index,
    landing in the q-element subfield."""
    fld = f.field
    return int(fld.trace_map(fld.params.s)[fld.mul(f.gamma, fld.pow(x, f.exponent))])


def translation_invariant(adj, p: int, n: int) -> bool:
    """A[0, x] = A[0, -x] and A[i, j] = A[0, j - i] for every i and j, a
    few rows at a time, with j - i taken digit by digit for every entry."""
    adj = np.asarray(adj, dtype=bool)
    idx = np.arange(len(adj))
    row, neg = adj[0], digit_neg(idx, p, n)
    if not np.array_equal(row[neg], row):
        return False
    digits = _digits(idx, p, n).T.astype(np.int16)
    for start in range(0, len(adj), 16):
        # entry j of the shifted row i is A[0, j - i]: digit k of j - i is
        # digit k of j plus digit k of -i, mod p
        neg_rows = digits[:, neg[start : start + 16], None]
        diff = np.zeros((neg_rows.shape[1], len(adj)), dtype=np.int64)
        for k in range(n):
            diff += ((digits[k] + neg_rows[k]) % p).astype(np.int64) * p**k
        if not np.array_equal(adj[start : start + 16], row[diff]):
            return False
    return True


def permutation_preserves_edges(g, perm) -> bool:
    """Whether a vertex permutation is an automorphism of the graph ``g``,
    by comparing every entry of the permuted adjacency with the original."""
    return np.array_equal(g.adjacency[np.ix_(perm, perm)], g.adjacency)


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
