"""Checks of gpaley's outputs against computations made apart from it.

Each check raises ``CheckFailed`` and imports nothing from gpaley: the
spectrum of a Cayley graph is recounted from its connection set, tree
counts come from Kirchhoff's theorem over that spectrum, and every CLI
record is held to identities it must satisfy whatever formula produced it.
"""

from collections import Counter

import numpy as np

# Word-size primes for the Kirchhoff check on tree counts with hundreds of
# thousands of digits; reducing the decimal string modulo each one is linear
# in its length, unlike a conversion to int.
KIRCHHOFF_PRIMES = (2**61 - 1, 1_000_000_007, 998_244_353)

# The three Ramanujan families of ``gpaley tables``: q -> (p, s).
TABLE_FAMILIES = {2: (2, 1), 3: (3, 1), 4: (2, 2)}


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# spectra and tree counts by counting
# ---------------------------------------------------------------------------

def digit_vectors(p: int, n: int) -> np.ndarray:
    """Row x is the little-endian base-p digit vector of index x; field
    addition on indices is digit-wise addition mod p."""
    idx = np.arange(p**n, dtype=np.int64)
    return (idx[:, None] // p ** np.arange(n, dtype=np.int64)) % p


def character_spectrum(members: np.ndarray, p: int, n: int) -> Counter:
    """Eigenvalues lambda_a = sum_{s in S} omega^(a.s) of the Cayley graph on
    (Z_p)^n with connection set S, one per character a.

    S is closed under scaling by F_p^* (checked), so the p - 1 nonzero
    residues of a.s are equally frequent and
    lambda_a = (p N_0(a) - |S|) / (p - 1), with N_0(a) = #{s : a.s = 0 mod p}.
    """
    digits = digit_vectors(p, n)
    weights = p ** np.arange(n, dtype=np.int64)
    support = np.flatnonzero(members)
    s_digits = digits[support]
    for c in range(2, p):
        require(bool(members[(c * s_digits % p) @ weights].all()),
                f"connection set is not closed under scaling by {c}")
    k = len(support)
    eigs: Counter = Counter()
    for start in range(0, len(digits), 512):
        n0 = ((digits[start:start + 512] @ s_digits.T) % p == 0).sum(axis=1)
        num = p * n0 - k
        require(bool((num % (p - 1) == 0).all()), "character sum is not an integer")
        eigs.update((num // (p - 1)).tolist())
    return eigs


def kirchhoff_trees(eigs: Counter, k: int, v: int) -> int:
    """Spanning trees = prod over nontrivial eigenvalues of (k - lambda), / v."""
    prod = 1
    for lam, mult in eigs.items():
        prod *= (k - lam) ** (mult - 1 if lam == k else mult)
    require(prod % v == 0, "Kirchhoff product is not divisible by v")
    return prod // v


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------

def expected_check_names(q: int, m: int, ell: int) -> set[str]:
    """Checks run_suite must report for the primal member (q, m, ell), with
    the size limits of its documented budgets (trees up to 512 vertices,
    coset decomposition up to 1024, arc-transitivity up to 256).
    (2, 2, 1), which skips the srg and girth checks, is not covered."""
    n = q**m
    names = {
        "regular-degree", "complement-degree", "connection-cardinality",
        "diameter-complement", "girth-complement", "klapper-vs-kernel-counts",
        "klapper-low-rank-multiplicity", "ramanujan-complement",
    }
    for side in ("primal", "complement"):
        names |= {f"srg-counts-{side}", f"a2-identity-{side}", f"walks-2..6-{side}",
                  f"spectrum-moments-{side}"}
        if n <= 512:
            names.add(f"trees-{side}")
    if 2 * ell == m:
        names.add("half-case-components")
    else:
        names |= {"diameter-primal", "girth-primal", "waring-witnesses",
                  "ramanujan-double-path"}
    if n <= 1024:
        names.add("coset-decomposition")
    if n <= 256:
        names |= {"arc-transitivity-witnesses", "edge-preservation-criterion"}
    return names


def check_report(report, q: int, m: int, ell: int, independent: dict, program: dict) -> int:
    """One run_suite report. ``independent[side]`` is (eigenvalue Counter,
    Kirchhoff tree count) from counting; ``program[side]`` is the library's
    closed-form (spectrum pairs, tree count). Returns the checks passed."""
    names = [c.name for c in report.checks]
    require(len(names) == len(set(names)), f"duplicate check names in {names}")
    expected = expected_check_names(q, m, ell)
    require(set(names) == expected,
            f"checks missing {sorted(expected - set(names))}, "
            f"unexpected {sorted(set(names) - expected)}")
    failed = [c.name for c in report.checks if not c.passed]
    require(report.ok and not failed, f"failed checks {failed}")
    by_name = {c.name: c for c in report.checks}
    for side in ("primal", "complement"):
        eigs, trees = independent[side]
        pairs, closed_trees = program[side]
        require(Counter(dict(pairs)) == eigs,
                f"{side} spectrum {pairs} != counted {sorted(eigs.items(), reverse=True)}")
        require(closed_trees == trees, f"{side} closed-form tree count != Kirchhoff count")
        tree_check = by_name.get(f"trees-{side}")
        if tree_check is not None:
            require(tree_check.expected == trees and tree_check.observed == trees,
                    f"{side} tree check values disagree with the Kirchhoff count")
    return len(names)


# ---------------------------------------------------------------------------
# closed-forms-cli
# ---------------------------------------------------------------------------

def decimal_mod(text: str, modulus: int) -> int:
    """int(text) % modulus in time linear in len(text)."""
    negative = text.startswith("-")
    digits = text[1:] if negative else text
    require(digits.isdigit(), f"not a decimal integer: {text[:40]!r}")
    r = 0
    for i in range(0, len(digits), 18):
        chunk = digits[i:i + 18]
        r = (r * pow(10, len(chunk), modulus) + int(chunk)) % modulus
    return -r % modulus if negative else r


def _moments(pairs, v: int) -> int:
    """Moment identities of a k-regular spectrum on v vertices; returns k."""
    eigs = [lam for lam, _ in pairs]
    require(eigs == sorted(eigs, reverse=True) and len(set(eigs)) == len(eigs),
            f"eigenvalues not strictly decreasing: {eigs}")
    k = eigs[0]
    require(sum(mult for _, mult in pairs) == v, "sum of multiplicities != v")
    require(sum(mult * lam for lam, mult in pairs) == 0, "first moment != 0")
    require(sum(mult * lam * lam for lam, mult in pairs) == v * k, "second moment != v k")
    return k


def _srg_tuple(v: int, k: int, e: int, d: int, pairs) -> None:
    require((v - k - 1) * d == k * (k - e - 1), f"(v-k-1)d != k(k-e-1) for {(v, k, e, d)}")
    for lam, _ in pairs[1:]:
        require(lam * lam - (e - d) * lam - (k - d) == 0,
                f"eigenvalue {lam} is not a root of x^2 - (e-d)x - (k-d) for {(v, k, e, d)}")


def _nontrivial(pairs, k: int):
    for lam, mult in pairs:
        mult -= lam == k
        if mult:
            yield lam, mult


def check_srg_record(rec: dict, spec: dict) -> list[tuple[int, int]]:
    """``gpaley srg``; returns the spectrum for the zeta and ramanujan records."""
    require(rec["spec"] == spec, f"record is for {rec['spec']}, asked for {spec}")
    v = (spec["p"] ** spec["s"]) ** spec["m"]
    pairs = [(int(lam), int(mult)) for lam, mult in rec["spectrum"]]
    k = _moments(pairs, v)
    if rec["srg"] is not None:
        v_, k_, e, d = (int(x) for x in rec["srg"])
        require((v_, k_) == (v, k), f"srg (v, k) = {(v_, k_)}, spectrum gives {(v, k)}")
        _srg_tuple(v, k, e, d, pairs)
    for r in range(2, 7):
        require(int(rec["walks"][str(r)]) == sum(mult * lam**r for lam, mult in pairs),
                f"closed {r}-walks != sum mult lambda^{r}")
    trees = rec["trees"]
    for prime in KIRCHHOFF_PRIMES:
        prod = 1
        for lam, mult in _nontrivial(pairs, k):
            prod = prod * pow(k - lam, mult, prime) % prime
        require(decimal_mod(trees, prime) * v % prime == prod,
                f"tree count breaks Kirchhoff modulo {prime}")
    return pairs


def check_zeta_record(rec: dict, spec: dict, pairs) -> None:
    require(rec["spec"] == spec, f"record is for {rec['spec']}, asked for {spec}")
    v, k = sum(mult for _, mult in pairs), pairs[0][0]
    factors = [(int(f["linear_coeff"]), int(f["quad_coeff"]), int(f["exp"]))
               for f in rec["factors"]]
    require(sorted((-lin, e) for lin, _, e in factors) == sorted(pairs),
            "zeta factors do not match the spectrum")
    require(all(quad == k - 1 for _, quad, _ in factors), "a quadratic coefficient != k - 1")
    require(int(rec["square_exp"]) == v * k // 2 - v, "square-factor exponent != E - n")
    trivial = [(lin, quad) for lin, quad, _ in factors if lin == -k]
    require(len(trivial) == 1 and 1 + sum(trivial[0]) == 0,
            "the factor for lambda = k does not vanish at u = 1")


def check_ramanujan_record(rec: dict, spec: dict, pairs) -> None:
    require(rec["spec"] == spec, f"record is for {rec['spec']}, asked for {spec}")
    k = pairs[0][0]
    lam = max(abs(lam) for lam, _ in _nontrivial(pairs, k))
    require(rec["ramanujan"] == (lam * lam <= 4 * (k - 1)),
            f"ramanujan = {rec['ramanujan']} but max |lambda| = {lam}, k = {k}")


def check_table_rows(rows: list, family: int, tmax: int = 4) -> int:
    """``gpaley tables --family q``: primal and complement of (q, 2t, 1),
    t = 2..tmax; returns the number of rows."""
    require(len(rows) == 2 * (tmax - 1), f"{len(rows)} rows for t = 2..{tmax}")
    for i, row in enumerate(rows):
        t = 2 + i // 2
        require(int(row["t"]) == t, f"row {i} has t = {row['t']}")
        v, k, e, d = (int(row[x]) for x in ("v", "k", "e", "d"))
        require(v == family ** (2 * t), f"row {i}: v = {v} != {family}^{2 * t}")
        body = row["spectrum"].strip("{}").split(", ")
        pairs = [(int(lam), int(mult)) for lam, mult in
                 (term.lstrip("[").split("]^") for term in body)]
        require(_moments(pairs, v) == k, f"row {i}: spectrum degree != k = {k}")
        _srg_tuple(v, k, e, d, pairs)
    return len(rows)


# ---------------------------------------------------------------------------
# forms-large-field
# ---------------------------------------------------------------------------

def check_form(q: int, m: int, closed, counted, counts: dict, esum: int) -> None:
    """One trace form: a balanced histogram over the q values of F_q, its
    character sum, and the (rank, type) that both imply."""
    total = q**m
    require(len(counts) == q and sum(counts.values()) == total,
            "histogram does not cover the field once over q values")
    off = {c for x, c in counts.items() if x != 0}
    require(len(off) == 1, f"nonzero values are not equally frequent: {sorted(off)}")
    require(esum * (q - 1) == q * counts[0] - total,
            f"character sum {esum} disagrees with N(0) = {counts[0]}")
    require(esum != 0, "character sum is 0: not an even-rank form")
    half_rank, power = m, abs(esum)
    while power % q == 0:
        power //= q
        half_rank -= 1
    require(power == 1, f"|character sum| {abs(esum)} is not a power of q")
    rank_type = (2 * half_rank, 1 if esum > 0 else -1)
    require(tuple(closed) == rank_type, f"classify_form gives {closed}, counting {rank_type}")
    require(tuple(counted) == rank_type, f"class_from_counts gives {counted}, counting {rank_type}")


def check_cosets(q: int, m: int, forms: dict) -> None:
    """``forms[j]`` is [(closed, counted, counts, esum)] for the gammas of
    coset alpha^j S, the representative alpha^j first. The histogram is
    constant on a coset, and the representatives' character sums add up to
    sum over all gamma != 0 of sum_x psi(gamma x^e) = 0, divided by |S|."""
    for j, entries in forms.items():
        for closed, counted, counts, esum in entries:
            check_form(q, m, closed, counted, counts, esum)
        require(all(e[2] == entries[0][2] for e in entries),
                f"coset {j}: the histograms of its gammas differ")
    require(sum(entries[0][3] for entries in forms.values()) == 0,
            "character sums of the coset representatives do not add up to 0")
