"""Connection sets S_{q,m}(ell), Cayley graph materialization, the family
G_{q,m}, the spec-level subgraph test, normalization, the lattice of
family members, affine-Frobenius automorphisms, and export.

A spec (q, m, ell) with q = p^s describes the Cayley graph on the additive
group of F_{q^m} whose connection set is the multiplicative subgroup of
nonzero (q^ell + 1)-th powers. Vertex i is the field element of index i.

A graph holds its adjacency once, as packed bits in the layout of the
bit-dump export (see ``CayleyGraph``). Only the certification, the
unpacking, the degree count and the export read those bytes, unpacking only
the rows they read; the kernels of ``gpaley.oracles`` read row 0, its
transform and, for the arc checks, the unpacked matrix.
"""

import json
import math
import mmap
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .arith import divisors, gcd_power, is_prime, require_int, v2
from .budgets import require
from .errors import (
    DirectedUnsupported,
    InternalCheckError,
    MixedBase,
    NotDivisible,
    NotInFamily,
    ZeroScale,
)
from .field import FieldParams, FieldTable, get_field

# Rows of A per block when _fill fills A, the translation check compares it
# or the degrees are counted, so that temporaries stay a few MB.
_ROW_BLOCK = 256
# The number of set bits of each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class GraphSpec:
    """The triple (q, m, ell) with q = p^s, plus a complement flag, which
    must be a bool, Python or numpy, and is stored as a Python bool."""

    p: int
    s: int
    m: int
    ell: int
    complemented: bool = False

    def __post_init__(self):
        for name in ("p", "s", "m", "ell"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if not isinstance(self.complemented, (bool, np.bool_)):
            raise ValueError(f"complemented must be a bool, not {self.complemented!r}")
        object.__setattr__(self, "complemented", bool(self.complemented))
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.s < 1 or self.m < 1:
            raise ValueError("s and m must be positive")
        if not 0 <= self.ell < self.m:
            raise ValueError("need 0 <= ell < m (exponents repeat mod m)")

    @property
    def q(self) -> int:
        return self.p**self.s

    @property
    def order(self) -> int:
        return self.q**self.m

    @property
    def m_ell(self) -> int:
        return self.m // math.gcd(self.m, self.ell) if self.ell else 1

    @property
    def tag(self) -> str:
        """'complete', 'paley', or 'proper' (after reduction for non-divisor ell)."""
        if self.m_ell % 2 == 1:
            return "complete" if self.q % 2 == 0 else "paley"
        return "proper"

    @property
    def is_proper(self) -> bool:
        """In the family as written: 1 <= ell, ell | m, m/ell even."""
        return self.ell >= 1 and self.m % self.ell == 0 and (self.m // self.ell) % 2 == 0

    @property
    def is_half(self) -> bool:
        return self.is_proper and 2 * self.ell == self.m

    @property
    def connected(self) -> bool:
        """False only for the ell = m/2 primal graph, which is q^(m/2)
        disjoint cliques; its complement is complete multipartite."""
        return self.complemented or not self.is_half

    @property
    def is_degenerate(self) -> bool:
        """The (2, 2, 1) member: two disjoint edges, whose complement is the
        4-cycle."""
        return (self.q, self.m, self.ell) == (2, 2, 1)

    @property
    def eps(self) -> int:
        """Sign (-1)^(m_ell / 2); demands m_ell even."""
        if self.m_ell % 2:
            raise NotInFamily(f"eps undefined for odd m_ell = {self.m_ell}")
        return -1 if (self.m_ell // 2) % 2 else 1

    def complement(self) -> "GraphSpec":
        return replace(self, complemented=not self.complemented)

    def canonical(self) -> "GraphSpec":
        """Rewrite with power index 1: (p, s, m, ell) -> (p, s*ell, m/ell, 1)."""
        return normalize(self.p, self.s, self.m, self.ell, complemented=self.complemented)

    def field_params(self) -> FieldParams:
        return FieldParams(self.p, self.s, self.m)

    def label(self) -> str:
        core = f"Gamma_{{{self.q},{self.m}}}({self.ell})"
        return f"co-{core}" if self.complemented else core

    def to_json(self) -> dict:
        """The spec as it appears in every JSON record."""
        return {
            "p": self.p,
            "s": self.s,
            "m": self.m,
            "ell": self.ell,
            "complemented": self.complemented,
        }


@dataclass(frozen=True)
class ConnectionSet:
    """Bit set of connection elements plus its exact cardinality."""

    spec: GraphSpec
    field: FieldTable
    members: np.ndarray  # bool, length q^m
    cardinality: int


@dataclass(frozen=True)
class CayleyGraph:
    """A Cayley graph on the additive group of its field. ``bits`` is its
    adjacency, row i packed little-endian into ceil(n/8) bytes: A[i, j] is
    bit j % 8 of byte j // 8, and the pad bits past column n - 1 are 0."""

    spec: GraphSpec
    field: FieldTable
    connection: ConnectionSet
    bits: np.ndarray  # uint8, (n, ceil(n/8))

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def k(self) -> int:
        return self.connection.cardinality

    # Each computed at most once per graph object; dataclasses.replace builds
    # a new object with nothing cached.
    @cached_property
    def adjacency(self) -> np.ndarray:
        """A as an (n, n) bool matrix, unpacked from ``bits`` on the first
        read: n^2 bytes, for export and small graphs only."""
        return self._unpack(self.bits)

    @cached_property
    def row0(self) -> np.ndarray:
        """Row 0 of A: on a translation invariant A it fixes every other row."""
        return self._unpack(self.bits[0])

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        """Packed rows, such as a block of ``bits``, as read-only bool, the
        pad bits dropped."""
        out = np.unpackbits(packed, axis=-1, count=self.n, bitorder="little").view(bool)
        out.flags.writeable = False
        return out

    @cached_property
    def degrees(self) -> np.ndarray:
        """The row sums of A: every vertex's degree, as int64. Each row's
        bytes are popcounted by table, _ROW_BLOCK rows at a time (``take``
        widens its indices to intp), and summed in the narrowest unsigned
        type that holds n, the largest a row sum can be; a pad bit set is
        counted."""
        dtype = np.min_scalar_type(self.n)
        counts = [
            np.take(_POPCOUNT, self.bits[start : start + _ROW_BLOCK]).sum(axis=1, dtype=dtype)
            for start in range(0, self.n, _ROW_BLOCK)
        ]
        return np.concatenate(counts).astype(np.int64)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The character sums over row 0, as int64 indexed by character a:
        the eigenvalues of A when A is translation invariant (Babai, JCTB 27,
        1979), with lambda_0 = |row 0|."""
        return self._character_sums(self.row0)

    @cached_property
    def square_row(self) -> np.ndarray:
        """Row 0 of A^2 when A is translation invariant: the character sums of
        lambda^2 (lambda_(-a) = lambda_a) over N, the division checked exact."""
        sums = self._character_sums(self.eigenvalues**2)
        if (sums % self.n).any():
            raise InternalCheckError(f"{self.spec.label()}: N does not divide a sum of lambda^2")
        return sums // self.n

    def _character_sums(self, weights: np.ndarray) -> np.ndarray:
        """sum over x of weights[x] omega^(a . x), omega = exp(2 pi i / p), for
        every index a, an index being its base-p digit vector. The residue
        counts c[r, a] (the weights over a . x = r mod p) are a transform in
        Z[C_p], one digit at a time (Good, J. R. Stat. Soc. B 20, 1958;
        Walsh-Hadamard for p = 2): O(n p^2 N) work, no temporary above p N
        entries. Before the lowest digit only residue 0 is nonzero, so that
        step is a scatter: c[a_0 x_0, .., a_0] = weights[.., x_0], the
        residues a_0 x_0 distinct for a_0 != 0. As 1, omega, ...,
        omega^(p-2) are independent over Q, a sum is an integer exactly when
        c[1, a] = ... = c[p-1, a], and is then c[0, a] - c[1, a]; other
        counts raise InternalCheckError. A count is at most sum |weights|, k
        for row 0 and N k for lambda^2, so the counts are int32 where that
        bound fits and int64 otherwise; the sums are returned as int64."""
        p, r = self.field.p, np.arange(self.field.p)
        bound = int(np.abs(weights).sum())
        dtype = np.int32 if bound <= np.iinfo(np.int32).max else np.int64
        lowest = weights.reshape(-1, p)  # axes: digits above 0, digit 0
        counts = np.zeros((p, self.n // p, p), dtype=dtype)
        counts[0, :, 0] = lowest.sum(axis=1)  # a_0 = 0: every x_0 to residue 0
        counts[0, :, 1:] = lowest[:, :1]  # x_0 = 0
        for a in range(1, p):
            counts[:, :, a][a * r[1:] % p] = lowest[:, 1:].T
        counts = counts.reshape(p, self.n)
        for j in range(1, self.field.n):
            # axes: residue, digits above j, digit j, digits below j; digit j
            # of x gives way to a_j: c[r, .., a_j, ..] sums c[r - a_j x_j, .., x_j, ..]
            digits = counts.reshape(p, -1, p, p**j)
            step = np.repeat(digits[:, :, :1], p, axis=2)  # x_j = 0
            for x in range(1, p):
                step += digits[(r[:, None] - x * r) % p, :, x].transpose(0, 2, 1, 3)
            counts = step.reshape(p, self.n)
        unbalanced = np.flatnonzero((counts[1:] != counts[1]).any(axis=0))
        if unbalanced.size:
            a = int(unbalanced[0])
            raise InternalCheckError(
                f"{self.spec.label()}: character {a} has residue counts "
                f"{counts[:, a].tolist()}, so its eigenvalue is not an integer"
            )
        return (counts[0] - counts[1]).astype(np.int64)

    @cached_property
    def translation_invariant(self) -> bool:
        """A[0, x] = A[0, -x] and A[i, j] = A[0, j - i] for every i and j.
        Then A is symmetric, A^t[i, j] = A^t[0, j - i] for every t, and row 0
        of each power fixes all of it (Babai, JCTB 27, 1979).

        An index is its base-p digits, least significant first, and addition
        is digit by digit mod p, so adding a m for m a power of p rotates the
        column digit of weight m by a. The check descends m = N/p, ..., 1:
        for each a in 1..p-1, rows [a m, (a + 1) m) must equal rows [0, m)
        with that digit rotated by a, two block comparisons of views. Each
        row but 0 is held to a row below it once, at the weight of its top
        nonzero digit, and by induction on that digit the comparisons all
        hold exactly when A[i, j] = A[0, j - i]. The first _ROW_BLOCK rows
        are unpacked from ``bits`` once, and every other block of rows as it
        is compared, the pad bits dropped. No field table is read except to
        negate row 0, so the Zech additions of the fill are held to digit
        arithmetic."""
        p, n, row = self.field.p, self.n, self.row0
        if not np.array_equal(row[self.field.neg_array(np.arange(n))], row):
            return False
        head, m = self._unpack(self.bits[:_ROW_BLOCK]), n // p

        def rows(start: int, stop: int) -> np.ndarray:
            """Rows [start, stop) with axes: row, digits above m, the digit
            of weight m, digits below m."""
            block = head[start:stop] if stop <= len(head) else self._unpack(self.bits[start:stop])
            return block.reshape(stop - start, -1, p, m)

        while m:
            for start in range(0, m, _ROW_BLOCK):
                stop = min(start + _ROW_BLOCK, m)
                top = rows(start, stop)
                for a in range(1, p):
                    here = rows(a * m + start, a * m + stop)
                    if not (
                        np.array_equal(here[:, :, a:], top[:, :, : p - a])
                        and np.array_equal(here[:, :, :a], top[:, :, p - a :])
                    ):
                        return False
            m //= p
        return True


def connection_set(spec: GraphSpec, field: FieldTable) -> ConnectionSet:
    """The set of nonzero (q^ell + 1)-th powers: the cyclic subgroup generated
    by alpha^g with g = gcd(q^m - 1, q^ell + 1). For a complemented spec,
    the complement's connection set F* minus those powers."""
    if field.params != spec.field_params():
        raise ValueError("field does not match spec")
    N = spec.order
    g = gcd_power(spec.q, spec.m, spec.ell)
    k = (N - 1) // g
    members = np.zeros(N, dtype=bool)
    members[field.exp[::g][:k]] = True
    if int(members.sum()) != k:
        raise InternalCheckError("connection set size mismatch")
    if spec.complemented:
        members = ~members
        members[0] = False
        k = N - 1 - k
    return ConnectionSet(spec, field, members, k)


def is_symmetric(conn: ConnectionSet) -> bool:
    """True iff -1 lies among the (q^ell + 1)-th powers; the complement set
    inherits the same symmetry, and -1, being nonzero, lies in exactly one
    of the two sets. Cross-checked against the parity rule: always true for
    q even; for q odd, true iff m_ell is even or q^m = 1 mod 4.
    Disagreement would be a bug, not an input condition."""
    direct = bool(conn.members[conn.field.neg(1)]) != conn.spec.complemented
    if direct != _symmetry_rule(conn.spec):
        raise InternalCheckError(f"symmetry rule mismatch for {conn.spec}")
    return direct


def _symmetry_rule(spec: GraphSpec) -> bool:
    if spec.q % 2 == 0:
        return True
    if spec.m_ell % 2 == 0:
        return True
    return spec.order % 4 == 1


def build_graph(spec: GraphSpec, max_order: int | None = None) -> CayleyGraph:
    """Materialize the adjacency as packed bits: i ~ j iff element_j -
    element_i is a connection member. A complemented spec fills the primal
    graph's bits and negates them in place (see ``complement_graph``).
    ``max_order`` caps the graph, then its field table (see
    ``budgets.require``). Rejects directed cases instead of symmetrizing;
    the result has passed its translation check.
    """
    N = spec.order
    require("graph", N, max_order)
    field = get_field(spec.p, spec.s, spec.m, max_order)
    primal = connection_set(replace(spec, complemented=False), field)
    if not is_symmetric(primal):
        raise DirectedUnsupported(
            f"S is not symmetric for {spec.label()} (q^m = 3 mod 4 Paley case)"
        )
    bits = _fill(field, primal)
    if spec.complemented:
        _negate(bits, out=bits)
    return _certified(spec, field, bits)


def complement_graph(g: CayleyGraph) -> CayleyGraph:
    """The complement of g: its bits negated into fresh pages, with the
    diagonal and pad bits cleared, and certified as ``build_graph``
    certifies a graph it fills. It equals ``build_graph(g.spec.complement())``
    without a second fill; a g that is not a Cayley graph makes a complement
    that fails its translation check and raises InternalCheckError."""
    return _certified(g.spec.complement(), g.field, _negate(g.bits, out=_pages(g.n)))


def _pages(n: int) -> np.ndarray:
    """Zeroed packed rows for an n-vertex graph, an (n, ceil(n/8)) uint8
    array, on its own pages from the OS rather than a block of malloc's
    heap, so dropping a graph hands them back at once and the memory held
    follows the graphs alive, not the order in which graphs were built."""
    width = (n + 7) // 8
    return np.frombuffer(mmap.mmap(-1, n * width), dtype=np.uint8).reshape(n, width)


def _fill(field: FieldTable, primal: ConnectionSet) -> np.ndarray:
    """The packed rows of A, A[i, j] set iff element_j - element_i is a
    member of ``primal``. Each _ROW_BLOCK rows are scattered into one reused
    bool block through the flat indices (i - start) N + j, then packed. The
    indices are int32: they stay below _ROW_BLOCK N, under 2^31 for every
    N below 2^23, and at 2^23 vertices the bits alone would be 8 TiB."""
    N = field.order
    bits = _pages(N)
    members = np.flatnonzero(primal.members).astype(np.int32)
    block = np.zeros((min(_ROW_BLOCK, N), N), dtype=bool)
    offsets = np.arange(len(block), dtype=np.int32)[:, None] * np.int32(N)
    for start in range(0, N, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, N)
        rows = np.arange(start, stop, dtype=np.int32)[:, None]
        flat = np.add(offsets[: stop - start], field.add_arrays(rows, members), dtype=np.int32,
                      casting="same_kind")
        block[:] = False
        block.reshape(-1)[flat] = True
        bits[start:stop] = np.packbits(block[: stop - start], axis=1, bitorder="little")
    return bits


def _negate(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The complement's packed rows: not A, with the diagonal bits and the
    pad bits cleared."""
    n = len(bits)
    np.invert(bits, out=out)
    idx = np.arange(n)
    out[idx, idx >> 3] &= ~(np.uint8(1) << (idx & 7).astype(np.uint8))
    out[:, -1] &= np.uint8(0xFF >> -n % 8)  # the n % 8 low bits, or all 8
    return out


def _certified(spec: GraphSpec, field: FieldTable, bits: np.ndarray) -> CayleyGraph:
    """The graph of spec on bits, after the checks every graph passes: a
    translation invariant A is symmetric with every row a shift of row 0,
    so row 0 settles the degree and the diagonal."""
    g = CayleyGraph(spec, field, connection_set(spec, field), bits)
    if int(g.row0.sum()) != g.k or g.row0[0] or not g.translation_invariant:
        raise InternalCheckError("adjacency is not a loop-free Cayley graph of the expected degree")
    return g


def enumerate_family(p: int, s: int, m: int) -> list[GraphSpec]:
    """All proper members: 1 <= ell <= m/2, ell | m, m/(m,ell) even, ascending."""
    specs = (GraphSpec(p, s, m, ell) for ell in range(1, m // 2 + 1))
    return [spec for spec in specs if spec.is_proper]


def is_subgraph(a: GraphSpec, b: GraphSpec) -> bool:
    """Spec-level test that graph a is a subgraph of graph b, not necessarily
    induced (same base field q): m_a | m_b and ell_b | ell_a with an odd
    quotient. Gamma_{2,2}(1) is one of Gamma_{2,6}(1), where F_4 spans K_4.
    The rule is for primal graphs only, so a complemented spec is refused
    with NotInFamily, as a spec that is not proper is: F_4^* lies inside the
    connection set of Gamma_{2,6}(1), so co-Gamma_{2,6}(1) keeps no edge of
    co-Gamma_{2,2}(1)."""
    if (a.p, a.s) != (b.p, b.s):
        raise MixedBase("subgraph test needs equal base fields; normalize first")
    if not (a.is_proper and b.is_proper):
        raise NotInFamily("subgraph test is for proper specs")
    if a.complemented or b.complemented:
        raise NotInFamily("subgraph test is for primal specs, not complements")
    if b.m % a.m:
        return False
    if a.ell % b.ell:
        return False
    return (a.ell // b.ell) % 2 == 1


def normalize(p: int, r: int, m: int, ell: int, complemented: bool = False) -> GraphSpec:
    """Canonical power-1 presentation: the (p^r, m, ell) graph equals the
    (p^(r*ell), m/ell, 1) graph."""
    if ell < 1 or m % ell or m // ell < 2:
        raise NotDivisible(f"ell = {ell} must divide m = {m} with quotient >= 2")
    return GraphSpec(p, r * ell, m // ell, 1, complemented)


def family_lattice(m: int) -> list[list[int]]:
    """Connected components of the family's divisibility lattice for fixed m.

    Writing m = 2^t * r with r odd: empty when t = 0, otherwise t components,
    the k-th being {2^(k-1) * d : d | r} (members listed ascending)."""
    t = v2(m)
    if m == 0 or t == 0:
        return []
    r = m >> t
    return [[(1 << k) * d for d in divisors(r)] for k in range(t)]


def _field_indices(x, what: str, n: int) -> np.ndarray:
    """x, an integer or an array of integers, as int64 indices. A value that
    is not an integer in [0, n), such as a float or an integer past int64,
    is not a field element and raises ValueError naming it."""
    values = np.asarray(x)
    if values.dtype.kind in "iu":
        bad = values[(values < 0) | (values >= n)].tolist()
    else:
        bad = [v for v in values.flat if not isinstance(v, numbers.Integral) or not 0 <= v < n]
    if bad:
        raise ValueError(f"{what} {bad[0]} is not a field element in [0, {n})")
    return values.astype(np.int64)


def apply_affine_frobenius(g: CayleyGraph, a: int | np.ndarray, b: int, i: int) -> np.ndarray:
    """Vertex permutation x -> a * x^(p^i) + b. Such a map preserves edges
    exactly when a is a connection member. A 1-D array of scales gives one
    row of images per scale, a (len(a), N) table; every row is checked to
    be a bijection with one row-wise sort. A scale or shift that is not an
    integer in [0, N) is not a field element and raises ValueError, as
    does a power i that is not an integer (or is a bool) in [0, n); a zero
    scale raises ZeroScale."""
    fld = g.field
    a, b = _field_indices(a, "scale", g.n), int(_field_indices(b, "shift", g.n))
    if (a == 0).any():
        raise ZeroScale("scale a must be nonzero")
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < fld.n:
        raise ValueError(f"Frobenius power i = {i} is not an integer in [0, {fld.n})")
    idx = np.arange(g.n, dtype=np.int64)
    image = fld.add_arrays(fld.mul_array(a[..., None], fld.pow_array(idx, fld.p**i)), int(b))
    if not (np.sort(image, axis=-1) == idx).all():
        raise InternalCheckError("affine-Frobenius map is not a bijection")
    return image


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _edges(g: CayleyGraph) -> list[tuple[int, int]]:
    """Every undirected edge as (i, j), i < j, in row-major order."""
    ii, jj = np.nonzero(np.triu(g.adjacency, 1))
    return list(zip(ii.tolist(), jj.tolist()))


def edge_list_lines(g: CayleyGraph) -> list[str]:
    """One 'i j' line per undirected edge, i < j."""
    return [f"{i} {j}" for i, j in _edges(g)]


def dimacs_lines(g: CayleyGraph) -> list[str]:
    """DIMACS graph format (1-based vertices)."""
    edges = _edges(g)
    return [f"p edge {g.n} {len(edges)}"] + [f"e {i + 1} {j + 1}" for i, j in edges]


def write_bit_dump(g: CayleyGraph, path: str) -> None:
    """JSON header line (the spec's JSON plus n and k), then the graph's
    held ``bits`` as they are: rows packed row-major into little-endian
    bytes (bit j of byte b is column 8b + j), pad bits 0."""
    header = {**g.spec.to_json(), "n": g.n, "k": g.k}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(g.bits.tobytes())
