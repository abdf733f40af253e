"""Connection sets S_{q,m}(ell), Cayley graph materialization, the family
G_{q,m}, spec-level subgraph/equality tests, normalization, the lattice of
family members, and affine-Frobenius automorphisms.

A spec (q, m, ell) with q = p^s describes the Cayley graph on the additive
group of F_{q^m} whose connection set is the multiplicative subgroup of
nonzero (q^ell + 1)-th powers. Vertex i is the field element of index i.
"""

import json
import math
import mmap
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .arith import divisors, gcd_power, is_prime, v2
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

# Rows of A per block when build_graph fills A, a walk row reads it, or the
# translation check compares it, so that temporaries stay a few MB.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class GraphSpec:
    """The triple (q, m, ell) with q = p^s, plus a complement flag."""

    p: int
    s: int
    m: int
    ell: int
    complemented: bool = False

    def __post_init__(self):
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

    def reduce(self) -> "GraphSpec":
        """Same graph with ell replaced by gcd(m, ell) (valid when m_ell even)."""
        if self.m_ell % 2:
            return self
        return replace(self, ell=math.gcd(self.m, self.ell))

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
    spec: GraphSpec
    field: FieldTable
    connection: ConnectionSet
    adjacency: np.ndarray  # bool, (n, n)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def k(self) -> int:
        return self.connection.cardinality

    # Each computed at most once per graph object; dataclasses.replace builds
    # a new object with nothing cached.
    @cached_property
    def degrees(self) -> np.ndarray:
        """The row sums of A: every vertex's degree."""
        return self.adjacency.sum(axis=1)

    @cached_property
    def walk_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row 0 of A, A^2 and A^3 as int64: each row is the previous one
        times A, that is, the rows of A counted a block at a time and
        weighted by the previous row's entry. A^t[0, x] counts the t-walks
        from 0 to x, at most k^(t-1)."""
        rows = [self.adjacency[0].astype(np.int64)]
        for _ in range(2):
            prev, nxt = rows[-1], np.zeros(self.n, dtype=np.int64)
            for weight in np.unique(prev[prev != 0]).tolist():
                members = np.flatnonzero(prev == weight)
                for start in range(0, len(members), _ROW_BLOCK):
                    block = self.adjacency[members[start : start + _ROW_BLOCK]]
                    nxt += weight * block.sum(axis=0, dtype=np.int64)
            rows.append(nxt)
        return tuple(rows)

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
        hold exactly when A[i, j] = A[0, j - i]. No field table is read
        except to negate row 0, so the Zech additions of the fill are held
        to digit arithmetic."""
        adj, p, n = self.adjacency, self.field.p, self.n
        row = adj[0]
        if not np.array_equal(row[self.field.neg_array(np.arange(n))], row):
            return False
        m = n // p
        while m:
            for a in range(1, p):
                for start in range(0, m, _ROW_BLOCK):
                    stop = min(start + _ROW_BLOCK, m)
                    top = adj[start:stop].reshape(stop - start, -1, p, m)
                    here = adj[a * m + start : a * m + stop].reshape(stop - start, -1, p, m)
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
    """Materialize the adjacency matrix: i ~ j iff element_j - element_i is a
    connection member (complemented specs take the complement of the rows
    and clear the diagonal). ``max_order`` caps the graph, then its field
    table (see ``budgets.require``). Rejects directed cases instead of
    symmetrizing; the result has passed its translation check.
    """
    N = spec.order
    require("graph", N, max_order)
    field = get_field(spec.p, spec.s, spec.m, max_order)
    primal = connection_set(replace(spec, complemented=False), field)
    if not is_symmetric(primal):
        raise DirectedUnsupported(
            f"S is not symmetric for {spec.label()} (q^m = 3 mod 4 Paley case)"
        )
    # A gets its own zeroed pages from the OS rather than a block of malloc's
    # heap, so dropping a graph hands them back at once and the memory held
    # follows the graphs alive, not the order in which graphs were built
    adj = np.frombuffer(mmap.mmap(-1, N * N), dtype=bool).reshape(N, N)
    members = np.flatnonzero(primal.members)
    for start in range(0, N, _ROW_BLOCK):
        rows = np.arange(start, min(start + _ROW_BLOCK, N), dtype=np.int64)[:, None]
        adj[rows, field.add_arrays(rows, members)] = True
    if spec.complemented:
        np.logical_not(adj, out=adj)
        np.fill_diagonal(adj, False)
    g = CayleyGraph(spec, field, connection_set(spec, field) if spec.complemented else primal, adj)
    # a translation invariant A is symmetric with every row a shift of row 0,
    # so row 0 settles the degree and the diagonal
    if int(adj[0].sum()) != g.k or adj[0, 0] or not g.translation_invariant:
        raise InternalCheckError("adjacency is not a loop-free Cayley graph of the expected degree")
    return g


def enumerate_family(p: int, s: int, m: int) -> list[GraphSpec]:
    """All proper members: 1 <= ell <= m/2, ell | m, m/(m,ell) even, ascending."""
    specs = (GraphSpec(p, s, m, ell) for ell in range(1, m // 2 + 1))
    return [spec for spec in specs if spec.is_proper]


def is_subgraph(a: GraphSpec, b: GraphSpec) -> bool:
    """Spec-level test that graph a embeds in graph b (same base field q):
    m_a | m_b and ell_b | ell_a with an odd quotient."""
    if (a.p, a.s) != (b.p, b.s):
        raise MixedBase("subgraph test needs equal base fields; normalize first")
    if not (a.is_proper and b.is_proper):
        raise NotInFamily("subgraph test is for proper specs")
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


def apply_affine_frobenius(g: CayleyGraph, a: int | np.ndarray, b: int, i: int) -> np.ndarray:
    """Vertex permutation x -> a * x^(p^i) + b. Such a map preserves edges
    exactly when a is a connection member. A 1-D array of scales gives one
    row of images per scale, a (len(a), N) table; every row is checked to
    be a bijection with one row-wise sort."""
    fld = g.field
    a = np.asarray(a, dtype=np.int64)
    if (a == 0).any():
        raise ZeroScale("scale a must be nonzero")
    if not 0 <= i < fld.n:
        raise ValueError(f"Frobenius power i must satisfy 0 <= i < {fld.n}")
    idx = np.arange(g.n, dtype=np.int64)
    image = fld.add_arrays(fld.mul_array(a[..., None], fld.pow_array(idx, fld.p**i)), int(b))
    if not (np.sort(image, axis=-1) == idx).all():
        raise InternalCheckError("affine-Frobenius map is not a bijection")
    return image


# ---------------------------------------------------------------------------
# export / import
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


def bit_dump_header(g: CayleyGraph) -> dict:
    return {**g.spec.to_json(), "n": g.n, "k": g.k}


def write_bit_dump(g: CayleyGraph, path: str) -> None:
    """JSON header line, then the adjacency rows packed row-major into
    little-endian bytes (bit j of byte b is column 8b + j)."""
    packed = np.packbits(g.adjacency, axis=1, bitorder="little")
    with open(path, "wb") as fh:
        fh.write((json.dumps(bit_dump_header(g), sort_keys=True) + "\n").encode())
        fh.write(packed.tobytes())


def read_bit_dump(path: str) -> tuple[dict, np.ndarray]:
    """Inverse of write_bit_dump; returns (header, bool adjacency)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    n = int(header["n"])
    row_bytes = (n + 7) // 8
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(n, row_bytes)
    adj = np.unpackbits(packed, axis=1, bitorder="little")[:, :n].astype(bool)
    return header, adj
