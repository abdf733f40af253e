"""Connection sets S_{q,m}(ell), Cayley graphs, the family G_{q,m}, the
spec-level subgraph test, the lattice of family members, Waring witnesses
(searched on a built graph's row 0), affine-Frobenius automorphisms, and
export.

A spec (``gpaley.spec.GraphSpec``) names the Cayley graph on the additive
group of F_{q^m} whose connection set is the multiplicative subgroup of
nonzero (q^ell + 1)-th powers. Vertex i is the field element of index i.

A graph is its connection set (see ``CayleyGraph``): row 0 of A, which fixes
every other row, A[i, j] = A[0, j - i] (Babai, JCTB 27, 1979). The kernels
of ``gpaley.oracles`` read row 0 and its transform. No other form of A is
held: ``_row_blocks`` builds its rows from the connection set a block at a
time, for ``CayleyGraph.adjacency`` (read by export and the arc checks) and
for the bit dump, which packs each block as it goes. ``build_graph``
certifies the field's tables first (``field.certify_field``), so the
blocks' Zech additions are digit arithmetic.
"""

import json
import numbers
from functools import cached_property

import numpy as np

from .applications import WaringCertificate, waring_number
from .arith import divisors, gcd_power, v2
from .budgets import require
from .errors import (
    DirectedUnsupported,
    InternalCheckError,
    MixedBase,
    NotApplicable,
    NotInFamily,
    ZeroScale,
)
from .field import FieldTable, certify_field, get_field
from .spec import GraphSpec, Record

# Rows of A per block of _row_blocks, so that a block stays a few MB.
_ROW_BLOCK = 256


class ConnectionSet(Record):
    """Bool membership array of the connection elements, read-only, plus
    its exact cardinality."""

    spec: GraphSpec
    field: FieldTable
    members: np.ndarray  # bool, length q^m
    cardinality: int


class CayleyGraph(Record):
    """The Cayley graph on the additive group of ``field`` with connection
    set ``connection``: i ~ j iff element_j - element_i is a member. Its
    adjacency A is fixed by row 0, the members, and counted from it."""

    spec: GraphSpec
    field: FieldTable
    connection: ConnectionSet

    @property
    def n(self) -> int:
        return self.field.order

    @property
    def k(self) -> int:
        return self.connection.cardinality

    @property
    def row0(self) -> np.ndarray:
        """Row 0 of A, the connection set's members: it fixes every other row."""
        return self.connection.members

    # Each computed at most once per graph object; replace builds a new
    # object with nothing cached.
    @cached_property
    def adjacency(self) -> np.ndarray:
        """A as a read-only (n, n) bool matrix, assembled from ``_row_blocks``
        on the first read: n^2 bytes, for export and small graphs only."""
        out = np.empty((self.n, self.n), dtype=bool)
        for start, block in _row_blocks(self):
            out[start : start + len(block)] = block
        out.flags.writeable = False
        return out

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The character sums over row 0, as int64 indexed by character a:
        the eigenvalues of A (Babai, JCTB 27, 1979), with lambda_0 = |row 0|."""
        return self._character_sums(self.row0)

    @cached_property
    def square_row(self) -> np.ndarray:
        """Row 0 of A^2: the character sums of lambda^2 (lambda_(-a) =
        lambda_a) over N, the division checked exact."""
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
    members.flags.writeable = False  # row 0 of the graph's A
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
    """The Cayley graph of spec on its connection set, after its field's
    tables pass ``certify_field``; no row of A is built until
    ``CayleyGraph.adjacency`` or the bit dump reads it. ``max_order`` caps
    the graph, then its field table (see ``budgets.require``). Rejects
    directed cases instead of symmetrizing, and raises InternalCheckError
    for a set that the parity rule calls symmetric but that some -s is
    missing from."""
    require("graph", spec.order, max_order)
    field = get_field(spec.p, spec.s, spec.m, max_order)
    certify_field(field)
    conn = connection_set(spec, field)
    if not is_symmetric(conn):
        raise DirectedUnsupported(
            f"S is not symmetric for {spec.label()} (q^m = 3 mod 4 Paley case)"
        )
    if not conn.members[field.neg_array(np.flatnonzero(conn.members))].all():
        raise InternalCheckError(f"S is not closed under negation for {spec.label()}")
    return CayleyGraph(spec, field, conn)


def _row_blocks(g: CayleyGraph):
    """A, ``_ROW_BLOCK`` rows at a time: yields (start, block), the bool rows
    [start, start + len(block)) in one block reused from step to step.
    A[i, j] is set iff element_j - element_i is in the primal connection
    set, the graph's own for a primal spec, scattered through the flat
    indices (i - start) N + j; a complement's block is then inverted in
    place, its diagonal cleared. The indices are int32: they stay below
    _ROW_BLOCK N, under 2^31 for every N below 2^23, and at 2^23 vertices A
    alone would be 64 TiB."""
    field, N = g.field, g.n
    primal = g.row0
    if g.spec.complemented:
        primal = ~primal
        primal[0] = False
    members = np.flatnonzero(primal).astype(np.int32)
    block = np.zeros((min(_ROW_BLOCK, N), N), dtype=bool)
    offsets = np.arange(len(block), dtype=np.int32)[:, None] * np.int32(N)
    for start in range(0, N, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, N)
        rows = np.arange(start, stop, dtype=np.int32)[:, None]
        flat = np.add(offsets[: stop - start], field.add_arrays(rows, members), dtype=np.int32,
                      casting="same_kind")
        block[:] = False
        block.reshape(-1)[flat] = True
        if g.spec.complemented:
            np.invert(block, out=block)
            block[np.arange(stop - start), rows[:, 0]] = False
        yield start, block[: stop - start]


def _root_map(spec: GraphSpec, field: FieldTable) -> np.ndarray:
    """roots[y] is the least x with x^(q^ell+1) = y, or -1 if there is none."""
    powers = field.pow_array(np.arange(spec.order, dtype=np.int64), spec.q**spec.ell + 1)
    attained, first = np.unique(powers, return_index=True)
    roots = np.full(spec.order, -1, dtype=np.int64)
    roots[attained] = first
    return roots


def waring_witnesses(g: CayleyGraph) -> WaringCertificate:
    """The certificate of ``applications.waring_number`` for the graph's
    spec, with its witnesses filled in: a layered search from 0 over row 0,
    where layer 1 is the power set S itself and layer 2 is S + S, searched
    one member b of S at a time in ascending order over the elements still
    uncovered, so each element a gets (root of a - b, root of b) for its
    least such b. Row 0 is first held to the image of the power map.
    Diameter 2 means nothing is left over."""
    cert = waring_number(g.spec)
    field, row = g.field, g.row0
    roots = _root_map(g.spec, field)
    if cert.g == 1 and (roots < 0).any():
        raise InternalCheckError("power map not onto in the complete case")
    if row[0] or not np.array_equal(roots[1:] >= 0, row[1:]):
        raise InternalCheckError("the nonzero powers are not the connection set")
    members = np.flatnonzero(row)
    witnesses = np.stack((roots, np.zeros_like(roots)), axis=1)
    x, y = witnesses.T  # column views: row a of witnesses is (x[a], y[a])
    left = np.flatnonzero(~row)[1:]  # index 0 is zero, its own witness
    for b, neg_b in zip(members.tolist(), field.neg_array(members).tolist()):
        if not len(left):
            break
        diff = field.add_arrays(left, neg_b)
        hit = row[diff]
        x[left[hit]], y[left[hit]] = roots[diff[hit]], roots[b]
        left = left[~hit]
    if len(left):
        raise InternalCheckError(f"element {left[0]} unreachable in two power steps")
    return cert.replace(witnesses=witnesses)


def verify_waring(cert: WaringCertificate, field: FieldTable) -> bool:
    """Soundness of a ``WaringCertificate``: the pair in each row a must sum
    to a. No witnesses raise NotApplicable; a witness that is not an element
    index, or a shape other than (field order, 2), raises ValueError."""
    if cert.witnesses is None:
        raise NotApplicable("the certificate carries no witnesses")
    witnesses = _field_indices(cert.witnesses, "witness", field.order)
    if witnesses.shape != (field.order, 2):
        raise ValueError(f"witnesses of shape {witnesses.shape}, not ({field.order}, 2)")
    x, y = witnesses.T
    sums = field.add_arrays(field.pow_array(x, cert.k_exp), field.pow_array(y, cert.k_exp))
    return np.array_equal(sums, np.arange(field.order)) and cert.field_size == field.order


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
    """JSON header line (the spec's JSON plus n and k), then the rows of A
    packed row-major into little-endian bytes (bit j of byte b is column
    8b + j), pad bits 0, one ``_row_blocks`` block at a time, so no packed
    matrix is held whole."""
    header = {**g.spec.to_json(), "n": g.n, "k": g.k}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for _, block in _row_blocks(g):
            fh.write(np.packbits(block, axis=1, bitorder="little").tobytes())
