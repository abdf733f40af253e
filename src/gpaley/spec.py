"""Field parameters and graph specs: what a question names, before any table.

A spec (q, m, ell) with q = p^s describes the Cayley graph on the additive
group of F_{q^m} whose connection set is the multiplicative subgroup of
nonzero (q^ell + 1)-th powers. Everything here is integer arithmetic on the
spec, so the closed forms of ``spectra`` and ``applications`` read it
without loading numpy or a field table; ``field`` and ``graphs`` build the
tables of the field and the graph a spec names.
"""

import math
import sys

from .arith import is_prime, require_int
from .errors import CompositeP, NotDivisible, NotInFamily


class Record:
    """A frozen record, the one record base of the package. Its fields are
    the annotated names of the class and its bases, base fields first, and a
    class attribute is a field's default. It has the constructor, equality,
    hash and repr that a frozen dataclass would, and ``__post_init__`` runs
    in every construction, ``replace`` included; assignment and deletion
    raise AttributeError. Instances keep a ``__dict__``, so a
    ``cached_property`` works, and ``replace`` starts one with nothing cached."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class's own __annotations__, never its base's (Python 3.10 on)
        fields = tuple(dict.fromkeys([*cls._fields, *cls.__annotations__]))
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        # __init__, the tuple of values and the hash, written out as a frozen
        # dataclass writes them, so that each runs at its speed
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
        values = "(" + "".join(f"self.{f}, " for f in fields) + ")"
        source = (f"def __init__(self, {params}):\n"
                  + "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
                  + "    self.__post_init__()\n"
                  f"def _values(self):\n    return {values}\n"
                  f"def __hash__(self):\n    return hash({values})\n")
        namespace = {"_set": object.__setattr__, "_defaults": defaults}
        exec(source, namespace)
        cls._fields = fields
        for name in ("__init__", "_values", "__hash__"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, namespace[name])

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def replace(self, **changes):
        """A new record with ``changes`` applied, built and checked anew."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class FieldParams(Record):
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


def _is_bool(value) -> bool:
    """A Python bool, or a numpy bool; the latter can exist only once numpy
    is loaded, so numpy is looked up, never imported."""
    np = sys.modules.get("numpy")
    return isinstance(value, bool) or (np is not None and isinstance(value, np.bool_))


class GraphSpec(FieldParams):
    """The triple (q, m, ell) with q = p^s, plus a complement flag, which
    must be a bool, Python or numpy, and is stored as a Python bool; p, s
    and m are checked as ``FieldParams`` checks them."""

    ell: int
    complemented: bool = False

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "ell", require_int(self.ell, "ell"))
        if not _is_bool(self.complemented):
            raise ValueError(f"complemented must be a bool, not {self.complemented!r}")
        object.__setattr__(self, "complemented", bool(self.complemented))
        if not 0 <= self.ell < self.m:
            raise ValueError("need 0 <= ell < m (exponents repeat mod m)")

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
        return self.replace(complemented=not self.complemented)

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


def normalize(p: int, r: int, m: int, ell: int, complemented: bool = False) -> GraphSpec:
    """Canonical power-1 presentation: the (p^r, m, ell) graph equals the
    (p^(r*ell), m/ell, 1) graph. Each of p, r, m and ell must be an
    integer, a bool refused, under its own name."""
    p, r = require_int(p, "p"), require_int(r, "r")
    m, ell = require_int(m, "m"), require_int(ell, "ell")
    if ell < 1 or m % ell or m // ell < 2:
        raise NotDivisible(f"ell = {ell} must divide m = {m} with quotient >= 2")
    return GraphSpec(p, r * ell, m // ell, 1, complemented)
