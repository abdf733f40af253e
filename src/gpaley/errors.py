"""Exception types shared across the package."""


class GPaleyError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(GPaleyError):
    """An exhaustive/materialized computation was requested above its size budget."""


class CompositeP(GPaleyError):
    """The characteristic passed as ``p`` is not prime."""


class NotASubfield(GPaleyError):
    """Trace target degree does not divide the source degree."""


class ZeroElement(GPaleyError):
    """Operation undefined for the zero field element."""


class DirectedUnsupported(GPaleyError):
    """The connection set is not symmetric, so the Cayley graph is directed."""


class MixedBase(GPaleyError):
    """Subgraph test called on specs over different base fields."""


class NotDivisible(GPaleyError):
    """Normalization requires the power index to divide the extension degree."""


class ZeroScale(GPaleyError):
    """Affine map with scale a = 0 is not a bijection."""


class OutOfTheory(GPaleyError):
    """Input lies outside the regime the closed-form classification covers."""


class UnbalancedCounts(GPaleyError):
    """Character-sum residue counts are not constant over nonzero classes,
    so the sum is not a rational integer of the expected shape."""


class NotInFamily(GPaleyError):
    """Spec is not a proper family member (needs ell | m with m/ell even)."""


class DegenerateGraph(GPaleyError):
    """The (q, m, ell) = (2, 2, 1) graph; its srg parameter tuple is meaningless."""


class Disconnected(GPaleyError):
    """Operation requires a connected graph (ell = m/2 graphs are disjoint cliques)."""


class NotApplicable(GPaleyError):
    """Waring certification does not apply to this spec."""


class NotStronglyRegular(GPaleyError):
    """Brute-force common-neighbor counts were not constant over pairs."""


class InternalCheckError(GPaleyError):
    """A redundant internal cross-check failed; indicates a bug, never bad input."""
