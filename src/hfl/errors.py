"""Exception types shared across the package.

Every error raised deliberately by this package derives from Error, so
callers (and the CLI) can distinguish contract violations from bugs.
"""


class Error(Exception):
    """Base class for all hfl errors."""


class NonPrimeError(Error):
    """The characteristic passed to a field constructor is not prime."""


class DegreeOutOfRangeError(Error):
    """Field degree outside the supported range, or field too large."""


class FieldNotSquareOrderError(Error):
    """A relative (q-power) operation was requested on GF(p^k) with k odd."""


class TargetNotInSubfieldError(Error):
    """Trace/norm fiber requested for a value outside the base subfield."""


class UnsupportedQError(Error):
    """Curve parameter q outside the supported set."""


class EmptyGeneratorSetError(Error):
    """A lattice needs at least one generating vector."""


class DimensionMismatchError(Error):
    """Vector length does not match the ambient dimension."""


class NotFullRankError(Error):
    """Generators of rank below n - 1, or n < 2: a lattice is a full-rank
    sublattice of A_{n-1}."""


class BudgetExceededError(Error):
    """An enumeration would exceed the configured work cap."""


class SearchInfeasibleError(Error):
    """A search space is too large for the implemented strategies."""


class GroupTooLargeError(Error):
    """Abelian group too large to enumerate, or Aut(G) too costly to list."""


class NotMinimalPairError(Error):
    """The two lines do not form a minimal-vector quotient pair, or the
    degree bound falls short of the pair's norm."""


class NotOnCurveError(Error):
    """Point parameters do not satisfy the curve equation."""


class ZeroScalarError(Error):
    """Scaling automorphisms need a nonzero field element."""


class OrderBudgetExceededError(Error):
    """A group's order is above the configured cap."""


class InternalIdentityViolationError(Error):
    """An exact self-check failed (a decomposition's signed sum, a pair
    vector's norm, a line divisor's membership, a bijection); this is a
    defect.  Raised, not asserted, so that it survives python -O."""


class LatticeNotStableError(Error):
    """A group moves the lattice, so it induces no action on the quotient."""
