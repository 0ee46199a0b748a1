"""Exception types raised by the library, one per documented failure mode."""


class ActivitaError(Exception):
    """Base class for all library errors."""


class EmptyBases(ActivitaError):
    pass


class UnequalCardinality(ActivitaError):
    pass


class ExchangeAxiomViolated(ActivitaError):
    """Carries a witness pair of bases for which exchange fails."""

    def __init__(self, a, b, elem):
        self.witness = (a, b, elem)
        super().__init__(f"no exchange for element {elem} between bases {a} and {b}")


class RankOutOfRange(ActivitaError):
    pass


class NoEdges(ActivitaError):
    pass


class NotPrime(ActivitaError):
    pass


class NotABasis(ActivitaError):
    pass


class ElementInBasis(ActivitaError):
    pass


class NotIndependent(ActivitaError):
    pass


class NotNBC(ActivitaError):
    pass


class DecompositionNotFound(ActivitaError):
    pass


class DecompositionNotUnique(ActivitaError):
    pass


class EquivalenceMismatch(ActivitaError):
    """Equivalent forms of a definition or construction disagreed; implementation bug."""


class LatticeFailure(ActivitaError):
    pass


class NotACover(ActivitaError):
    pass


class NotAPermutation(ActivitaError):
    pass


class NotPure(ActivitaError):
    pass


class NoLinearExtension(ActivitaError):
    """The rows of a poset hold a cycle, so no order lists each element after those below it."""


class ComparablePair(ActivitaError):
    """Raised by the witness search when the pair already satisfies K <= I."""


class WitnessNotFound(ActivitaError):
    """No witness exists for a pair; signals a theorem violation."""


class ParseError(ActivitaError):
    pass
