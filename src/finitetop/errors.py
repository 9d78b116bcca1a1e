"""Exception taxonomy shared by all finitetop modules.

Every domain-level failure derives from FinitetopError and carries a stable
``name`` plus a JSON-serializable ``details`` dict, so the CLI can emit
structured errors without pattern-matching on messages.
"""


class FinitetopError(Exception):
    """Base class for all domain errors (CLI exit code 1)."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    @property
    def name(self):
        return type(self).__name__


# -- topology -----------------------------------------------------------

class MissingEmpty(FinitetopError):
    pass


class MissingFull(FinitetopError):
    pass


class NotClosedUnderUnion(FinitetopError):
    pass


class NotClosedUnderIntersection(FinitetopError):
    pass


class NotReflexive(FinitetopError):
    pass


class NotTransitive(FinitetopError):
    pass


class NotContinuous(FinitetopError):
    pass


class NotT0(FinitetopError):
    pass


class NotSober(FinitetopError):
    pass


class NotOpen(FinitetopError):
    pass


class NotLocallyClosed(FinitetopError):
    pass


class CapExceeded(FinitetopError):
    """A documented size cap was crossed (counts explode past desk scale)."""


# -- lattice ------------------------------------------------------------

class PreservationFailure(FinitetopError):
    """A lattice map fails a required join/meet preservation law."""


# -- action -------------------------------------------------------------

class DomainMismatch(FinitetopError):
    pass


class CoverFailure(FinitetopError):
    pass


class CompatibilityFailure(FinitetopError):
    pass


# -- completion ---------------------------------------------------------

class NotMonotone(FinitetopError):
    pass


class BadEndpoints(FinitetopError):
    pass


# -- ktheory ------------------------------------------------------------

class NotComposable(FinitetopError):
    pass


class NotWellDefined(FinitetopError):
    pass


class ShapeMismatch(FinitetopError):
    pass


class SquareNotCommuting(FinitetopError):
    pass


class InputFormatError(Exception):
    """Malformed input file or schema (CLI exit code 2)."""


class InputCapExceeded(CapExceeded, InputFormatError):
    """An input over a documented cap, refused while parsing (CLI exit code 2)."""
