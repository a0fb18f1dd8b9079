"""Exception hierarchy.

Every failure mode gets its own class so callers (and the CLI) can map
errors to exit codes without string matching.  Parse-time problems derive
from ``SpaceParseError``; resource guards raise ``CapExceeded``; a failed
self-certification (a broken internal invariant, never caused by input)
raises ``InternalError``; everything else derives from ``UsageError``.
"""


class T0LabError(Exception):
    """Base class for all package errors."""


class SpaceParseError(T0LabError):
    """A space description is malformed or names a non-space."""


class MalformedDocument(SpaceParseError):
    pass


class DuplicateLabel(SpaceParseError):
    pass


class NotT0(SpaceParseError):
    """The described preorder has a nontrivial cycle, so the space is not T0."""


class NotATopology(SpaceParseError):
    """An explicit open-set family is not closed under union/intersection."""


class NotAlexandroffConsistent(SpaceParseError):
    """An explicit open-set family is a topology but not the up-set topology
    of its own specialization order, so it cannot describe a finite space
    faithfully through its order."""


class CapExceeded(T0LabError):
    """An enumeration would exceed a configured resource cap."""


class InternalError(T0LabError):
    """A certification that holds on every valid input failed: an internal
    invariant is broken."""


class UsageError(T0LabError):
    """An operation was called outside its contract."""


class SpaceMismatch(UsageError):
    pass


class EmptySet(UsageError):
    pass


class NotDirected(UsageError):
    pass


class EmptyFamily(UsageError):
    pass


class EmptyMember(UsageError):
    pass


class NotInM(UsageError):
    pass


class PreconditionViolated(UsageError):
    pass


class UnsupportedDepth(UsageError):
    pass


class EndpointMismatch(UsageError):
    pass


class EmptyIntersection(UsageError):
    pass


class NotAFilter(UsageError):
    pass


class MissingSystem(UsageError):
    pass


class UnknownClaim(UsageError):
    pass


class Unrepresentable(UsageError):
    pass


class NoHomeomorphism(T0LabError):
    """Raised when the map a construction promises as a homeomorphism fails its certificate."""


class ContinuityError(UsageError):
    """A point map between spaces is not continuous (not monotone)."""
