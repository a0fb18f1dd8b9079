"""t0lab: an exact workbench for finite T0 spaces and their order theory.

Finite T0 spaces are finite posets in disguise; this package keeps the
two views glued together and makes the classical sobriety-style
properties — and their many characterizations — executable and
cross-checkable, together with power-space constructions, reflections,
and symbolic certificates for the standard infinite counterexamples.
"""

from .config import Caps, RunConfig, DEFAULT
from .errors import T0LabError
from .spaces import (
    FiniteSpace,
    PointSet,
    ClosedSet,
    CompactSat,
    SpaceMap,
    parse_space,
    random_space,
    to_dot,
)
from .systems import SubsetSystemId, as_system, h_member, rudin_minimal
from .checkers import Verdict, check, check_all, crosscheck_h_sober, crosscheck_super
from .powers import smyth, hoare, hofmann_mislove_report
from .construct import (
    product,
    continuous_maps,
    function_space,
    enumerate_posets,
    homeomorphic,
    reflect,
    universal_property_verify,
)

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "RunConfig",
    "DEFAULT",
    "T0LabError",
    "FiniteSpace",
    "PointSet",
    "ClosedSet",
    "CompactSat",
    "SpaceMap",
    "parse_space",
    "random_space",
    "to_dot",
    "SubsetSystemId",
    "as_system",
    "h_member",
    "rudin_minimal",
    "Verdict",
    "check",
    "check_all",
    "crosscheck_h_sober",
    "crosscheck_super",
    "smyth",
    "hoare",
    "hofmann_mislove_report",
    "product",
    "continuous_maps",
    "function_space",
    "enumerate_posets",
    "homeomorphic",
    "reflect",
    "universal_property_verify",
    "verify_claim",
    "list_claims",
    "__version__",
]


def __getattr__(name: str):
    # the zoo loads on first use: no check, sweep or construction reads it
    if name in ("verify_claim", "list_claims"):
        from . import zoo
        return getattr(zoo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
