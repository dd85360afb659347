"""Exception types shared across the package.

Every message names the violated invariant and, where it helps, a witnessing
value, so CLI users and tests can tell configuration mistakes apart from
genuine assumption failures.
"""


class ChainCertError(Exception):
    """Base class for all package errors."""


class InvalidInputError(ChainCertError):
    """Malformed arguments or configuration (CLI exit code 2)."""


class SizeCapError(InvalidInputError):
    """An enumeration guard was hit; the message names the scalable fallback."""


class AssumptionViolationError(ChainCertError):
    """A standing assumption fails: mean contraction factor >= 1, or the
    loss/hypothesis family breaks its declared bound (CLI exit code 3)."""


class GeneratorContractError(ChainCertError):
    """A generator stepped outside its declared state bounds, or an affine
    system's maps do not keep its declared state ball invariant (CLI exit
    code 3)."""
