"""Exception hierarchy shared by all hcm modules.

Exit-code mapping used by the CLI: input/parse problems -> 2,
range/window problems -> 3, refusal to assemble an answer -> 4, a
failed self-check of the engine (a bug, not bad input) -> 5.
"""

from __future__ import annotations


class HcmError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(HcmError):
    """Malformed input: bad file, bad schema, unknown builtin name."""

    exit_code = 2


class ContractViolationError(InputError):
    """A documented precondition was violated (e.g. dimension mismatch)."""


class DiagramError(InputError):
    """A cell diagram is internally inconsistent (edge degrees, labels)."""


class ConstructionError(InputError):
    """A module could not be completed to a consistent Steenrod action."""


class RangeError(HcmError):
    """A requested window exceeds the range where the computation is valid."""

    exit_code = 3


class UnsupportedError(RangeError):
    """The argument is outside the finite set of supported cases."""


class RefusalError(HcmError):
    """The library refuses to assemble an answer it cannot certify."""

    exit_code = 4


class InternalError(HcmError):
    """The engine's own self-check failed: a wrong answer was caught, not bad input."""

    exit_code = 5


class NotFoundError(InputError):
    """A lookup (stem, generator label, product) found nothing."""
