"""Exception hierarchy shared by all hcm modules, the one reader of outside JSON,
and ``checked``, which makes a record's field checks hold however it is built.

Exit-code mapping used by the CLI: input/parse problems -> 2,
range/window problems -> 3, refusal to assemble an answer -> 4, a
failed self-check of the engine (a bug, not bad input) -> 5.
``read_json`` opens and decodes a module or stems file; ``typed``,
``listed`` and ``fields`` raise ``TypeError``/``ValueError`` on a wrong
JSON type or an unknown key, which each parser reports as ``InputError``.
"""

from __future__ import annotations

import json


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


def read_json(path: str, what: str):
    """The decoded contents of the ``what`` file at ``path``; any failure is ``InputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file {path!r}: bad JSON at line {exc.lineno}") from exc
    except RecursionError as exc:
        raise InputError(f"{what} file {path!r}: JSON nested too deeply") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path!r}: {exc}") from exc


_NOUNS = {int: "an integer", bool: "a boolean", str: "a string", list: "a list"}


def typed(value, kind: type, name: str):
    """``value`` if its type is exactly ``kind``; JSON's true is not an integer."""
    if type(value) is not kind:
        raise TypeError(f"{name!r} must be {_NOUNS[kind]}, got {value!r}")
    return value


def listed(value, kind: type, name: str) -> tuple:
    """The items of a JSON list, each of type exactly ``kind``."""
    return tuple(typed(x, kind, name) for x in typed(value, list, name))


def fields(obj, allowed: tuple[str, ...], where: str) -> dict:
    """``obj`` if it is a JSON object with no key outside ``allowed``."""
    if type(obj) is not dict:
        raise TypeError(f"{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}")
    return obj


def checked(cls):
    """Run the NamedTuple ``cls``'s ``_check`` on every instance, however it is built.

    ``_make``, and so ``_replace``, is ``tuple.__new__`` underneath and
    would skip the wrapped ``__new__``; it calls the constructor instead.
    """
    new = cls.__new__

    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    cls._make = classmethod(lambda klass, iterable: klass(*iterable))
    return cls
