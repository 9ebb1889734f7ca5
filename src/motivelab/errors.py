"""Exception hierarchy shared across the package."""

from __future__ import annotations

import json


class MotiveLabError(Exception):
    """Base class for all errors raised by motivelab."""


class InvariantViolation(MotiveLabError):
    """An internal consistency check failed: a bug, not bad input."""


def check_invariant(ok: bool, message: str) -> None:
    """Raise InvariantViolation(message) unless ok; unlike assert, kept under -O."""
    if not ok:
        raise InvariantViolation(message)


# -- group construction ------------------------------------------------------

class NonAssociative(MotiveLabError):
    """A Cayley table failed the associativity check."""


class NoIdentity(MotiveLabError):
    """A Cayley table has no two-sided identity."""


class NotClosed(MotiveLabError):
    """A Cayley table contains entries outside the element range."""


class OrderBound(MotiveLabError):
    """A constructed group exceeds the supported order bound."""


class NotASubgroup(MotiveLabError):
    """A member set is not closed, misses the identity/inverses, or names an
    element outside the group."""


class NotAbelian(MotiveLabError):
    """An operation that needs an abelian group got a nonabelian one."""


class BadGroupSpec(MotiveLabError, ValueError):
    """A group spec (dict or shorthand string) is malformed or unknown."""


# -- exact linear algebra ----------------------------------------------------

class SizeBound(MotiveLabError):
    """A matrix or search space exceeds the configured guard."""


class DivisionByZero(MotiveLabError, ZeroDivisionError):
    """Inversion of zero in an exact arithmetic domain."""


class Unsolvable(MotiveLabError):
    """A linear system over Z/n has no solution."""


class BadModulus(MotiveLabError, ValueError):
    """A modulus is not a positive integer."""


# -- cocycles and cohomology -------------------------------------------------

class NotACocycle(MotiveLabError):
    """A table violates normalization or the cocycle identity."""


class GroupMismatch(MotiveLabError):
    """Operands are attached to different groups."""


class ModulusMismatch(MotiveLabError):
    """Operands carry incompatible root-of-unity moduli."""


# -- character tables --------------------------------------------------------

class PrimeSearchFailed(MotiveLabError):
    """No suitable prime found for the modular character algorithm."""


class NonIntegralDecomposition(MotiveLabError):
    """An inner-product decomposition produced non-integer multiplicities."""


class NonIntegralCharacter(MotiveLabError):
    """Class-function data does not decompose integrally over irreducibles."""


# -- motive skeletons --------------------------------------------------------

class StabilizerIndexMismatch(MotiveLabError):
    """A block length disagrees with the index of its stabilizer."""


class NonTrivialStabilizerH2(MotiveLabError):
    """A proper stabilizer has nontrivial second cohomology."""


class UnsupportedAtom(MotiveLabError):
    """An operation does not apply to this atom variant."""


class UnsupportedTensor(MotiveLabError):
    """A product of atoms falls outside the supported tensor rules."""


# -- catalog -----------------------------------------------------------------

class UnknownEntry(MotiveLabError):
    """Unknown catalog entry name."""


class ParamRange(MotiveLabError):
    """Catalog entry parameters out of the supported range."""


class InconsistentAction(MotiveLabError):
    """An action does not fit the entry's block structure, or class
    coordinates do not fit the multiplier."""


class OddCohomology(MotiveLabError):
    """Odd Betti numbers are nonzero; no invariant collection can exist."""


class LengthMismatch(MotiveLabError):
    """Collection length disagrees with the total Betti number."""


# -- measures ----------------------------------------------------------------

class UnsupportedInvariant(MotiveLabError):
    """Unknown invariant name passed to skeleton evaluation."""


class ClassCountMismatch(MotiveLabError):
    """Per-class data has the wrong number of entries."""


class MissingField(MotiveLabError):
    """A dataset file lacks a field the requested action needs."""


class NotAnObject(MotiveLabError):
    """A JSON input holds a list, number or string where an object is expected."""


class WrongShape(MotiveLabError):
    """A JSON input holds a number where a list is expected, or an object for
    an integer; or a command-line field holds other than comma-separated integers."""


def json_integer(value, where: str) -> int:
    """value if it is a JSON integer, or WrongShape naming the field: a
    string, a bool, a float, a list or an object is not one."""
    if type(value) is not int:
        raise WrongShape(f"{where} must be an integer, not {json.dumps(value)[:40]}")
    return value


def json_integers(raw, where: str, pairs: bool = False) -> list:
    """A JSON list of integers, or of integer pairs, or WrongShape naming the field."""
    if not isinstance(raw, list) or (
            pairs and not all(isinstance(v, list) and len(v) == 2 for v in raw)):
        raise WrongShape(f"{where} must be a list of {'integer pairs' if pairs else 'integers'}, "
                         f"not {json.dumps(raw)[:40]}")
    if pairs:
        return [(json_integer(a, where), json_integer(b, where)) for a, b in raw]
    return [json_integer(v, where) for v in raw]


def comma_integers(raw: str, where: str) -> tuple[int, ...]:
    """The comma-separated integers of a command-line field, or WrongShape naming it."""
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise WrongShape(f"{where} must be comma-separated integers, not {raw!r}") from None


def json_integer_lists(raw, where: str) -> list:
    """A JSON list of integer lists, or WrongShape naming the field."""
    if not isinstance(raw, list):
        raise WrongShape(f"{where} must be a list of integer lists, not {json.dumps(raw)[:40]}")
    return [json_integers(r, where) for r in raw]
