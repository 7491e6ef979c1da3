"""Shared exception types, and the number rules their callers check.

Every precondition failure in the package raises one of these, with a message
naming the violated condition and the offending values.
"""
from __future__ import annotations

import cmath
import math

import numpy as np


def finite_real(value) -> bool:
    """Whether value is a finite int, float or numpy real scalar, not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, (bool, np.bool_)) and math.isfinite(value))


def finite_number(value) -> bool:
    """Whether value is a `finite_real` or a finite complex or numpy complex
    scalar; a bool or a numeric string is not one."""
    return finite_real(value) or (isinstance(value, (complex, np.complexfloating))
                                  and cmath.isfinite(value))


def whole_number(value) -> int | None:
    """value as an int when it is a `finite_real` with no fractional part,
    else None; 1.0 reads as 1, and 1.5 is not rounded."""
    return int(value) if finite_real(value) and value == int(value) else None


def phase_pair(pair) -> tuple[int, int] | None:
    """pair as two ints, or None unless it is a tuple or list of two
    `whole_number`s."""
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
        return None
    out = tuple(map(whole_number, pair))
    return None if None in out else out


class KplabError(Exception):
    """Base class for all package errors."""


class RejectedConfig(KplabError):
    """Soliton data failed a regularity requirement (minor signs, rank, ...)."""


class DegenerateFrame(KplabError):
    """The co-moving frame is not defined for this configuration."""


class InvalidBranch(KplabError):
    """Requested far-field branch does not exist for this configuration."""


class PoleAtKappa(KplabError):
    """Spectral parameter collides with a pole of the requested function."""


class ConfigMismatch(KplabError):
    """An input does not fit the operation: non-finite samples, spectral
    points or channel drifts, bad sample counts or seeds, channel windows,
    panel edges or orders, sample shapes, cumulative sides, a based
    cumulative without the origin on a panel edge, or a level chain asked
    of a configuration that does not have two lines."""


class MissingPrimitive(KplabError):
    """An operator needed an exact antiderivative the object does not carry."""


class RegionViolation(KplabError):
    """A sampled function leaks outside the region an operator assumes."""


class OrthogonalityViolation(KplabError):
    """Input violates the orthogonality hypothesis of a kernel-side solve."""


class BranchCutCrossing(KplabError):
    """A requested curve segment crosses the square-root branch cut."""


class AlphaOutOfRange(KplabError):
    """Weight exponent violates an admissibility inequality (named in msg)."""


class InadmissibleEta(KplabError):
    """Transverse frequency outside the mode's weighted-space window."""


class CaseMismatch(KplabError):
    """Requested object exists only in the other parameter case."""
