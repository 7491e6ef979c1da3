"""Square-root spectral branches attached to a soliton channel.

Each channel (i, j) carries gamma(eta) = sqrt(c_ij + i eta) on the principal
branch and the two spectral points beta = a_ij +/- gamma.  Everything
accepts real or complex eta, scalar or array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BranchCutCrossing, InadmissibleEta, InvalidBranch, finite_number,
                     finite_real, phase_pair, whole_number)


def check_sign(sign: int) -> None:
    """A branch or transform sign is the `errors.whole_number` +1 or -1;
    anything else, a bool included, raises InvalidBranch."""
    if whole_number(sign) not in (1, -1):
        raise InvalidBranch(f"sign must be +1 or -1, got {sign!r}")


def _frequency(eta: complex) -> complex:
    """eta as a complex; InadmissibleEta unless it is an `errors.finite_number`."""
    if not finite_number(eta):
        raise InadmissibleEta(f"transverse frequency must be a finite number, got {eta!r}")
    return complex(eta)


@dataclass(frozen=True)
class Branch:
    """a and c must be `errors.finite_real`s and c > 0, else InvalidBranch."""

    a: float   # half sum of the channel's phase speeds
    c: float   # quarter squared gap, the sech^2 amplitude scale

    def __post_init__(self):
        if not (finite_real(self.a) and finite_real(self.c) and self.c > 0):
            raise InvalidBranch(f"a branch needs a finite real a and c > 0, "
                                f"got a={self.a!r}, c={self.c!r}")

    @property
    def omega(self) -> float:
        """kappa_i^2 + kappa_i kappa_j + kappa_j^2; the crest runs along x + 2a y = omega t."""
        return 3.0 * self.a * self.a + self.c

    def gamma(self, eta):
        """Principal sqrt(c + i eta); rejects points on the cut.

        eta must have an integer, float or complex dtype and be finite at
        every entry, else InadmissibleEta, as `_frequency` rules a scalar.
        """
        eta = np.asarray(eta)
        if eta.dtype.kind not in "iufc" or not np.isfinite(eta).all():
            raise InadmissibleEta(f"transverse frequency must be finite numbers, got {eta!r}")
        z = self.c + 1j * eta.astype(complex)
        on_cut = (z.real < 0) & (z.imag == 0)
        if np.any(on_cut):
            raise BranchCutCrossing(
                f"c + i eta = {z[on_cut] if z.shape else z} lies on the negative real axis")
        out = np.sqrt(z)
        return out if out.shape else complex(out)

    def beta(self, eta, sign: int):
        check_sign(sign)
        out = self.a + sign * self.gamma(eta)
        return out if np.asarray(out).shape else complex(out)


def branch_of(config, pair: tuple[int, int]) -> Branch:
    """The branch of a 1-based channel pair: a and c from its two phase speeds.

    A pair that is not one of `config.channel_pairs()` raises InvalidBranch.
    """
    given, pair = pair, phase_pair(pair)
    if pair not in config.channel_pairs():
        raise InvalidBranch(f"{given!r} is not a channel of this {config.kind} configuration")
    ki, kj = config.kappa[pair[0] - 1], config.kappa[pair[1] - 1]
    return Branch(a=0.5 * (ki + kj), c=0.25 * (ki - kj) ** 2)
