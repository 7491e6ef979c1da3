"""Square-root spectral branches attached to a soliton channel.

Each channel (i, j) carries gamma(eta) = sqrt(c_ij + i eta) on the principal
branch and the two spectral points beta = a_ij +/- gamma.  Everything
accepts real or complex eta, scalar or array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCutCrossing, InvalidBranch


def check_sign(sign: int) -> None:
    """A branch or transform sign is +1 or -1; anything else raises InvalidBranch."""
    if sign not in (1, -1):
        raise InvalidBranch(f"sign must be +1 or -1, got {sign}")


@dataclass(frozen=True)
class Branch:
    a: float   # half sum of the channel's phase speeds
    c: float   # quarter squared gap, the sech^2 amplitude scale

    @property
    def omega(self) -> float:
        """kappa_i^2 + kappa_i kappa_j + kappa_j^2; the crest runs along x + 2a y = omega t."""
        return 3.0 * self.a * self.a + self.c

    def gamma(self, eta):
        """Principal sqrt(c + i eta); rejects points on the cut."""
        z = self.c + 1j * np.asarray(eta, dtype=complex)
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
    return Branch(a=config.a_of(pair), c=config.c_of(pair))
