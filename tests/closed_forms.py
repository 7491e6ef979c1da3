"""Closed forms the tests check kplab against.

kplab evaluates every phase and every line through its term algebra; these
are the textbook formulas, kept on the test side as independent references.
"""
from __future__ import annotations

import numpy as np


def theta(kappa: tuple[float, ...], m: int, x, y, t) -> np.ndarray:
    """theta_m = kappa_m x + kappa_m^2 y - kappa_m^3 t on broadcast points, m 1-based."""
    k = kappa[m - 1]
    x, y, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float), np.asarray(t, float))
    return k * x + k * k * y - k ** 3 * t


def sech2(z: np.ndarray) -> np.ndarray:
    """sech^2 without overflow at large |z|."""
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2
