"""Airy function Ai, its derivative and its first zero, from scipy.special.

The critical-spreading subsolution is built from Ai on [c1, 0], where c1 is
the largest (first negative) zero of Ai.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ai_zeros, airy

__all__ = ["airy_ai", "airy_first_zero"]


def airy_ai(x):
    """(Ai(x), Ai'(x)): two floats for a scalar x, two arrays for an array.

    Raises ValueError unless every entry of x is finite.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"airy_ai requires a finite argument, got {x}")
    ai, aip, _, _ = airy(x)
    if x.ndim == 0:
        return float(ai), float(aip)
    return ai, aip


def airy_first_zero() -> float:
    """Largest (first negative) zero of Ai, about -2.3381."""
    return float(ai_zeros(1)[0][0])
