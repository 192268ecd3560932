"""Exact phase arithmetic helpers.

Phases of the form 2*pi*(p/q)*integer appear everywhere in chirp-multicarrier
math. Accumulating them in floating point drifts for large quadratic indices,
so every rational phase here is reduced modulo one revolution in exact integer
arithmetic first and only then converted to a complex exponential.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def unit_phasor(numer, denom: int) -> np.ndarray:
    """exp(2j*pi*numer/denom) with the fraction reduced mod 1 exactly.

    ``numer`` may be a (possibly signed) integer scalar or integer ndarray;
    ``denom`` must be a positive integer. Inputs must stay within int64.
    """
    if denom <= 0:
        raise ValueError("denominator must be positive")
    numer = np.asarray(numer, dtype=np.int64)
    frac = np.mod(numer, denom) / float(denom)
    return np.exp(2j * np.pi * frac)


def chirp_phasor(coeff, index) -> np.ndarray:
    """exp(2j*pi*coeff*index**2), the chirp phase of rate ``coeff`` at integer ``index``.

    An exact ``Fraction`` rate is reduced mod one revolution in integer
    arithmetic. Any other rate is reduced mod 1 in extended precision before
    the complex exponential; good to ~1e-12 of a revolution for indices up to
    a few thousand, which is ample for the tolerances used in this package.
    """
    index_sq = np.asarray(index, dtype=np.int64) ** 2
    if isinstance(coeff, Fraction):
        return unit_phasor(coeff.numerator * index_sq, coeff.denominator)
    arg = np.mod(np.longdouble(coeff) * index_sq, 1.0)
    return np.exp(2j * np.pi * arg.astype(np.float64))
