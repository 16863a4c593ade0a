"""V-shaped transfer functions and their post-flip velocity corrections.

A transfer function maps a signed velocity to a bit-flip probability in
[0, 1). After a bit flips, the stored velocity must be re-expressed
relative to the new bit value: the corrected velocity ``v'`` satisfies
``sigm(v') = 1 - sigm(v)`` and keeps the sign of ``v``. Closed forms for
all four corrections are implemented here; the test suite checks them
against a bisection oracle in ``tests/conftest.py``.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import enum
import math

import numpy as np

# Magnitude guards on corrected velocities. Near v -> 0 the VT1/VT2 forms
# blow up; near large |v| the VT3/VT4 forms underflow. sigm saturates far
# inside these bounds, so clamping changes no observable flip probability
# while keeping stored state finite and signed. A clamped value is not the
# true correction: where that lies outside the bounds (below the floor for
# VT3 beyond |v| ~ 345.7 and VT4 beyond ~ 692.2) the bisection oracle of
# the tests cannot bracket it and correct does not invert itself; see
# correct's docstring.
CORRECTION_CLAMP = 1e12
CORRECTION_FLOOR = 1e-300

# Largest double strictly below 1; keeps sigm in [0, 1) even where the
# underlying expression rounds to 1.
_P_MAX = float(np.nextafter(1.0, 0.0))

_LN2 = math.log(2.0)


class TransferKind(enum.Enum):
    """Which of the four V-shaped transfer functions is active."""

    VT1 = "VT1"
    VT2 = "VT2"
    VT3 = "VT3"
    VT4 = "VT4"


def _check_finite(a: np.ndarray, mask: np.ndarray | None = None) -> None:
    if not np.isfinite(a, out=mask).all():
        raise ValueError("velocity must be finite")


def sigm_scratch(shape) -> tuple[np.ndarray, ...]:
    """Fresh arrays for :func:`sigm` on velocities of ``shape``: |v|, the
    flip probabilities, a float64 work array and a bool mask."""
    return (np.empty(shape), np.empty(shape), np.empty(shape),
            np.empty(shape, dtype=bool))


def sigm(kind: TransferKind, v, scratch=None):
    """Bit-flip probability for velocity ``v``.

    Even in ``v``, zero at zero, strictly increasing in ``|v|`` and
    bounded in [0, 1). Every intermediate is written into ``scratch``,
    arrays of ``v``'s shape as :func:`sigm_scratch` makes them, fresh
    ones by default; an array result is ``scratch``'s second array.
    """
    arr = np.asarray(v, dtype=np.float64)
    a, p, work, mask = sigm_scratch(arr.shape) if scratch is None else scratch
    np.abs(arr, out=a)
    _check_finite(a, mask)
    if kind is TransferKind.VT1:
        # (pi/2)*a overflows above 1.1e308, where arctan(inf) is exact
        with np.errstate(over="ignore"):
            np.multiply(np.pi / 2.0, a, out=p)
        np.arctan(p, out=p)
        np.multiply(2.0 / np.pi, p, out=p)
    elif kind is TransferKind.VT2:
        # a^2 overflows for huge a, so the elements above 1 take the
        # reciprocal form, computed on those elements only (by index: a
        # boolean mask or ufunc where= is slower at swarm sizes); the
        # index array is the one allocation, 8 bytes an element above 1
        np.minimum(a, 1.0, out=p)
        np.multiply(p, p, out=p)
        np.add(p, 1.0, out=work)
        np.divide(p, work, out=p)
        big = np.flatnonzero(np.greater(a, 1.0, out=mask))
        hi = work.reshape(-1)[:big.size]
        a.take(big, out=hi, mode="clip")  # "raise" would buffer ``out``
        np.power(hi, -2.0, out=hi)
        np.add(hi, 1.0, out=hi)
        np.divide(1.0, hi, out=hi)
        p.put(big, hi)
    elif kind is TransferKind.VT3:
        np.tanh(a, out=p)
    elif kind is TransferKind.VT4:
        # -expm1(-a) / (1 + exp(-a)); expm1 avoids the 1 - e^{-a}
        # cancellation for tiny a
        np.negative(a, out=p)
        np.exp(p, out=work)
        np.add(work, 1.0, out=work)
        np.expm1(p, out=p)
        np.negative(p, out=p)
        np.divide(p, work, out=p)
    else:  # pragma: no cover
        raise TypeError(f"unknown transfer kind: {kind!r}")
    np.minimum(p, _P_MAX, out=p)
    return float(p) if np.isscalar(v) or arr.ndim == 0 else p


def _log1mexp(x):
    """log(1 - exp(-x)) for x > 0, accurate across the whole range."""
    with np.errstate(divide="ignore"):
        small = np.log(-np.expm1(-np.minimum(x, _LN2)))
        large = np.log1p(-np.exp(-np.maximum(x, _LN2)))
    return np.where(x <= _LN2, small, large)


def correct(kind: TransferKind, v):
    """Corrected velocity ``v'`` with ``sigm(v') = 1 - sigm(v)``.

    Sign-preserving; magnitude clamped to
    [CORRECTION_FLOOR, CORRECTION_CLAMP]. ``v`` must be finite and nonzero
    (a flip cannot occur at v = 0, so correction is never invoked there).

    ``correct`` is its own inverse wherever the true correction lies in
    [CORRECTION_FLOOR, CORRECTION_CLAMP]. Outside that range the clamped
    value cannot be inverted: ``correct(correct(v))`` returns the boundary
    velocity ``correct(copysign(bound, v))`` instead of ``v`` (about 345.734
    for VT3 and 692.162 for VT4 at the floor), with the sign of ``v`` and
    the flip probability ``sigm(v)`` kept.
    """
    arr = np.asarray(v, dtype=np.float64)
    _check_finite(arr)
    if (arr == 0.0).any():
        raise ValueError("cannot correct a zero velocity")
    a = np.abs(arr)
    s = np.sign(arr)
    if kind is TransferKind.VT1:
        c = 4.0 / (np.pi * np.pi * a)
    elif kind is TransferKind.VT2:
        c = 1.0 / a
    elif kind is TransferKind.VT3:
        c = 0.5 * (np.log1p(3.0 * np.exp(-2.0 * a)) - _log1mexp(2.0 * a))
    elif kind is TransferKind.VT4:
        c = np.log1p(3.0 * np.exp(-a)) - _log1mexp(a)
    else:  # pragma: no cover
        raise TypeError(f"unknown transfer kind: {kind!r}")
    c = np.clip(c, CORRECTION_FLOOR, CORRECTION_CLAMP)
    out = s * c
    return float(out) if np.isscalar(v) or arr.ndim == 0 else out
