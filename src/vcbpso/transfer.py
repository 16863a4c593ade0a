"""V-shaped transfer functions and their post-flip velocity corrections.

A transfer function maps a signed velocity to a bit-flip probability in
[0, 1). After a bit flips, the stored velocity must be re-expressed
relative to the new bit value: the corrected velocity ``v'`` satisfies
``sigm(v') = 1 - sigm(v)`` and keeps the sign of ``v``. Closed forms for
all four corrections are implemented here, together with a bisection
oracle used by the test suite to validate them.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import OracleError

# Magnitude guards on corrected velocities. Near v -> 0 the VT1/VT2 forms
# blow up; near large |v| the VT3/VT4 forms underflow. sigm saturates far
# inside these bounds, so clamping changes no observable flip probability
# while keeping stored state finite and signed. A clamped value is not the
# true correction: where that lies outside the bounds (below the floor for
# VT3 beyond |v| ~ 345.7 and VT4 beyond ~ 692.2) correct_oracle raises
# OracleError and correct does not invert itself; see correct's docstring.
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


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("velocity must be finite")


def sigm(kind: TransferKind, v):
    """Bit-flip probability for velocity ``v``.

    Even in ``v``, zero at zero, strictly increasing in ``|v|`` and
    bounded in [0, 1).
    """
    arr = np.asarray(v, dtype=np.float64)
    _check_finite(arr)
    a = np.abs(arr)
    if kind is TransferKind.VT1:
        p = (2.0 / np.pi) * np.arctan((np.pi / 2.0) * a)
    elif kind is TransferKind.VT2:
        # a^2 overflows for huge a, so the elements above 1 take the
        # reciprocal form, computed on those elements only (by index: a
        # boolean mask or ufunc where= is slower at swarm sizes).
        lo = np.minimum(a, 1.0)
        sq = lo * lo
        p = np.divide(sq, 1.0 + sq, out=np.empty(arr.shape))
        big = np.flatnonzero(a > 1.0)
        p.put(big, 1.0 / (1.0 + a.take(big) ** -2.0))
    elif kind is TransferKind.VT3:
        p = np.tanh(a)
    elif kind is TransferKind.VT4:
        # expm1 avoids the 1 - e^{-a} cancellation for tiny a
        p = -np.expm1(-a) / (1.0 + np.exp(-a))
    else:  # pragma: no cover
        raise TypeError(f"unknown transfer kind: {kind!r}")
    p = np.minimum(p, _P_MAX)
    return float(p) if np.isscalar(v) or arr.ndim == 0 else p


def sigm_complement(kind: TransferKind, v):
    """``1 - sigm(v)`` evaluated without cancellation.

    Needed wherever sigm is close to 1: the naive subtraction loses all
    precision once sigm rounds to 1. Used by the bisection oracle and by
    tests; underflows to 0 where the true complement is below double range.
    """
    arr = np.asarray(v, dtype=np.float64)
    _check_finite(arr)
    a = np.abs(arr)
    if kind is TransferKind.VT1:
        # arctan(x) + arctan(1/x) = pi/2 for x > 0
        with np.errstate(divide="ignore"):
            c = (2.0 / np.pi) * np.arctan(2.0 / (np.pi * a))
        c = np.where(a == 0.0, 1.0, c)
    elif kind is TransferKind.VT2:
        lo = np.minimum(a, 1.0)
        inv2 = np.maximum(a, 1.0) ** -2.0
        c = np.where(a <= 1.0, 1.0 / (1.0 + lo * lo), inv2 / (1.0 + inv2))
    elif kind is TransferKind.VT3:
        t = np.exp(-2.0 * a)
        c = 2.0 * t / (1.0 + t)
    elif kind is TransferKind.VT4:
        t = np.exp(-a)
        c = 2.0 * t / (1.0 + t)
    else:  # pragma: no cover
        raise TypeError(f"unknown transfer kind: {kind!r}")
    return float(c) if np.isscalar(v) or arr.ndim == 0 else c


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


def correct_oracle(kind: TransferKind, v: float) -> float:
    """Invert ``sigm(x) = 1 - sigm(v)`` by bracketed bisection.

    Test oracle for the closed forms in :func:`correct`. Bisects on the
    log of the magnitude over |x| in [1e-300, 1e300] until the bracket is
    resolved to full precision (well below 1e-12 both absolutely and
    relatively). Raises :class:`OracleError` when the target cannot be
    bracketed, which signals either a broken closed form or an input whose
    correction lies outside double range.
    """
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("velocity must be finite")
    if v == 0.0:
        raise ValueError("cannot correct a zero velocity")
    a = abs(v)
    sign = 1.0 if v > 0 else -1.0

    # sigm(x) = 1 - sigm(a) has two equivalent float formulations; pick the
    # one whose fixed side is far from 1 so the bisection target keeps full
    # relative precision. For sigm(a) < 0.5 the answer x is large and
    # 1 - sigm(x) is the tiny, well-conditioned quantity; otherwise x is
    # small and sigm(x) itself is well conditioned.
    p = float(sigm(kind, a))
    if p < 0.5:

        def f(u: float) -> float:
            return p - float(sigm_complement(kind, math.exp(u)))

    else:
        target = float(sigm_complement(kind, a))

        def f(u: float) -> float:
            return float(sigm(kind, math.exp(u))) - target

    lo, hi = math.log(1e-300), math.log(1e300)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return sign * math.exp(lo)
    if fhi == 0.0:
        return sign * math.exp(hi)
    if flo > 0.0 or fhi < 0.0:
        raise OracleError(
            f"cannot bracket correction of {kind.value} at v={v!r}"
        )
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return sign * math.exp(0.5 * (lo + hi))
