"""Boundary cusps of the upper slice component: parabolic slope parameters.

The slope p/q pinches where its trace t_{p/q} hits +-2, and the cusp on the
boundary of M+ is found without solving for all 2q such points.  By
Keen-Series (Topology 32, 1993) the p/q cusp is the end of the p/q pleating
ray: the branch of t_{p/q}^{-1}(R) with |t| > 2 that is asymptotic to
Re z = -2p/q and runs down to t = +-2.  Wright (Searching for the cusp, LMS
Lecture Notes 329, 2006) locates cusps the same way.

pleating_ray follows that branch in complex floats.  It carries the jet
(t, dt/dz) through the slope's schedule of the Farey recursion (farey._fill,
recorded once per call), with

    (a, a')(b, b') - (d, d') = (ab - d, a'b + ab' - d').

It starts at z = -2p/q + i(2 + q/2), Newton-projects onto t = Re t, and
then asks for t = +-(2 + u) as u shrinks, down to t = +-2.  Each point is a
Newton solve of log t(z) = log c from the point before, whose jet it
reuses: the log makes the Newton step scale-free where t ~ z^q is large.
A step is accepted only if Newton converges, each of its steps at most
half the one before, and the chord turns from the curve's tangent at both
ends (-t/t', the direction of falling |t|) by less than _MAX_TURN;
otherwise the step in log u is halved.  Guards: t is real to _REAL_TOL at
every accepted point, the step does not stall, and the end lies above
Im z = 1.  A failed guard raises BoundaryCuspError with its reason.

cusp_point takes the end of the ray one Newton step further, in exact
rational arithmetic with trace_polynomial's Gaussian-integer coefficients
at the float end's exact value, and rounds each component once.  The step
leaves an error of order the square of the float end's.  Correct rounding
is checked against 60-digit roots for q <= 16, and every row with q <= 64
is pinned byte for byte; above q = 16 it rests on that quadratic
convergence.  Given the cusp of (q-p)/q, cusp_point steps from its mirror
image instead of a ray's end, and those rows rest on the same argument and
pin.  The residual |t^2 - 4| is computed exactly at the rounded cusp, then
rounded.  A result is flagged when the classifier does not certify
INSIDE_PLUS at z + i*_PROBE_EPS, a point that Keen-Series puts in M+: that
is the classifier's shortfall, not the cusp's.

poly_roots, the all-roots solver, stays as an independent check of the
cusps.  It takes numpy's estimates of every root (np.roots, the
eigenvalues of the companion matrix) and steps each with the same exact
Newton step, until a step returns its own input.  A root is that fixed
point, so it depends on numpy only through which root an estimate lands
on.  On a root on the real or the imaginary axis, the other component
comes out 0 or below 1e-30 in size, not always exactly 0: the float
estimate's rounding leaves a second-order term there.

Repeated roots would stall Newton: (z^2+z+1)^2 divides t_{3/10} - 2,
(z^2+3z+3)^2 divides t_{7/10} - 2 and (z+1)^3 divides t_{5/12} - 2 and
t_{7/12} - 2.  So before it solves, poly_roots computes gcd(f, f') of
f = t_{p/q} -+ 2 exactly over Q(i).  Where it has degree 0, f has no
repeated root and is solved as it stands; otherwise (14 of the 2522
equations with 0 <= p/q <= 1, q <= 64) poly_roots solves the square-free
part f / gcd(f, f') and returns each distinct root once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .classify import Verdict, classify_point
from .farey import FareySlope, TracePolynomial, _fill, trace_polynomial

# Height above the cusp of the one classifier call behind CuspResult.flagged.
_PROBE_EPS = 1e-3

# Continuation control (see the module docstring).  u shrinks by _SHRINK at
# the first step; a step that is accepted squares the factor, down to
# _MIN_SHRINK, and a step that fails takes its square root.  Below
# _U_END the next target is t = +-2 itself.  A factor above _STALL means
# the step in log u has been halved at least 10 times in a row.
_SHRINK = 0.5
_MIN_SHRINK = 1e-6
_STALL = 0.999
_U_END = 1e-3
_MAX_TURN = 0.2
_REAL_TOL = 1e-9

# A Newton solve converges when its step is below _CONVERGED |z| (4 ulps)
# within _NEWTON_STEPS steps, each at most half the one before.
_CONVERGED = 2.0**-50
_NEWTON_STEPS = 8

# Exact Newton steps allowed to reach a fixed point from each np.roots
# estimate; from starts 1e-9 off, every root with q <= 16 took at most 22.
_REFINE_STEPS = 32


class RootSolveError(RuntimeError):
    """poly_roots could not take every estimate to its own root."""


class BoundaryCuspError(RuntimeError):
    """The pleating-ray continuation failed a guard; the message says which."""


@dataclass(frozen=True)
class CuspResult:
    slope: FareySlope
    z: complex
    residual: float
    flagged: bool = False


class _Slot:
    """A trace as its slot number while _fill runs on a table of slots:
    t_l * t_r - t_d appends the step (l, r, d) to the shared list and
    returns the next slot.  The four root slopes hold slots 0-3."""

    def __init__(self, n, steps):
        self.n, self.steps = n, steps

    def __mul__(self, other):
        return self.n, other.n

    def __rsub__(self, product):
        self.steps.append((*product, self.n))
        return _Slot(3 + len(self.steps), self.steps)


def _schedule(s: FareySlope):
    """The Farey-recursion steps that build t_{p/q} from the root slopes,
    in order, and the slot that ends up holding t_{p/q}."""
    steps: list[tuple[int, int, int]] = []
    table = {k: _Slot(n, steps) for n, k in enumerate(((0, 1), (1, 0), (1, 1), (-1, 1)))}
    out = _fill(table, (s.p, s.q)).n
    return steps, out


def _jet(schedule, z: complex) -> tuple[complex, complex]:
    """(t_{p/q}(z), t'_{p/q}(z)) in complex floats, by the schedule."""
    steps, out = schedule
    t = [1j * z, 2.0, 1j * (z + 2), 1j * (z - 2)]
    dt = [1j, 0.0, 1j, 1j]
    for l, r, d in steps:
        a, b = t[l], t[r]
        t.append(a * b - t[d])
        dt.append(dt[l] * b + a * dt[r] - dt[d])
    return t[out], dt[out]


def _solve(schedule, start, c: float):
    """Newton for log t(z) = log c from start = (z, t(z), t'(z)): (z, t, t')
    at the solution, or None if Newton does not contract from z or leaves
    the finite numbers.  The jet is evaluated only at new iterates."""
    z, t, dt = start
    prev = math.inf
    for k in range(_NEWTON_STEPS):
        if k:
            t, dt = _jet(schedule, z)
        if not (t and dt and cmath.isfinite(t) and cmath.isfinite(dt)):
            return None
        step = cmath.log(t / c) * t / dt
        size = abs(step)
        if size <= _CONVERGED * abs(z):
            return z, t, dt
        if not size < 0.5 * prev:
            return None
        z -= step
        prev = size
    return None


def _along(chord: complex, tangent: complex) -> bool:
    """The chord turns from the tangent by less than _MAX_TURN."""
    return (chord * tangent.conjugate()).real >= math.cos(_MAX_TURN) * abs(chord) * abs(tangent)


def pleating_ray(s: FareySlope) -> list[complex]:
    """Points of the p/q pleating ray, from Im z ~ 2 + q/2 down to its end at
    t_{p/q} = +-2 (the last point, in floats); see the module docstring.

    Every point has t_{p/q} real (to _REAL_TOL relative) with |t| >= 2,
    the last one to rounding.  Each Newton solve starts from the jet of
    the point accepted before it, so no jet is evaluated twice.
    Raises BoundaryCuspError, with the reason, when a guard fails.
    """
    if s.q < 1:
        raise ValueError("slope 1/0 is parabolic for every z; no cusp to locate")
    schedule = _schedule(s)
    z = complex(-2 * s.p / s.q, 2 + s.q / 2)
    t, dt = _jet(schedule, z)
    if not (cmath.isfinite(t) and abs(t.real) > 2):
        raise BoundaryCuspError(f"{s}: trace {t!r} at the start {z!r} has |Re t| <= 2")
    sign = math.copysign(1.0, t.real)
    u = abs(t.real) - 2
    hit = _solve(schedule, (z, t, dt), t.real)
    if hit is None:
        raise BoundaryCuspError(f"{s}: no Newton projection from {z!r} onto t = {t.real!r}")
    path = []
    shrink = _SHRINK
    while True:
        z, t, dt = hit
        if abs(t.imag) > _REAL_TOL * abs(t):
            raise BoundaryCuspError(f"{s}: trace {t!r} at {z!r} is not real")
        path.append(z)
        if u == 0:
            break
        tangent = -t / dt
        while True:
            target = u * shrink if u * shrink >= _U_END else 0.0
            hit = _solve(schedule, (z, t, dt), sign * (2 + target))
            if hit is not None and _along(hit[0] - z, tangent) and _along(
                hit[0] - z, -hit[1] / hit[2]
            ):
                break
            shrink = math.sqrt(shrink)
            if shrink > _STALL:
                raise BoundaryCuspError(
                    f"{s}: continuation stalled at {z!r}, t = {sign * (2 + u)!r}"
                )
        u = target
        shrink = max(shrink * shrink, _MIN_SHRINK)
    if not z.imag > 1:
        raise BoundaryCuspError(f"{s}: the ray ends at {z!r}, not above Im z = 1")
    return path


def _exact_jet(coeffs, z: complex):
    """t and t' of sum(coeffs[k] z^k) at the exact value of the float z.

    Returns (w, D, T, T1) with Gaussian integers as (re, im) pairs:
    z = w / D for a power of two D, t = T / D^n and t' = T1 / D^(n-1),
    n the degree.
    """
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(xd, yd)
    a, b = xn * (den // xd), yn * (den // yd)
    n = len(coeffs) - 1
    tr, ti = coeffs[n]
    dr, di = n * tr, n * ti
    scale = 1
    for k in range(n - 1, -1, -1):
        scale *= den
        cr, ci = coeffs[k]
        tr, ti = tr * a - ti * b + cr * scale, tr * b + ti * a + ci * scale
        if k:
            dr, di = dr * a - di * b + k * cr * scale, dr * b + di * a + k * ci * scale
    return (a, b), den, (tr, ti), (dr, di)


def _exact_newton(coeffs, z: complex, target: int) -> complex:
    """One Newton step for sum(coeffs[k] z^k) = target from the exact value
    of z, each component of the result rounded once.  Raises
    ZeroDivisionError where t' vanishes and OverflowError where the result
    leaves the doubles."""
    (a, b), den, (tr, ti), (dr, di) = _exact_jet(coeffs, z)
    # z - (t - target) / t' = M / (den T1) with M = w T1 - T + target den^n
    mr = a * dr - b * di - tr + target * den ** (len(coeffs) - 1)
    mi = a * di + b * dr - ti
    norm = den * (dr * dr + di * di)
    return complex((mr * dr + mi * di) / norm, (mi * dr - mr * di) / norm)


def _exact_residual(coeffs, z: complex) -> float:
    """|t^2 - 4| at the exact value of z; each part rounded once."""
    _, den, (tr, ti), _ = _exact_jet(coeffs, z)
    top = den ** (2 * (len(coeffs) - 1))
    return math.hypot((tr * tr - ti * ti - 4 * top) / top, 2 * tr * ti / top)


def cusp_point(s: FareySlope, mirror: CuspResult | None = None) -> CuspResult:
    """The p/q boundary cusp of M+: the end of pleating_ray(s), taken one
    exact Newton step further on t_{p/q} = +-2 and rounded once per
    component.  The flag is the default classifier's.

    The reflection z -> -conj(z) - 2 carries the p/q ray onto the (q-p)/q
    ray: t_{(q-p)/q}(-conj(z) - 2) = conj(t_{p/q}(z)), exactly, for the
    trace polynomials.  Given mirror, the result for (q-p)/q, the exact
    step starts from the reflection of mirror.z and no ray is followed;
    the residual and the flag are still this slope's own.  A mirror of any
    other slope raises ValueError.

    Raises BoundaryCuspError when the continuation fails a guard.
    """
    if mirror is None:
        end = pleating_ray(s)[-1]
    elif mirror.slope == FareySlope(s.q - s.p, s.q):
        end = complex(-mirror.z.real - 2.0, mirror.z.imag)
    else:
        raise ValueError(f"{s}: {mirror.slope} is not its mirror slope")
    coeffs = trace_polynomial(s).coeffs
    # t_{p/q} has the leading term (iz)^q, so Re t has the sign of (-1)^q
    # far up the ray, and keeps it down to the end, as |t| >= 2 throughout
    target = -2 if s.q % 2 else 2
    try:
        z = _exact_newton(coeffs, end, target)
    except ZeroDivisionError:
        raise BoundaryCuspError(f"{s}: t' vanishes at the ray's end {end!r}") from None
    above = classify_point(complex(z.real, z.imag + _PROBE_EPS)).verdict
    return CuspResult(
        slope=s,
        z=z,
        residual=_exact_residual(coeffs, z),
        flagged=above is not Verdict.INSIDE_PLUS,
    )


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ggcd(a, b):
    """gcd in Z[i], by Euclid with quotients rounded to the nearest."""
    while b != (0, 0):
        n = b[0] * b[0] + b[1] * b[1]
        xr, xi = _gmul(a, (b[0], -b[1]))
        qr, qi = _gmul(((2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n)), b)
        a, b = b, (a[0] - qr, a[1] - qi)
    return a


def _primitive(a):
    """a with trailing zeros stripped and divided by the gcd in Z[i] of its
    coefficients; a must not be zero."""
    while a[-1] == (0, 0):
        a = a[:-1]
    g = (0, 0)
    for c in a:
        g = _ggcd(c, g)
    n = g[0] * g[0] + g[1] * g[1]
    return [(re // n, im // n) for re, im in (_gmul(c, (g[0], -g[1])) for c in a)]


def _pseudo_divmod(a, b):
    """(quotient, remainder) in Z[i][z] with
    lc(b)^(deg a - deg b + 1) * a = quotient * b + remainder."""
    m = len(b) - 1
    lc = b[-1]
    r = list(a)
    quot = [(0, 0)] * (len(a) - m)
    for k in range(len(a) - 1 - m, -1, -1):
        c = r[k + m]
        r = [_gmul(lc, x) for x in r]
        quot = [_gmul(lc, x) for x in quot]
        quot[k] = c
        for j, bj in enumerate(b):
            tr, ti = _gmul(c, bj)
            rr, ri = r[k + j]
            r[k + j] = (rr - tr, ri - ti)
    return quot, r[:m]


def _exact_gcd(f):
    """gcd(f, f') over Q(i) by the primitive pseudo-remainder sequence,
    scaled to Gaussian-integer coefficients; [(1, 0)] when coprime."""
    a, b = f, _primitive([(k * re, k * im) for k, (re, im) in enumerate(f)][1:])
    while len(b) > 1:
        _, r = _pseudo_divmod(a, b)
        if all(x == (0, 0) for x in r):
            return b
        a, b = b, _primitive(r)
    return [(1, 0)]


def _refined(coeffs, z: complex) -> complex:
    """The fixed point of _exact_newton for sum(coeffs[k] z^k) = 0 reached
    from z within _REFINE_STEPS steps; RootSolveError otherwise."""
    for _ in range(_REFINE_STEPS):
        try:
            step = _exact_newton(coeffs, z, 0)
        except (ZeroDivisionError, OverflowError) as exc:
            raise RootSolveError(f"exact Newton step from {z!r} failed: {exc}") from None
        if step == z:
            return z
        z = step
    raise RootSolveError(f"no fixed point of the exact Newton step near {z!r}")


def poly_roots(poly: TracePolynomial, target: int) -> list[complex]:
    """The distinct roots of poly(z) - target, sorted by (Re, Im) rounded to
    9 places.  target must be an integer (an integral float is accepted).

    f = poly - target is first checked for a repeated root: gcd(f, f') is
    computed exactly over Q(i), and where its degree is at least 1, f is
    replaced by its square-free part f / gcd(f, f'), so a root of
    multiplicity m is returned once.

    Each of np.roots' estimates for f then takes exact Newton steps, each
    rounded once per component, until a step returns its own input (at
    most 32 steps).  A root is that fixed point, whichever estimate
    reached it.  On a root on the real or the imaginary axis, the other
    component is 0 or below 1e-30 in size.  Raises RootSolveError if an
    estimate reaches no fixed point, a step divides by zero or leaves the
    doubles, or two estimates reach the same root.  Measured: it raises on
    1,740 of the 2,522 equations t_{p/q} = +-2 with 0 <= p/q <= 1 and
    q <= 64, the first at q = 26 (21/26, target -2): 1,243 reach no fixed
    point and 497 reach the same root twice.  Every one with q <= 24
    solves.  cusp_point follows pleating rays instead.
    """
    if poly.degree < 1:
        raise ValueError("degree >= 1 required")
    if isinstance(target, float) and target.is_integer():
        target = int(target)
    if not isinstance(target, int):
        raise ValueError(f"target must be an integer, got {target!r}")
    (c0r, c0i), *rest = poly.coeffs
    f = [(c0r - target, c0i), *rest]
    g = _exact_gcd(f)
    if len(g) > 1:
        f = _primitive(_pseudo_divmod(f, g)[0])
    estimates = np.roots([complex(re, im) for re, im in reversed(f)])
    roots = [_refined(f, complex(x)) for x in estimates]
    if len(set(roots)) < len(roots):
        raise RootSolveError("two estimates reached the same root")
    roots.sort(key=lambda r: (round(r.real, 9), round(r.imag, 9)))
    return roots
