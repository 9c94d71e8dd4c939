"""Boundary cusps of the upper slice component: parabolic slope parameters.

The slope p/q pinches exactly where its trace hits +-2, i.e. at roots of the
degree-q polynomial t_{p/q}(z) -+ 2.  Coefficients are exact Gaussian
integers (they grow like 10^(q/2), so double-precision companion-matrix
methods die early); roots come from a simultaneous Durand-Kerner iteration
with Newton polishing, finished in mpmath arbitrary precision scaled to the
degree and the coefficient size.  The iteration is deterministic: the
initial configuration is a circle of radius given by the Cauchy bound with
a phase derived from an explicit integer mix of the seed.

That radius reaches 10^4 by q = 10, so most sweeps only walk the estimates
in from the circle.  The same sweeps therefore run first in complex floats,
until the estimates sit at double resolution, and mpmath starts from there;
it then needs about three sweeps at a simple root, against 50-250 from the
circle at q = 10..24.  Where the floats overflow (some slopes from q = 26,
every slope from q = 41) mpmath starts from the circle itself, exactly as
without the float pass.

Repeated roots would stall the iteration: (z^2+z+1)^2 divides
t_{3/10} - 2, (z^2+3z+3)^2 divides t_{7/10} - 2 and (z+1)^3 divides
t_{5/12} - 2 and t_{7/12} - 2.  So before it solves, poly_roots computes
deg gcd(f, f') of f = t_{p/q} -+ 2 modulo one prime; 0 proves that f has
no repeated root, and f is solved as it stands.  Otherwise (14 of the 2522
equations with 0 <= p/q <= 1, q <= 64) it solves the square-free part
f / gcd(f, f'), computed exactly over Q(i), and returns each distinct root
once.  The repeated roots lie at or below Im z = 1 up to q = 24; those of
11/30 and 19/30 (a squared quartic) reach Im z ~ 1.50.
After the sweeps, the Newton polish stops at the first step that moves a
root by less than the sweep tolerance; that is usually the first step.

Only roots above Im z = 1 are candidates: the slice lies in Im z > 1, and
the classifier's integer fan rejects all of |Im z| < sqrt(3) anyway.  Of
these, the one on the upper boundary is picked by probing the classifier
just above and just below the root: above must certify inside, below must
not.  The probe offset is _PROBE_EPS = 1e-3, but the inside margin at a
cusp is of the same order as the probe (at the 1/2 cusp the flat-slope
trace clears 2 by only ~0.87*eps), so the probe escalates through
{eps, 4 eps, 16 eps, 64 eps} and takes the first rung with any passer.
Escalation or multiple passers mark the result as flagged; ties break to
lexicographic max of (Im, Re).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import mpmath as mp

from .classify import ClassifierConfig, Verdict, classify_point
from .farey import FareySlope, TracePolynomial, trace_polynomial

# The boundary probe's offset and its escalation (see the module docstring).
_PROBE_EPS = 1e-3
_PROBE_LADDER = (1.0, 4.0, 16.0, 64.0)

# Durand-Kerner sweeps allowed to each pass, float and mpmath.
_MAX_SWEEPS = 400

# A float sweep whose largest step is below sqrt(eps) leaves estimates at
# double resolution (Durand-Kerner converges quadratically at simple roots),
# so further float sweeps only stall in rounding noise.
_FLOAT_STALL = 2.0**-26

# The repeated-root check works in F_P for this prime P.  P = 5 (mod 8), so
# 2 is not a square mod P and 2^((P-1)/4) is a square root of -1: i maps to
# it and Z[i] maps onto F_P.
_P = 2**64 - 59
_I_MOD_P = pow(2, (_P - 1) // 4, _P)


class RootSolveError(RuntimeError):
    """Simultaneous iteration failed to settle; carries the estimates."""

    def __init__(self, message, estimates):
        super().__init__(message)
        self.estimates = list(estimates)


class BoundaryCuspError(RuntimeError):
    """No root passed the boundary probe; carries every root found."""

    def __init__(self, message, all_roots):
        super().__init__(message)
        self.all_roots = list(all_roots)


@dataclass(frozen=True)
class CuspResult:
    slope: FareySlope
    z: complex
    all_roots: tuple[complex, ...]
    residual: float
    flagged: bool = False


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sweeps(monic, xs, tol) -> bool:
    """Durand-Kerner sweeps on xs, in place, in whatever arithmetic the
    arguments carry (complex or mpmath).  True once a sweep moves no
    estimate by tol or more; False if _MAX_SWEEPS sweeps run out first."""
    n = len(xs)
    for _ in range(_MAX_SWEEPS):
        shift = 0
        for k in range(n):
            xk = xs[k]
            denom = 1
            for j in range(n):
                if j != k:
                    denom *= xk - xs[j]
            step = _horner(monic, xk) / denom
            xs[k] = xk - step
            s = abs(step)
            if s > shift:
                shift = s
        if shift < tol:
            return True
    return False


def _rem_mod_p(a, b):
    """Remainder of a by b in F_P[z]: coefficient lists, constant term
    first, b[-1] != 0.  Trailing zeros are stripped (zero is [])."""
    a = list(a)
    m = len(b) - 1
    inv = pow(b[-1], -1, _P)
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k] * inv % _P
        if c:
            for j in range(m):
                a[k - m + j] = (a[k - m + j] - c * b[j]) % _P
    del a[m:]
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_degree_mod_p(f) -> int | None:
    """deg gcd(f, f') in F_P[z] for Gaussian-integer coefficients f
    (constant term first), or None if P divides the leading coefficient.

    0 proves that f has no repeated complex root: the resultant of f and f'
    is a Gaussian integer, and its image under the ring map i -> _I_MOD_P
    is the resultant of the images, which is non-zero when they are coprime
    and f keeps its degree (f' does too, since deg f < P).
    """
    a = [(re + im * _I_MOD_P) % _P for re, im in f]
    if a[-1] == 0:
        return None
    b = [k * c % _P for k, c in enumerate(a)][1:]
    while b:
        a, b = b, _rem_mod_p(a, b)
    return len(a) - 1


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


def _dk_roots(coeffs, target: int, seed: int) -> list[complex]:
    """Durand-Kerner roots of sum(coeffs[k] z^k) - target, then polished."""
    n = len(coeffs) - 1
    coeff_digits = max(len(str(abs(re))) + len(str(abs(im))) for re, im in coeffs)
    with mp.workdps(max(40, 20 + n + coeff_digits)):
        coeffs = [mp.mpc(re, im) for re, im in coeffs]
        coeffs[0] -= target
        lead = coeffs[-1]
        monic = [c / lead for c in coeffs]
        radius = 1 + max(abs(c) for c in monic[:-1])
        # phase offset keeps the start set off the real axis and off any
        # root-symmetry axis; mixed from the seed for reproducibility
        phase = 0.37 + 0.11 * ((seed * 2654435761 + 1) % 997) / 997.0
        circle = [
            radius * mp.expjpi(2 * (k + phase) / n) for k in range(n)
        ]
        # the float pass walks in from the circle at a fraction of the
        # mpmath cost; its finite estimates are exact mpmath starts.  A NaN
        # step never raises the shift, so a pass that overflows ends early.
        floats = [complex(x) for x in circle]
        _sweeps([complex(c) for c in monic], floats, _FLOAT_STALL)
        xs = (
            [mp.mpc(x) for x in floats]
            if all(cmath.isfinite(x) for x in floats)
            else circle
        )
        tol = mp.mpf(10) ** (-(mp.mp.dps - 8))
        if not _sweeps(monic, xs, tol):
            raise RootSolveError(
                f"root iteration did not converge within {_MAX_SWEEPS} sweeps",
                [complex(x) for x in xs],
            )
        # Newton polish against the original (non-monic) polynomial, until
        # a step is below the sweep tolerance (the first one usually is)
        deriv = [k * coeffs[k] for k in range(1, n + 1)]
        for k in range(n):
            x = xs[k]
            for _ in range(4):
                d = _horner(deriv, x)
                if d == 0:
                    break
                step = _horner(coeffs, x) / d
                x = x - step
                if abs(step) < tol:
                    break
            xs[k] = x
        return [complex(x) for x in xs]


def poly_roots(poly: TracePolynomial, target: int, *, seed: int = 0) -> list[complex]:
    """The distinct roots of poly(z) - target, sorted by (Re, Im) rounded to
    9 places.  target must be an integer (an integral float is accepted).

    f = poly - target is first checked for a repeated root: deg gcd(f, f')
    over F_P, P = 2^64 - 59, is 0 for almost every f.  Otherwise f is
    replaced by its square-free part f / gcd(f, f'), computed exactly over
    Q(i), so a root of multiplicity m is returned once.

    Durand-Kerner then runs twice from the seeded circle: in complex floats
    until a sweep moves no estimate by _FLOAT_STALL (or 400 sweeps),
    then in mpmath from those estimates -- from the circle itself if the
    floats overflowed -- until a sweep moves no estimate by
    tol = 10^-(dps-8), with dps >= 40.  Each estimate then takes Newton
    steps against the exact polynomial, at most four and none after one
    that moves it by less than tol, and is rounded to complex.
    Deterministic for a fixed seed.  Raises RootSolveError (carrying the
    current estimates) if the mpmath pass does not converge within
    400 sweeps.
    """
    if poly.degree < 1:
        raise ValueError("degree >= 1 required")
    if isinstance(target, float) and target.is_integer():
        target = int(target)
    if not isinstance(target, int):
        raise ValueError(f"target must be an integer, got {target!r}")
    (c0r, c0i), *rest = poly.coeffs
    f = [(c0r - target, c0i), *rest]
    # without a repeated root, poly and target go to the solver as they are,
    # so its working precision and every rounding step stay as they were
    coeffs, shift = poly.coeffs, target
    if _gcd_degree_mod_p(f) != 0:
        g = _exact_gcd(f)
        if len(g) > 1:
            coeffs, shift = _primitive(_pseudo_divmod(f, g)[0]), 0
    roots = _dk_roots(coeffs, shift, seed)
    roots.sort(key=lambda r: (round(r.real, 9), round(r.imag, 9)))
    return roots


def cusp_point(
    s: FareySlope, cfg: ClassifierConfig | None = None, *, seed: int = 0
) -> CuspResult:
    """The boundary representative of the slope's parabolic locus.

    Solves t_{p/q} = +2 and -2, keeps the roots above Im z = 1, and filters
    by the classifier probe described in the module docstring.
    """
    if cfg is None:
        cfg = ClassifierConfig()
    if s.q < 1:
        raise ValueError("slope 1/0 is parabolic for every z; no cusp to locate")
    poly = trace_polynomial(s)
    all_roots = tuple(
        poly_roots(poly, 2, seed=seed) + poly_roots(poly, -2, seed=seed)
    )
    upper = [r for r in all_roots if r.imag > 1]
    passers: list[complex] = []
    for rung in _PROBE_LADDER:
        eps = _PROBE_EPS * rung
        passers = [
            r
            for r in upper
            if classify_point(complex(r.real, r.imag + eps), cfg).verdict
            is Verdict.INSIDE_PLUS
            and classify_point(complex(r.real, r.imag - eps), cfg).verdict
            is not Verdict.INSIDE_PLUS
        ]
        if passers:
            break
    if not passers:
        raise BoundaryCuspError("no boundary representative found", all_roots)
    z = max(passers, key=lambda r: (r.imag, r.real))
    flagged = len(passers) > 1 or rung != _PROBE_LADDER[0]
    # residual from the exact polynomial at the (double-precision) root
    with mp.workdps(60):
        t = _horner([mp.mpc(re, im) for re, im in poly.coeffs], mp.mpc(z))
        residual = float(abs(t * t - 4))
    return CuspResult(slope=s, z=z, all_roots=all_roots, residual=residual, flagged=flagged)
