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

Repeated roots defeat the iteration: (z^2+z+1)^2 divides t_{3/10} - 2 and
(z^2+3z+3)^2 divides t_{7/10} - 2, so those solves raise RootSolveError and
their table rows fail.  The double roots -1/2 +- i sqrt(3)/2 and
-3/2 +- i sqrt(3)/2 lie below Im z = 1, so neither is the cusp.  The same
holds for 5/12 and 7/12, where (z+1)^3 divides t_{p/q} - 2.

Of the 2q roots, the one on the upper boundary is picked by probing the
classifier just above and just below the root: above must certify inside,
below must not.  The default probe offset equals boundary_tol, but with the
default config the inside margin at a cusp is of the same order as the
probe (at the 1/2 cusp the flat-slope trace clears 2 by only ~0.87*eps), so
the probe escalates through {tol, 4 tol, 16 tol, 64 tol} and takes the first
rung with any passer.  Escalation or multiple passers mark the result as
flagged; ties break to lexicographic max of (Im, Re).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import mpmath as mp

from .classify import ClassifierConfig, Verdict, classify_point
from .farey import FareySlope, TracePolynomial, trace_polynomial

_PROBE_LADDER = (1.0, 4.0, 16.0, 64.0)

# A float sweep whose largest step is below sqrt(eps) leaves estimates at
# double resolution (Durand-Kerner converges quadratically at simple roots),
# so further float sweeps only stall in rounding noise.
_FLOAT_STALL = 2.0**-26


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


def _mp_coeffs(poly: TracePolynomial, target: int):
    coeffs = [mp.mpc(re, im) for re, im in poly.coeffs]
    coeffs[0] -= target
    return coeffs


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sweeps(monic, xs, tol, max_iter) -> bool:
    """Durand-Kerner sweeps on xs, in place, in whatever arithmetic the
    arguments carry (complex or mpmath).  True once a sweep moves no
    estimate by tol or more; False if max_iter sweeps run out first."""
    n = len(xs)
    for _ in range(max_iter):
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


def poly_roots(
    poly: TracePolynomial, target: int, *, seed: int = 0, max_iter: int = 400
) -> list[complex]:
    """All roots of poly(z) - target, sorted by (Re, Im) rounded to 9 places.

    Durand-Kerner runs twice from the seeded circle: in complex floats
    until a sweep moves no estimate by _FLOAT_STALL (or max_iter sweeps),
    then in mpmath from those estimates -- from the circle itself if the
    floats overflowed -- until a sweep moves no estimate by 10^-(dps-8),
    with dps >= 40.  Each estimate then takes four Newton steps against the
    exact polynomial and is rounded to complex.  Deterministic for a fixed
    seed.  Raises RootSolveError (carrying the current estimates) if the
    mpmath pass does not converge within max_iter sweeps, as happens at
    repeated roots.
    """
    if poly.degree < 1:
        raise ValueError("degree >= 1 required")
    n = poly.degree
    coeff_digits = max(
        len(str(abs(re))) + len(str(abs(im))) for re, im in poly.coeffs
    )
    with mp.workdps(max(40, 20 + n + coeff_digits)):
        coeffs = _mp_coeffs(poly, target)
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
        _sweeps([complex(c) for c in monic], floats, _FLOAT_STALL, max_iter)
        xs = (
            [mp.mpc(x) for x in floats]
            if all(cmath.isfinite(x) for x in floats)
            else circle
        )
        tol = mp.mpf(10) ** (-(mp.mp.dps - 8))
        if not _sweeps(monic, xs, tol, max_iter):
            raise RootSolveError(
                f"root iteration did not converge within {max_iter} sweeps",
                [complex(x) for x in xs],
            )
        # Newton polish against the original (non-monic) polynomial
        deriv = [k * coeffs[k] for k in range(1, n + 1)]
        for k in range(n):
            x = xs[k]
            for _ in range(4):
                d = _horner(deriv, x)
                if d == 0:
                    break
                x = x - _horner(coeffs, x) / d
            xs[k] = x
        roots = [complex(x) for x in xs]
    roots.sort(key=lambda r: (round(r.real, 9), round(r.imag, 9)))
    return roots


def cusp_point(
    s: FareySlope, cfg: ClassifierConfig | None = None, *, seed: int = 0
) -> CuspResult:
    """The boundary representative of the slope's parabolic locus.

    Solves t_{p/q} = +2 and -2, keeps upper-half-plane roots, and filters by
    the classifier probe described in the module docstring.
    """
    if cfg is None:
        cfg = ClassifierConfig()
    if s.q < 1:
        raise ValueError("slope 1/0 is parabolic for every z; no cusp to locate")
    poly = trace_polynomial(s)
    all_roots = tuple(
        poly_roots(poly, 2, seed=seed) + poly_roots(poly, -2, seed=seed)
    )
    upper = [r for r in all_roots if r.imag > 0]
    passers: list[complex] = []
    used_eps = cfg.boundary_tol
    for rung in _PROBE_LADDER:
        eps = cfg.boundary_tol * rung
        passers = [
            r
            for r in upper
            if classify_point(complex(r.real, r.imag + eps), cfg).verdict
            is Verdict.INSIDE_PLUS
            and classify_point(complex(r.real, r.imag - eps), cfg).verdict
            is not Verdict.INSIDE_PLUS
        ]
        if passers:
            used_eps = eps
            break
    if not passers:
        raise BoundaryCuspError("no boundary representative found", all_roots)
    z = max(passers, key=lambda r: (r.imag, r.real))
    flagged = len(passers) > 1 or used_eps != cfg.boundary_tol
    # residual from the exact polynomial at the (double-precision) root
    with mp.workdps(60):
        t = _horner([mp.mpc(re, im) for re, im in poly.coeffs], mp.mpc(z))
        residual = float(abs(t * t - 4))
    return CuspResult(slope=s, z=z, all_roots=all_roots, residual=residual, flagged=flagged)
