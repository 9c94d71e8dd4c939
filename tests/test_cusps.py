"""Root solver against the numpy oracle, and boundary-cusp location."""

import math

import mpmath as mp
import numpy as np
import pytest

from maskit.classify import ClassifierConfig
from maskit.cusps import (
    BoundaryCuspError,
    CuspResult,
    RootSolveError,
    cusp_point,
    poly_roots,
)
from maskit.farey import FareySlope, TracePolynomial, slopes_up_to, trace_polynomial

_SQRT3 = math.sqrt(3.0)


def _numpy_roots(poly, target):
    # independent root oracle: numpy's companion-matrix eigenvalues on
    # poly(z) - target, highest-degree coefficient first
    coeffs = [complex(re, im) for re, im in poly.coeffs]
    coeffs[0] -= target
    return sorted(np.roots(list(reversed(coeffs))), key=lambda r: (r.real, r.imag))


def _match_sets(a, b, tol):
    assert len(a) == len(b)
    unused = list(b)
    for x in a:
        best = min(unused, key=lambda y: abs(x - y))
        assert abs(x - best) < tol, f"{x} vs {best}"
        unused.remove(best)


def test_poly_roots_against_numpy():
    for p, q in ((1, 2), (1, 3), (2, 5), (3, 7), (1, 8)):
        poly = trace_polynomial(FareySlope(p, q))
        for target in (2.0, -2.0):
            got = poly_roots(poly, target)
            want = _numpy_roots(poly, target)
            assert len(got) == q
            _match_sets(got, want, 1e-9)


# t_{p/q} - 2 has a double root at these slopes (see the divisibility test)
_REPEATED_ROOTS = {(3, 10, 2), (7, 10, 2)}


def _mpmath_roots(poly, target):
    # second oracle, to the last bit: mpmath's own polynomial root finder at
    # 60 digits, far beyond double precision
    with mp.workdps(60):
        coeffs = [mp.mpc(re, im) for re, im in reversed(poly.coeffs)]
        coeffs[-1] -= target
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=60)
        return [complex(r) for r in roots]


def _same_bits(x: float, y: float) -> bool:
    # a component below 1e-30 is rounding noise on an exact zero (real roots)
    return x == y or (abs(x) < 1e-30 and abs(y) < 1e-30)


def test_poly_roots_match_mpmath_to_the_last_bit():
    for s in slopes_up_to(10, 0.0, 1.0):
        poly = trace_polynomial(s)
        for target in (2, -2):
            if (s.p, s.q, target) in _REPEATED_ROOTS:
                continue
            want = _mpmath_roots(poly, target)
            for seed in (0, 99):
                got = poly_roots(poly, target, seed=seed)
                assert len(got) == len(want) == s.q
                unused = list(want)
                for x in got:
                    y = min(unused, key=lambda r: abs(x - r))
                    unused.remove(y)
                    assert _same_bits(x.real, y.real) and _same_bits(x.imag, y.imag), (
                        f"{s} at {target:+d}, seed {seed}: {x!r} vs {y!r}"
                    )


def _remainder(num, den):
    # remainder of Gaussian-integer polynomial long division by a monic
    # divisor; coefficient lists run from the constant term up
    num = [list(c) for c in num]
    m = len(den) - 1
    for k in range(len(num) - 1 - m, -1, -1):
        cr, ci = num[k + m]
        for j, (dr, di) in enumerate(den):
            num[k + j][0] -= cr * dr - ci * di
            num[k + j][1] -= cr * di + ci * dr
    return [tuple(c) for c in num[:m]]


def test_repeated_roots_are_a_known_root_solve_failure():
    # (z^2+z+1)^2 | t_{3/10} - 2 and (z^2+3z+3)^2 | t_{7/10} - 2, exactly;
    # the double roots -1/2 +- i sqrt(3)/2 and -3/2 +- i sqrt(3)/2 all lie
    # below Im z = 1, so neither is the boundary cusp of its slope
    for p, quadratic, centre in (
        (3, ((1, 0), (1, 0), (1, 0)), -0.5),
        (7, ((3, 0), (3, 0), (1, 0)), -1.5),
    ):
        poly = trace_polynomial(FareySlope(p, 10))
        (c0r, c0i), *rest = poly.coeffs
        square = (TracePolynomial(quadratic) * TracePolynomial(quadratic)).coeffs
        assert _remainder([(c0r - 2, c0i), *rest], square) == [(0, 0)] * 4
        with pytest.raises(RootSolveError, match="did not converge") as err:
            poly_roots(poly, 2)
        estimates = err.value.estimates
        assert len(estimates) == 10
        for root in (complex(centre, _SQRT3 / 2), complex(centre, -_SQRT3 / 2)):
            near = [x for x in estimates if abs(x - root) < 1e-6]
            assert len(near) == 2, (p, root, estimates)
    # the q = 12 rows fail the same way: (z+1)^3 | t_{5/12} - 2 and
    # t_{7/12} - 2, a triple root on the real axis
    cube = ((1, 0), (3, 0), (3, 0), (1, 0))
    for p in (5, 7):
        (c0r, c0i), *rest = trace_polynomial(FareySlope(p, 12)).coeffs
        assert _remainder([(c0r - 2, c0i), *rest], cube) == [(0, 0)] * 3


def test_poly_roots_rejects_constants():
    with pytest.raises(ValueError, match="degree >= 1"):
        poly_roots(TracePolynomial(((2, 0),)), 2.0)


def test_poly_roots_seed_determinism():
    poly = trace_polynomial(FareySlope(2, 5))
    a = poly_roots(poly, 2.0, seed=0)
    b = poly_roots(poly, 2.0, seed=0)
    assert a == b
    c = poly_roots(poly, 2.0, seed=99)
    _match_sets(a, c, 1e-9)


def test_cusp_fixture_zero_slope():
    res = cusp_point(FareySlope(0, 1))
    assert abs(res.z - 2j) < 1e-9
    assert res.residual < 1e-9
    assert not res.flagged


def test_cusp_fixture_one_slope():
    res = cusp_point(FareySlope(1, 1))
    assert abs(res.z - (-2 + 2j)) < 1e-9


def test_cusp_fixture_half_slope():
    res = cusp_point(FareySlope(1, 2))
    assert abs(res.z - complex(-1.0, _SQRT3)) < 1e-9
    assert res.residual < 1e-9


def test_half_slope_root_set():
    # the parabolic equation for slope 1/2 over both trace targets has
    # exactly the four solutions 0, -2, -1 +/- i*sqrt(3)
    res = cusp_point(FareySlope(1, 2))
    want = [0.0 + 0j, -2.0 + 0j, complex(-1.0, _SQRT3), complex(-1.0, -_SQRT3)]
    _match_sets(list(res.all_roots), want, 1e-9)


def test_cusp_translation_law():
    # reindexing p/q -> (p+q)/q shifts the cusp by -2
    base = cusp_point(FareySlope(0, 1))
    shifted = cusp_point(FareySlope(1, 1))
    assert abs(shifted.z - (base.z - 2.0)) < 1e-8
    half = cusp_point(FareySlope(1, 2))
    three_half = cusp_point(FareySlope(3, 2))
    assert abs(three_half.z - (half.z - 2.0)) < 1e-8


def test_cusp_reflection_law():
    half = cusp_point(FareySlope(1, 2))
    mirrored = cusp_point(FareySlope(-1, 2))
    assert abs(mirrored.z - (-half.z.conjugate())) < 1e-8


def test_infinite_slope_has_no_cusp():
    with pytest.raises(ValueError, match="parabolic for every z"):
        cusp_point(FareySlope(1, 0))


def test_deep_slope_candidates_all_fail_probe():
    # the certified region is conservative: parabolic roots for q >= 3 sit
    # strictly between it and the true boundary, so no candidate certifies
    with pytest.raises(BoundaryCuspError) as err:
        cusp_point(FareySlope(1, 3))
    assert len(err.value.all_roots) == 6  # degree 3 per trace target


def test_result_shape():
    res = cusp_point(FareySlope(1, 2), ClassifierConfig(q_max=128))
    assert isinstance(res, CuspResult)
    assert res.slope == FareySlope(1, 2)
    assert len(res.all_roots) == 4
