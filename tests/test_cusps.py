"""Root solver against the numpy oracle, and boundary cusps by pleating-ray continuation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskit.cusps as cusps
from maskit.classify import ClassifierConfig, Verdict
from maskit.cusps import (
    BoundaryCuspError,
    CuspResult,
    cusp_point,
    pleating_ray,
    poly_roots,
)
from maskit.farey import (
    FareySlope,
    TraceCache,
    TracePolynomial,
    slopes_up_to,
    trace_polynomial,
)

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


def _long_division(num, den):
    """(quotient, remainder) of Gaussian-integer polynomial long division by
    a monic divisor; coefficient lists run from the constant term up."""
    num = [list(c) for c in num]
    m = len(den) - 1
    quot = [(0, 0)] * (len(num) - m)
    for k in range(len(num) - 1 - m, -1, -1):
        cr, ci = num[k + m]
        quot[k] = (cr, ci)
        for j, (dr, di) in enumerate(den):
            num[k + j][0] -= cr * dr - ci * di
            num[k + j][1] -= cr * di + ci * dr
    return quot, [tuple(c) for c in num[:m]]


def _minus(poly, target):
    (c0r, c0i), *rest = poly.coeffs
    return [(c0r - target, c0i), *rest]


# t_{p/q} - 2 has a repeated root at these slopes (see the divisibility
# test); dividing it once by the monic factor given here leaves its
# square-free part: double roots at the zeros of z^2+z+1 and z^2+3z+3, and
# the triple root -1
_Z2_Z_1 = ((1, 0), (1, 0), (1, 0))
_Z2_3Z_3 = ((3, 0), (3, 0), (1, 0))
_SQUARE_OF_Z_PLUS_1 = ((1, 0), (2, 0), (1, 0))
_REPEATED_FACTOR = {
    (3, 10, 2): _Z2_Z_1,
    (7, 10, 2): _Z2_3Z_3,
    (5, 12, 2): _SQUARE_OF_Z_PLUS_1,
    (7, 12, 2): _SQUARE_OF_Z_PLUS_1,
}


def _squarefree_coeffs(s, target):
    # t_{p/q} - target with any known repeated factor divided out once
    f = _minus(trace_polynomial(s), target)
    factor = _REPEATED_FACTOR.get((s.p, s.q, target))
    if factor is None:
        return f
    quot, rem = _long_division(f, factor)
    assert rem == [(0, 0)] * (len(factor) - 1)
    return quot


def _mpmath_roots(coeffs):
    # second oracle, to the last bit: mpmath's own polynomial root finder at
    # 60 digits, far beyond double precision; coeffs run from the constant up
    with mp.workdps(60):
        roots = mp.polyroots(
            [mp.mpc(re, im) for re, im in reversed(coeffs)],
            maxsteps=200,
            extraprec=60,
        )
        return [complex(r) for r in roots]


def _same_bits(x: float, y: float) -> bool:
    # a component below 1e-30 is rounding noise on an exact zero (real roots)
    return x == y or (abs(x) < 1e-30 and abs(y) < 1e-30)


def _assert_same_roots(got, want, label):
    assert len(got) == len(want), label
    unused = list(want)
    for x in got:
        y = min(unused, key=lambda r: abs(x - r))
        unused.remove(y)
        assert _same_bits(x.real, y.real) and _same_bits(x.imag, y.imag), (
            f"{label}: {x!r} vs {y!r}"
        )


def test_poly_roots_match_mpmath_to_the_last_bit():
    for s in slopes_up_to(10, 0.0, 1.0):
        poly = trace_polynomial(s)
        for target in (2, -2):
            got = poly_roots(poly, target)
            want = _mpmath_roots(_squarefree_coeffs(s, target))
            _assert_same_roots(got, want, f"{s} at {target:+d}")


def test_poly_roots_are_fixed_points_of_the_exact_step():
    # each root is its own exact Newton step, rounded: the solver returns
    # the step's fixed point, whichever numpy estimate it started from
    for s in slopes_up_to(12, 0.0, 1.0):
        for target in (2, -2):
            f = _minus(trace_polynomial(s), target)
            if cusps._gcd_degree_mod_p(f) != 0:
                continue
            for r in poly_roots(trace_polynomial(s), target):
                assert cusps._exact_newton(f, r, 0) == r, (s, target, r)


def test_poly_roots_solves_seventeen_eighteenths():
    # every root lies on Re z = -2, where numpy's estimates are off by up
    # to 1e-6; each still comes back to the last bit of the 60-digit roots
    s = FareySlope(17, 18)
    for target in (2, -2):
        got = poly_roots(trace_polynomial(s), target)
        _assert_same_roots(got, _mpmath_roots(_minus(trace_polynomial(s), target)), str(s))


def test_repeated_roots_are_solved_once_each():
    # (z^2+z+1)^2 | t_{3/10} - 2 and (z^2+3z+3)^2 | t_{7/10} - 2, exactly;
    # the double roots -1/2 +- i sqrt(3)/2 and -3/2 +- i sqrt(3)/2 all lie
    # below Im z = 1, so neither is the boundary cusp of its slope
    for p, quadratic in ((3, _Z2_Z_1), (7, _Z2_3Z_3)):
        f = _minus(trace_polynomial(FareySlope(p, 10)), 2)
        square = (TracePolynomial(quadratic) * TracePolynomial(quadratic)).coeffs
        assert _long_division(f, square)[1] == [(0, 0)] * 4
    # (z+1)^3 | t_{5/12} - 2 and t_{7/12} - 2, a triple root on the real axis
    cube = ((1, 0), (3, 0), (3, 0), (1, 0))
    for p in (5, 7):
        f = _minus(trace_polynomial(FareySlope(p, 12)), 2)
        assert _long_division(f, cube)[1] == [(0, 0)] * 3
    # each distinct root comes back once, to the last bit of mpmath's roots
    # of the square-free part; -1 is among them at q = 12
    for (p, q, target), factor in _REPEATED_FACTOR.items():
        s = FareySlope(p, q)
        got = poly_roots(trace_polynomial(s), target)
        assert len(got) == q - (len(factor) - 1)
        _assert_same_roots(got, _mpmath_roots(_squarefree_coeffs(s, target)), str(s))
        if q == 12:
            assert [r for r in got if abs(r + 1) < 1e-9][0].real == -1.0


def _gcd_is_trivial_both_ways(f):
    # the modular check and the exact gcd over Q(i) agree on deg gcd(f, f')
    modular = cusps._gcd_degree_mod_p(f)
    exact = len(cusps._exact_gcd(f)) - 1
    assert modular == exact, (f, modular, exact)
    return exact == 0


def test_modular_check_agrees_with_the_exact_gcd():
    repeated = {
        (s.p, s.q, target)
        for s in slopes_up_to(24, 0.0, 1.0)
        for target in (2, -2)
        if not _gcd_is_trivial_both_ways(_minus(trace_polynomial(s), target))
    }
    assert repeated == {
        (3, 10, 2), (7, 10, 2), (5, 12, 2), (7, 12, 2), (11, 24, 2), (13, 24, 2)
    }


_GAUSSIAN = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_FACTOR = st.lists(_GAUSSIAN, min_size=1, max_size=2).flatmap(
    # a linear or quadratic factor with a non-zero leading coefficient
    lambda low: _GAUSSIAN.filter(lambda c: c != (0, 0)).map(
        lambda lead: TracePolynomial((*low, lead))
    )
)


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(_FACTOR, max_size=3), twice=_FACTOR)
def test_modular_check_sees_a_squared_factor(factors, twice):
    f = twice * twice
    for g in factors:
        f = f * g
    assert not _gcd_is_trivial_both_ways(list(f.coeffs))
    # the squared factor divides gcd(f, f') ...
    gcd = cusps._exact_gcd(list(f.coeffs))
    assert len(gcd) > twice.degree
    _, rem = cusps._pseudo_divmod(gcd, list(twice.coeffs))
    assert all(c == (0, 0) for c in rem)
    # ... and the solver returns each distinct root of f once
    roots = poly_roots(f, 0)
    assert len(roots) == f.degree - (len(gcd) - 1)
    for x in np.roots([complex(*c) for c in reversed(twice.coeffs)]):
        assert min(abs(x - r) for r in roots) < 1e-6


def test_poly_roots_rejects_a_non_integer_target():
    poly = trace_polynomial(FareySlope(2, 5))
    for target in (2.5, -1.999, float("nan"), float("inf"), 2 + 0j, "2"):
        with pytest.raises(ValueError, match="target must be an integer"):
            poly_roots(poly, target)
    assert poly_roots(poly, 2.0) == poly_roots(poly, 2)
    assert poly_roots(poly, -2.0) == poly_roots(poly, -2)


def test_flag_is_one_classification_above_the_cusp(monkeypatch):
    # cusp_point solves no polynomial: its one classifier call sits
    # _PROBE_EPS above the cusp, and the flag says it missed INSIDE_PLUS
    calls = []
    classify = cusps.classify_point

    def recording_classify(z, cfg):
        out = classify(z, cfg)
        calls.append((z, out.verdict))
        return out

    def no_solve(*args, **kwargs):
        raise AssertionError("cusp_point ran the all-roots solver")

    monkeypatch.setattr(cusps, "classify_point", recording_classify)
    monkeypatch.setattr(cusps, "poly_roots", no_solve)
    for s in slopes_up_to(10, 0.0, 1.0):
        calls.clear()
        res = cusp_point(s)
        ((z, verdict),) = calls
        assert z == complex(res.z.real, res.z.imag + cusps._PROBE_EPS)
        assert res.flagged == (verdict is not Verdict.INSIDE_PLUS)


def test_poly_roots_rejects_constants():
    with pytest.raises(ValueError, match="degree >= 1"):
        poly_roots(TracePolynomial(((2, 0),)), 2.0)


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
    poly = trace_polynomial(FareySlope(1, 2))
    want = [0.0 + 0j, -2.0 + 0j, complex(-1.0, _SQRT3), complex(-1.0, -_SQRT3)]
    _match_sets(poly_roots(poly, 2) + poly_roots(poly, -2), want, 1e-9)


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


def test_one_third_cusp_is_the_correctly_rounded_root():
    # the 1/3 cusp is one of the six roots of t_{1/3} = +-2, and the nearest
    # double to it: poly_roots gives an imaginary part one ulp lower
    res = cusp_point(FareySlope(1, 3))
    assert res.z == complex(-0.5812034746095592, 1.6938972023080991)
    poly = trace_polynomial(FareySlope(1, 3))
    roots = poly_roots(poly, 2) + poly_roots(poly, -2)
    assert len(roots) == 6
    assert min(abs(res.z - r) for r in roots) < 1e-15


def _rounded_root(s, z):
    # the root of t_{p/q} = +-2 that 60-digit Newton reaches from z, rounded
    with mp.workdps(60):
        coeffs = [mp.mpc(re, im) for re, im in reversed(trace_polynomial(s).coeffs)]
        target = 2 if mp.polyval(coeffs, mp.mpc(z)).real > 0 else -2
        root = mp.findroot(lambda x: mp.polyval(coeffs, x) - target, mp.mpc(z))
        return complex(float(root.real), float(root.imag))


def test_cusps_are_correctly_rounded_roots_of_the_oracle():
    for s in slopes_up_to(16, 0.0, 1.0):
        res = cusp_point(s)
        assert res.z == _rounded_root(s, res.z), s
        poly = trace_polynomial(s)
        roots = poly_roots(poly, 2) + poly_roots(poly, -2)
        assert min(abs(res.z - r) for r in roots) < 1e-12, s
        assert res.residual <= 1e-9


def test_pleating_ray_points_have_real_trace_beyond_two():
    for s in slopes_up_to(12, 0.0, 1.0):
        path = pleating_ray(s)
        assert path[-1].imag > 1
        for k, z in enumerate(path):
            t = TraceCache(z).trace(s)
            assert abs(t.imag) <= 1e-9 * abs(t), (s, z, t)
            # cusp_point steps for t = 2 at even q and t = -2 at odd q
            assert (t.real > 0) == (s.q % 2 == 0), (s, z, t)
            # the last point solves t = +-2 in floats
            floor = 2 - 1e-12 if k == len(path) - 1 else 2
            assert abs(t.real) >= floor, (s, z, t)


def _ulps_apart(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


def test_mirror_slopes_mirror_their_cusps():
    # p/q -> -p/q reflects the cusp (z -> -conj(z)) and p/q -> p/q + 1 shifts
    # it by -2, so the cusp of (q-p)/q is -conj(z) - 2 for z the cusp of p/q
    for s in slopes_up_to(24, 0.5, 1.0):
        if s.q < 3:
            continue
        z = cusp_point(s).z
        m = cusp_point(FareySlope(s.q - s.p, s.q)).z
        want = -m.conjugate() - 2
        assert _ulps_apart(z.real, want.real) <= 1, (s, z, want)
        assert _ulps_apart(z.imag, want.imag) <= 1, (s, z, want)


def test_slopes_the_root_solver_misses_resolve():
    # poly_roots raises RootSolveError at 1/48 and 1/64, where two numpy
    # estimates reach the same root (it solves 17/18); the ray finds all three
    for p, q in ((17, 18), (1, 48), (1, 64)):
        res = cusp_point(FareySlope(p, q))
        assert 1 < res.z.imag < 2 and res.residual <= 1e-9


def test_a_failed_guard_raises_with_its_reason(monkeypatch):
    # with one Newton step allowed, no step past the projection converges
    monkeypatch.setattr(cusps, "_NEWTON_STEPS", 1)
    with pytest.raises(BoundaryCuspError, match="0/1: continuation stalled at"):
        cusp_point(FareySlope(0, 1))


def test_result_shape():
    res = cusp_point(FareySlope(1, 2), ClassifierConfig(q_max=128))
    assert isinstance(res, CuspResult)
    assert res.slope == FareySlope(1, 2)
    poly = trace_polynomial(res.slope)
    assert len(poly_roots(poly, 2) + poly_roots(poly, -2)) == 4
