"""Slope bookkeeping and the trace recursion against independent oracles.

The load-bearing oracle is oracle.matrix_trace: evaluate the slope word
letter by letter as a matrix product and take the trace.  The recursion must
agree with it (up to overall sign, which PSL2 does not see) for every slope.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskit import farey
from maskit.farey import FareySlope, TraceCache, slope, slopes_up_to, trace_polynomial
from oracle import matrix_trace, poly_value, slope_word

INFINITY = FareySlope(1, 0)
ZERO = FareySlope(0, 1)


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


_reduced = st.integers(min_value=1, max_value=40).flatmap(
    lambda q: st.integers(min_value=-q, max_value=q)
    .filter(lambda p: math.gcd(abs(p), q) == 1)
    .map(lambda p: FareySlope(p, q))
)


def test_slope_normalization():
    assert slope(2, 4) == FareySlope(1, 2)
    assert slope(-2, 4) == FareySlope(-1, 2)
    assert slope(3, -6) == FareySlope(-1, 2)
    assert slope(5, 0) == INFINITY
    assert slope(0, -7) == ZERO
    with pytest.raises(ValueError):
        slope(0, 0)


def test_slope_validation():
    with pytest.raises(ValueError):
        FareySlope(2, 4)
    with pytest.raises(ValueError):
        FareySlope(1, -1)
    with pytest.raises(ValueError):
        FareySlope(0, 0)


def _brute_parents(s):
    # independent reconstruction: search all candidate denominators for the
    # Farey neighbor pair summing to s
    for lq in range(0, s.q + 1):
        rq = s.q - lq
        for lp in range(-abs(s.p) - 1, abs(s.p) + 2):
            rp = s.p - lp
            if abs(lp * rq - rp * lq) != 1:
                continue
            try:
                l = slope(lp, lq) if (lp, lq) != (0, 0) else None
                r = slope(rp, rq) if (rp, rq) != (0, 0) else None
            except ValueError:
                continue
            if l is None or r is None:
                continue
            if (l.p, l.q) == (lp, lq) and (r.p, r.q) in ((rp, rq), (-rp, -rq)):
                return l, r
    raise AssertionError(f"no parents found for {s}")


def _parents(s):
    l, r, _ = farey._edge_pq(s.p, s.q)
    return l, r


def test_parents_fixtures():
    assert _parents(FareySlope(1, 2)) == ((0, 1), (1, 1))
    assert _parents(FareySlope(2, 5)) == ((1, 3), (1, 2))
    assert _parents(FareySlope(3, 5)) == ((1, 2), (2, 3))
    assert _parents(FareySlope(2, 1)) == ((1, 1), (1, 0))
    assert _parents(FareySlope(-2, 1)) == ((-1, 1), (1, 0))


@given(_reduced)
@settings(max_examples=300)
def test_parents_against_brute_force(s):
    if (s.p, s.q) in ((0, 1), (1, 0), (1, 1), (-1, 1)):
        return
    (lp, lq), (rp, rq) = _parents(s)
    bl, br = _brute_parents(s)
    assert {(lp, lq), (rp, rq)} == {(bl.p, bl.q), (br.p, br.q)}
    # mediant property as integer vectors (1/0 may represent (-1, 0))
    assert (lp + rp, lq + rq) in ((s.p, s.q), (s.p - 2 * rp, s.q - 2 * rq))


@given(_reduced)
@settings(max_examples=200)
def test_parents_are_farey_neighbors(s):
    if (s.p, s.q) in ((0, 1), (1, 0), (1, 1), (-1, 1)):
        return
    (lp, lq), (rp, rq) = _parents(s)
    assert abs(lp * rq - rp * lq) == 1


def test_mediant_and_difference():
    # edge (0/1, 1/1) has mediant 1/2 below and 1/0 above: t_{1/2} = t_0 t_1 - 2
    assert farey._edge_pq(1, 2) == ((0, 1), (1, 1), (1, 0))
    # parents of 2/5 are 1/3 and 1/2; 2*(1/3) - (2/5) = (0, 1) as vectors
    assert farey._edge_pq(2, 5)[2] == (0, 1)


def test_difference_for_negative_integer_slopes():
    # parents of -3/1 are (-2/1, 1/0) where 1/0 stands for the vector (-1,0);
    # the difference must come out on the vector arithmetic, not the labels
    assert farey._edge_pq(-3, 1)[2] == (-1, 1)
    assert farey._edge_pq(3, 1)[2] == (1, 1)


def test_word_fixtures():
    assert slope_word(ZERO) == "a"
    assert slope_word(INFINITY) == "b"
    assert slope_word(FareySlope(1, 1)) == "ab"
    assert slope_word(FareySlope(1, 2)) == "aab"
    assert slope_word(FareySlope(2, 1)) == "abb"
    assert slope_word(FareySlope(-1, 1)) == "aB"
    assert slope_word(FareySlope(-1, 2)) == "aaB"


@given(_reduced)
@settings(max_examples=200)
def test_word_letter_counts(s):
    w = slope_word(s)
    assert w.count("a") == s.q or (s.q == 0 and w == "b")
    assert w.count("b") + w.count("B") == abs(s.p)


def test_trace_seeds():
    z = 0.8 + 1.7j
    cache = TraceCache(z)
    assert cache.trace(ZERO) == 1j * z
    assert cache.trace(INFINITY) == 2.0 + 0.0j
    assert cache.trace(FareySlope(1, 1)) == 1j * (z + 2)
    assert cache.trace(FareySlope(-1, 1)) == 1j * (z - 2)
    for n in (-3, 2, 5):
        assert abs(cache.trace(FareySlope(n, 1)) - 1j * (z + 2 * n)) < 1e-12


def test_half_slope_closed_form():
    for z in (0.3 + 1.1j, -2.0 + 0.25j, 1j):
        got = TraceCache(z).trace(FareySlope(1, 2))
        assert abs(got - (-(z * z + 2 * z + 2))) < 1e-12


def _matrix_errors(zs, slopes):
    # recursion against matrix products, up to the sign PSL2 does not see
    errs = []
    for z in zs:
        cache = TraceCache(z)
        for s in slopes:
            t_rec = cache.trace(s)
            t_mat = matrix_trace(z, s)
            errs.append((min(_rel_err(t_rec, t_mat), _rel_err(-t_rec, t_mat)), s, z))
    return errs


def _polynomial_errors(caches, slopes):
    return [
        (_rel_err(poly_value(trace_polynomial(s), c.z), c.trace(s)), s, c.z)
        for c in caches
        for s in slopes
    ]


def _misfits(errs, tol):
    # written as "not err < tol" so that a NaN error counts as a misfit
    return [(str(s), z, err) for err, s, z in errs if not err < tol]


def test_recursion_matches_matrix_oracle():
    rng = random.Random(7)
    zs = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(25)]
    bad = _misfits(_matrix_errors(zs, slopes_up_to(12, -1.0, 1.0)), 1e-8)
    assert not bad, f"(slope, z, error): {bad[:5]}"


def test_markov_identity():
    # x^2 + y^2 + u^2 = x y u for the triple (0/1, 1/0, 1/1) traces
    rng = random.Random(11)
    for _ in range(50):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        c = TraceCache(z)
        x, y, u = c.trace(ZERO), c.trace(INFINITY), c.trace(FareySlope(1, 1))
        lhs = x * x + y * y + u * u
        assert abs(lhs - x * y * u) < 1e-9 * max(1.0, abs(lhs))


def test_trace_polynomial_fixtures():
    p = trace_polynomial(FareySlope(1, 2))
    # -(z^2 + 2z + 2)
    assert p.coeffs == ((-2, 0), (-2, 0), (-1, 0))
    assert trace_polynomial(ZERO).coeffs == ((0, 0), (0, 1))
    with pytest.raises(ValueError, match="constant trace 2"):
        trace_polynomial(INFINITY)
    with pytest.raises(ValueError, match="capped"):
        trace_polynomial(FareySlope(1, 65))


@given(_reduced)
@settings(max_examples=150, deadline=None)
def test_trace_polynomial_structure(s):
    # t_{p/q} = i^q * (monic-up-to-sign integer polynomial of degree q)
    if s.q == 0:
        return
    poly = trace_polynomial(s)
    assert poly.degree == s.q
    lead_re, lead_im = poly.coeffs[-1]
    assert {abs(lead_re), abs(lead_im)} == {0, 1}
    for re, im in poly.coeffs:
        if s.q % 2 == 0:
            assert im == 0
        else:
            assert re == 0


def test_trace_polynomial_matches_recursion():
    rng = random.Random(3)
    caches = [TraceCache(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for _ in range(10)]
    bad = _misfits(_polynomial_errors(caches, slopes_up_to(10, 0.0, 1.0)), 1e-8)
    assert not bad, f"(slope, z, error): {bad[:5]}"


def test_oracles_catch_a_wrong_difference_vertex(monkeypatch):
    # Both trace paths share _edge_pq.  Break it (difference := left parent)
    # and each oracle comparison above must report the damage.
    rng = random.Random(5)
    zs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(5)]
    slopes = slopes_up_to(8, 0.0, 1.0)
    sound = [TraceCache(z) for z in zs]
    for c in sound:
        for s in slopes:
            c.trace(s)  # filled before the helper breaks

    good_edge = farey._edge_pq

    def wrong_edge(p, q):
        l, r, _ = good_edge(p, q)
        return l, r, l

    with monkeypatch.context() as m:
        m.setattr(farey, "_edge_pq", wrong_edge)
        m.setattr(farey, "_POLY_TABLE", dict(farey._POLY_SEEDS))
        assert _misfits(_matrix_errors(zs, slopes), 1e-3)
        assert _misfits(_polynomial_errors(sound, slopes), 1e-3)
    # the bad polynomials went into the swapped-out table and must not leak
    assert trace_polynomial(FareySlope(1, 2)).coeffs == ((-2, 0), (-2, 0), (-1, 0))
    assert not _misfits(_polynomial_errors(sound, slopes), 1e-8)


def test_slopes_up_to_enumeration():
    got = slopes_up_to(3, 0.0, 1.0)
    want = [
        FareySlope(0, 1),
        FareySlope(1, 1),
        FareySlope(1, 2),
        FareySlope(1, 3),
        FareySlope(2, 3),
    ]
    assert got == want
    assert slopes_up_to(2, -1.0, 1.0) == [
        FareySlope(-1, 1),
        FareySlope(0, 1),
        FareySlope(1, 1),
        FareySlope(-1, 2),
        FareySlope(1, 2),
    ]


def test_slopes_up_to_puts_each_mirror_first():
    # the cusp table relies on (q, p) order, and on (q-p)/q preceding every
    # p/q > 1/2, to hand each row the cusp of its mirror slope
    got = slopes_up_to(64, 0.0, 1.0)
    assert got == sorted(got, key=lambda s: (s.q, s.p))
    assert len(set(got)) == len(got)
    index = {s: k for k, s in enumerate(got)}
    for k, s in enumerate(got):
        if 2 * s.p > s.q:
            assert index[FareySlope(s.q - s.p, s.q)] < k, s


def test_symmetry_identities():
    # reindexings that preserve |t|: translation, negation, conjugation, and
    # the composed reflection
    rng = random.Random(19)
    for _ in range(10):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        base = TraceCache(z)
        shifted = TraceCache(z + 2)
        negated = TraceCache(-z)
        conjugated = TraceCache(z.conjugate())
        reflected = TraceCache(-z.conjugate())
        for s in slopes_up_to(8, -1.0, 1.0):
            t = abs(base.trace(s))
            scale = max(1.0, t)
            assert abs(abs(shifted.trace(s)) - abs(base.trace(slope(s.p + s.q, s.q)))) < 1e-9 * scale
            assert abs(abs(negated.trace(slope(-s.p, s.q))) - t) < 1e-9 * scale
            assert abs(abs(conjugated.trace(s)) - t) < 1e-9 * scale
            assert abs(abs(reflected.trace(slope(-s.p, s.q))) - t) < 1e-9 * scale
