"""The family's Moebius matrices through the test-side oracle, and normalized_length."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskit import normalized_length
from oracle import IDENTITY, commutator, generators, inv, mul, tr, translation, word_matrix

_coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
_z_points = st.builds(complex, _coord, _coord)


def _det(m):
    a, b, c, d = m
    return a * d - b * c


def _dist(m, n):
    return max(abs(x - y) for x, y in zip(m, n))


def test_inverse_and_compose_roundtrip():
    m, _ = generators(1.3 + 2.1j)
    assert _dist(mul(m, inv(m)), IDENTITY) < 1e-12


def test_generators_have_unit_determinant_exactly():
    A, B = generators(0.7 - 1.9j)
    # A = [[iz, i], [i, 0]] has det -i*i = 1 with no rescaling involved
    assert _det(A) == 1.0 + 0.0j
    assert _det(B) == 1.0 + 0.0j


@given(_z_points)
@settings(max_examples=200)
def test_commutator_trace_is_minus_two(z):
    assert abs(tr(commutator(*generators(z))) + 2.0) < 1e-10


@given(_z_points, _z_points)
@settings(max_examples=100)
def test_extension_conjugation_trace(z, w):
    # tr(C^-1 A) = i(z - w): the c-conjugate of a lives at parameter z - w
    got = tr(mul(inv(translation(w)), generators(z)[0]))
    assert abs(got - 1j * (z - w)) < 1e-12


@given(_z_points)
@settings(max_examples=100)
def test_trace_identity_products(z):
    # tr(XY) + tr(XY^-1) = tr(X) tr(Y) for any SL2 pair
    x, y = generators(z)[0], word_matrix(z, "bab")
    lhs = tr(mul(x, y)) + tr(mul(x, inv(y)))
    rhs = tr(x) * tr(y)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_word_matrix_letters():
    z = 0.5 + 1.5j
    A, B = generators(z)
    assert _dist(word_matrix(z, "ab"), mul(A, B)) < 1e-12
    assert _dist(word_matrix(z, "aA"), IDENTITY) < 1e-12
    assert _dist(word_matrix(z, "B"), inv(B)) < 1e-12


def test_word_matrix_rejects_unknown_letters():
    with pytest.raises(KeyError):
        word_matrix(2j, "abc")


def test_long_word_products_survive_entry_growth():
    # entries grow exponentially with word length; det 1 must still hold to
    # rounding relative to that scale, or long-word traces mean nothing
    m = word_matrix(3.7 + 3.9j, "ab" * 40)
    a, b, c, d = m
    assert max(abs(a), abs(b)) > 1e6  # the test is vacuous otherwise
    assert abs(_det(m) - 1.0) < 1e-12 * (abs(a) * abs(d) + abs(b) * abs(c))


# The two-circle picture of classify.py's docstring, in exact arithmetic: at
# dyadic z every entry and product below is a float computed without
# rounding.  A point w is the vector (w, 1), or (u, c) for w = u / c, and m
# maps w to t when m (w, 1) is proportional to (t, 1).
_DYADIC_Z = [4j, 0.5 + 2.25j, -1.25 + 3.5j, 2.5 + 0.75j, -0.75 - 1.5j]


def _apply(m, u, c=1):
    a, b, cc, d = m
    return a * u + b * c, cc * u + d * c


def _maps(m, w, t):
    p, q = _apply(m, w)
    return q != 0 and p == t * q


def _abs2(x):
    return x.real**2 + x.imag**2


@pytest.mark.parametrize("z", _DYADIC_Z)
def test_vertex_cycle_of_plus_and_minus_one_is_parabolic(z):
    A, B = generators(z)
    steps = [(A, 1, z + 1), (inv(B), z + 1, z - 1), (inv(A), z - 1, -1), (B, -1, 1)]
    assert all(_maps(m, w, t) for m, w, t in steps)
    cycle = mul(mul(B, inv(A)), mul(inv(B), A))
    assert _maps(cycle, 1, 1)
    assert tr(cycle) == -2


@pytest.mark.parametrize("z", _DYADIC_Z)
def test_a_maps_the_unit_circle_onto_the_circle_about_z(z):
    A, _ = generators(z)
    # u / c on the unit circle: |u|^2 = c^2, with u a Gaussian integer
    on_circle = [
        (sx * a + sy * b * 1j, c)
        for a, b, c in [(1, 0, 1), (0, 1, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17)]
        for sx in (1, -1)
        for sy in (1, -1)
    ]
    for u, c in on_circle:
        assert _abs2(u) == c * c
        p, q = _apply(A, u, c)  # A(u / c) = p / q, at distance 1 from z
        assert _abs2(p - z * q) == _abs2(q) != 0
        p, q = _apply(inv(A), z * c + u, c)  # A^-1 back onto |w| = 1
        assert _abs2(p) == _abs2(q) != 0
    # the exterior of |w| = 1 goes into the disk |w - z| < 1
    for u in (2, -3j, 2 + 2j):
        p, q = _apply(A, u)
        assert _abs2(p - z * q) < _abs2(q)


def test_normalized_length_fixtures():
    assert abs(normalized_length(2j) - 1.0) < 1e-12
    assert abs(normalized_length(2 + 2j) - math.sqrt(2.0)) < 1e-12
    assert abs(normalized_length(8j) - 2.0) < 1e-12


@given(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=0.01, max_value=10.0))
def test_normalized_length_formula(x, y):
    w = complex(x, y)
    assert abs(normalized_length(w) - abs(w) / math.sqrt(2.0 * y)) < 1e-12


def test_normalized_length_rejects_lower_half_plane():
    for w in (1.0, -3.0, 0.0, 2 - 1j):
        with pytest.raises(ValueError, match="not a valid cusp parameter"):
            normalized_length(w)
