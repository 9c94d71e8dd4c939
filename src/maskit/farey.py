"""Slopes of simple closed curves and their traces under the z-family.

Simple closed curves on the once-punctured torus are indexed by extended
rationals p/q in lowest terms: 0/1 is the a-curve, 1/0 the b-curve, and the
mediant (p+p')/(q+q') of two Farey neighbors is the curve word obtained by
concatenating their Christoffel words.  Traces obey the SL2 identity

    tr(XY) = tr(X) tr(Y) - tr(XY^-1),

which on the Farey diagram reads

    t_mediant = t_left * t_right - t_difference,

where "difference" is the fourth vertex of the Farey quadrilateral around the
edge (left, right).  With the word convention 0/1 -> "a", 1/0 -> "b",
mediant -> concatenation in fraction order, the recursion holds with this
exact sign, no per-step sign choices -- checked in the test suite against
matrix products of the words, which the package itself never forms.

Seeds:  t_{0/1} = iz,  t_{1/0} = 2,  t_{1/1} = i(z+2),  t_{-1/1} = i(z-2);
more generally t_{n/1} = i(z+2n).  Every t_{p/q} equals i^q times an
integer-coefficient polynomial in z of degree q, which is what
trace_polynomial computes exactly (Gaussian-integer pairs, arbitrary size).

The recursion lives in one place: _edge_pq gives the parents and the
normalised difference vertex of an edge, and _fill applies the identity
above over a memo table.  TraceCache runs it on complex numbers for one z,
trace_polynomial on exact polynomials, and cusps.py on the slots of its
continuation schedule.  classify.py needs only the seeds t_{n/1}.

A TraceCache holds one z and grows as its trace method fills it, so it is
not safe to share between threads.  The polynomial table is shared and only
ever grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class FareySlope:
    """A slope p/q in lowest terms; q >= 0, and q = 0 only as 1/0."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"slope {self.p}/{self.q}: q must be >= 0")
        if self.q == 0 and self.p != 1:
            raise ValueError(f"slope {self.p}/0 is not reduced; the infinite slope is 1/0")
        if math.gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not in lowest terms")

    def __str__(self):
        return f"{self.p}/{self.q}"


def slope(p: int, q: int) -> FareySlope:
    """Normalize an integer pair to a FareySlope (cancel gcd, fix signs)."""
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a slope")
    if q < 0:
        p, q = -p, -q
    if q == 0:
        return FareySlope(1, 0)
    g = math.gcd(abs(p), q)
    return FareySlope(p // g, q // g)


def _parents_pq(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Farey parents of p/q as raw pairs; q >= 1 and (p, q) not a root slope.

    For q >= 2 the left parent a/b solves p*b - q*a = 1 with 1 <= b < q
    (Bezout); the right parent is the vector difference.  For integer slopes
    |p| >= 2 the parents are the adjacent integer and 1/0.
    """
    if q == 1:
        step = 1 if p > 0 else -1
        return (p - step, 1), (1, 0)
    b = pow(p, -1, q)  # works for negative p as well
    a = (p * b - 1) // q
    return (a, b), (p - a, q - b)


def _edge_pq(p: int, q: int):
    """Parents (l, r) and difference vertex d of p/q, as raw pairs.

    d is the representative vector 2*l - s, normalised to lowest terms with
    q > 0 (or to 1/0): for negative integer slopes the normalised right
    parent 1/0 stands for the vector (-1, 0), so d must come from l.
    """
    (lp, lq), r = _parents_pq(p, q)
    dp, dq = 2 * lp - p, 2 * lq - q
    if dq < 0 or (dq == 0 and dp < 0):
        dp, dq = -dp, -dq
    g = math.gcd(abs(dp), dq)
    if g > 1:
        dp, dq = dp // g, dq // g
    return (lp, lq), r, (dp, dq)


def _fill(table: dict, key: tuple[int, int]):
    """table[key] by t_mediant = t_left * t_right - t_difference, memoised in table.

    table must hold the four root slopes.  Iterative: the Farey depth can
    reach ~q, too deep for recursion at large denominators.
    """
    hit = table.get(key)
    if hit is not None:
        return hit
    stack = [key]
    while stack:
        top = stack[-1]
        if top in table:
            stack.pop()
            continue
        l, r, d = _edge_pq(*top)
        missing = [k for k in (l, r, d) if k not in table]
        if missing:
            stack.extend(missing)
            continue
        table[top] = table[l] * table[r] - table[d]
        stack.pop()
    return table[key]


class TraceCache:
    """Memoized traces t_{p/q}(z) for one fixed parameter z."""

    def __init__(self, z):
        self.z = complex(z)
        z = self.z
        self.table: dict[tuple[int, int], complex] = {
            (0, 1): 1j * z,
            (1, 0): 2.0 + 0.0j,
            (1, 1): 1j * (z + 2.0),
            (-1, 1): 1j * (z - 2.0),
        }

    def trace(self, s: FareySlope) -> complex:
        return _fill(self.table, (s.p, s.q))


@dataclass(frozen=True)
class TracePolynomial:
    """Exact polynomial in z with Gaussian-integer coefficients.

    coeffs[k] = (re, im) is the exact coefficient of z^k; Python ints, so the
    exponential coefficient growth in the degree is harmless.
    """

    coeffs: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "TracePolynomial") -> "TracePolynomial":
        a, b = self.coeffs, other.coeffs
        out = [(0, 0)] * (len(a) + len(b) - 1)
        for i, (ar, ai) in enumerate(a):
            if ar == 0 and ai == 0:
                continue
            for j, (br, bi) in enumerate(b):
                cr, ci = out[i + j]
                out[i + j] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
        return TracePolynomial(tuple(out))

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [(0, 0)] * (n - len(self.coeffs))
        for k, (br, bi) in enumerate(other.coeffs):
            ar, ai = a[k]
            a[k] = (ar - br, ai - bi)
        while len(a) > 1 and a[-1] == (0, 0):
            a.pop()
        return TracePolynomial(tuple(a))


_POLY_SEEDS = {
    (0, 1): TracePolynomial(((0, 0), (0, 1))),   # iz
    (1, 0): TracePolynomial(((2, 0),)),          # constant 2
    (1, 1): TracePolynomial(((0, 2), (0, 1))),   # i(z+2)
    (-1, 1): TracePolynomial(((0, -2), (0, 1))),  # i(z-2)
}

_POLY_TABLE = dict(_POLY_SEEDS)

SYMBOLIC_Q_CAP = 64


def trace_polynomial(s: FareySlope) -> TracePolynomial:
    """Exact coefficients of t_{p/q}(z); degree q.  Capped at q <= 64.

    Every polynomial on the way is kept in _POLY_TABLE for the life of the
    process, with no eviction.  For |p/q| <= 1, the only range the callers
    use, that is at most the 2,522 slopes with q <= 64; the cap does not
    bound |p|, so slopes far outside [-1, 1] grow the table without limit.
    """
    if s.q == 0:
        raise ValueError("constant trace 2, not polynomial in z")
    if s.q > SYMBOLIC_Q_CAP:
        raise ValueError(f"symbolic traces capped at q <= {SYMBOLIC_Q_CAP}")
    poly = _fill(_POLY_TABLE, (s.p, s.q))
    assert poly.degree == s.q
    return poly


def slopes_up_to(q_max: int, lo: float = 0.0, hi: float = 1.0) -> list[FareySlope]:
    """All reduced slopes with 1 <= q <= q_max and lo <= p/q <= hi, sorted by (q, p)."""
    out = []
    for q in range(1, q_max + 1):
        p_lo = math.ceil(lo * q)
        p_hi = math.floor(hi * q)
        for p in range(p_lo, p_hi + 1):
            if math.gcd(abs(p), q) == 1:
                out.append(FareySlope(p, q))
    return out
