"""Graded discreteness classification of points of the z-slice.

classify_point decides, with explicit certainty grades, whether the
parameter z lies in the upper (InsidePlus) or lower (InsideMinus) component
of the slice, is outside, or is undetermined.  Every verdict comes from the
integer fan: the slopes n/1 have the traces t_{n/1} = i(z + 2n), so
|t_{n/1}| = |z + 2n|, and with m = min_n |z + 2n|:

  * OutsideCertified when m < REJECT_THRESHOLD = 2;
  * Undetermined, with the reason "margin", when 2 <= m < 2 + INSIDE_MARGIN;
  * InsidePlus or InsideMinus, by the sign of Im z, otherwise.

Only the three translates nearest to z can reject or spoil a point.  With
n0 = round(-Re z / 2), |Re z + 2 n0| <= 1, so every other n has
|z + 2n| >= |Re z + 2n| >= 3, above 2 + INSIDE_MARGIN.  The fan is the three
traces of n0 - 1, n0 and n0 + 1; classify_point forms them in that order,
Classification.explored counts those it formed, and the witness of an
Outside verdict is the first n/1 below the threshold, the least such n.

Neither verdict is labelled as a proof.  OutsideCertified is the trace
rule: a simple-curve trace of modulus below 2 is read as an elliptic
element.  That holds where the trace is real (Re z = -2n, t = -Im z), and
is unproved off those lines, where a trace of modulus below 2 may be
loxodromic.  The inside verdict rests on the two-circle Ford domain below.
The float m is within a few ulps of the exact modulus, and the margin
INSIDE_MARGIN, which keeps an Undetermined band above the disks
|z + 2n| = 2, is far wider, so every inside verdict has exact m > 2.

Theorem.  If m > 2 (which forces |Im z| > sqrt(3)), G = <A, B> is
discrete, free on A and B and geometrically finite, and its only
parabolic classes are those of B and [A, B]: the Maskit type.  So z lies
in the interior of the slice, and {Im z > 0, m > 2} lies in M+.

Proof.  A(w) = z + 1/w, B(w) = w + 2, and A^-1(w) = 1/(w - z).  Write S_c
for the hemisphere of H^3 over the unit circle about c.  The isometric
circle of A is |w| = 1 and that of A^-1 is |w - z| = 1; as
|A(w) - z| = 1/|w|, A maps S_0 onto S_z and the outside of S_0 into the
inside of S_z.  The group at z + 2 is <BA, B>, the same group, and
conjugation by the reflection w -> -conj(w) takes A to A at -conj(z) and
B to B^-1, with |-conj(z) + 2n| = |z - 2n|; so take 0 <= Re z <= 1.

  * The region F.  F is the part of H^3 over the strip |Re w| <= 1 that
    lies outside every S_{2k} and every S_{z+2k}.  m > 2 says that the
    closed unit disks about 2Z and about z + 2Z are disjoint, so the two
    rows of hemispheres are disjoint; within a row, neighbours touch only
    at an ideal point, an odd integer or z plus an odd integer.  So the
    faces of F are the planes Re w = -1 and Re w = 1 outside S_{z-2} and
    S_z, the whole of S_0, and the z row's part in the strip, S_z with
    Re w <= 1 and S_{z-2} with Re w >= -1.  No other hemisphere meets the
    strip but at an ideal point.
  * The side pairings.  B maps the plane Re w = -1 onto Re w = 1, and the
    piece of S_{z-2} onto the part of S_z with Re w >= 1.  So A^-1 and
    A^-1 B map the two pieces of the z row onto two faces that tile S_0,
    and A and B^-1 A pair each of those with its piece.  Each pairing
    carries F to the far side of the face.
  * The edge cycle.  Where Re z > 0, the plane Re w = 1 cuts S_z along an
    edge e1.  B maps e2, where the plane Re w = -1 cuts S_{z-2}, onto e1,
    and A^-1 maps e1 onto e3, the edge on S_0 between its two faces.  The
    angles of F are alpha at e1, pi - alpha at e2 (B carries F there to
    the other side of the plane) and pi at e3, a subdivided face: the sum
    is 2 pi.  The cycle transformation B (B^-1 A) A^-1 is the identity, so
    the relation only names the third pairing B^-1 A.
  * The ideal vertices.  At infinity the cycle transformation is B.  The
    vertices 1, z - 1 and -1 form one cycle, 1 -> z - 1 -> -1 -> 1 under
    B^-1 A, A^-1 and B (at Re z = 0, B^-1 A passes through the vertex
    z + 1: 1 -> z + 1 -> z - 1 under A and B^-1).  Its transformation
    B A^-1 B^-1 A = A^-1 [A, B] A fixes 1 and has trace -2: parabolic.
  * Poincare's polyhedron theorem (Maskit, Kleinian Groups (1988), IV.H;
    for the parabolic condition at ideal vertices, Epstein-Petronio,
    Enseign. Math. 40 (1994)) then makes G discrete with F a fundamental
    polyhedron.  G is presented on the pairings by the edge relation:
    free on A and B.  F has finitely many faces, so G is geometrically
    finite, and each parabolic is conjugate into the stabiliser of an
    ideal vertex: a power of B or of [A, B].
  * The hypothesis m > 2 is open, so it holds near z and z is interior to
    the slice.  {Im z > 0, m > 2} is connected: moving z up increases
    every |z + 2n|, and every z with Im z > 2 is in the set.  It contains
    4i, so it lies in M+.

This is the standard Ford-domain argument, written out step by step; the
two rows of circles are the usual picture of its corollary that the slice
holds {|Im z| > 2} (Mumford-Series-Wright, Indra's Pearls (2002), ch. 9;
Keen-Series, Topology 32 (1993)).  tests/test_moebius.py checks two of its
steps in exact arithmetic: the vertex cycle of 1 and its trace, and that A
maps the unit circle onto |w - z| = 1.

Points with Im z = 0 are rejected outright (the slice misses the real axis),
with witness None and an explanatory reason.  Points with
|Re z| > REAL_PART_LIMIT raise ValueError, as non-finite ones do.

RealClassifier.classify_grid gives classify_point's verdicts for whole
arrays of points at once, as uint8 codes, in one array pass over them
all.  For z = x + iy it forms only the nearest translate's real part,
a = x + 2.0*rint(-x/2), and s = a*a + y*y, and compares s with T*T for the
two thresholds T = REJECT_THRESHOLD and T = 2 + INSIDE_MARGIN.  Lemma: where
s is outside the band T*T*(1 - 2^-40) <= s <= T*T*(1 + 2^-40) (_GUARD) of
both thresholds, those comparisons give classify_point's code, bit for bit;
inside either band, classify_grid calls classify_point itself.

  1. In floats, |a_0| <= 1 <= |a_-1|, |a_1|, where a_k is the real part
     fl(x + 2.0*(n0 + k)) that classify_point forms for n0 + k, and a_0 = a.
     The exact |x + 2 n0| is at most 1, as n0 is an integer nearest to -x/2,
     and the exact x + 2(n0 -+ 1) lies beyond -+1.  2.0*n is exact, each sum
     rounds once, rounding is monotone and 1 is a float, so the bounds hold
     for the rounded sums.  So the least exact modulus |a_k + iy| is the
     nearest translate's, and classify_point's code is decided by whether
     min_k hypot(a_k, y) < T for each T.
  2. s is a*a + y*y to a relative error below 2^-51: two products and a sum,
     each rounded once (an underflow adds less than 2^-1000, nothing beside
     T*T).  Where s < T*T*(1 - 2^-40), the exact |a + iy| is below
     T*(1 - 2^-42), so any hypot with relative error below 2^-43 puts it
     below T.  Where s > T*T*(1 + 2^-40), every exact |a_k + iy| is above
     T*(1 + 2^-42), so every such hypot puts all three at or above T.  The
     rounding of the band's ends moves them by 2^-52 of T*T, inside that
     slack.  CPython's abs(complex) is libm's hypot, within an ulp.

So the batch path forms no hypot, and its codes are classify_point's on
any platform whose hypot is within 2^-43.  SyntheticSlice.classify_grid
gives classify's verdicts for the stand-in slice.  The rasters and the
witness take a classifier's batch function from _grid_of, which for a
classifier with only classify calls it a point at a time under
the same contract.  The membership test built on these verdicts is in
maskit.raster.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .farey import FareySlope

if TYPE_CHECKING:  # imported where a batch runs, so classify_point loads no numpy
    import numpy as np


class Verdict(Enum):
    INSIDE_PLUS = "InsidePlus"
    INSIDE_MINUS = "InsideMinus"
    OUTSIDE_CERTIFIED = "OutsideCertified"
    UNDETERMINED = "Undetermined"

    def __str__(self):
        return self.value


# The verdict thresholds (see the module docstring).  The fan of the three
# nearest translates holds every trace below 2 + INSIDE_MARGIN while that
# bar is at most 3.
REJECT_THRESHOLD = 2.0
INSIDE_MARGIN = 1e-3
assert 0.0 < INSIDE_MARGIN <= 1.0

# Points past this |Re z| are rejected.  Up to it 2.0*n is exact for every
# n the fan forms and Re z + 2.0*n rounds once, so the three fan moduli are
# those of three distinct translates; far past it they round into one.
REAL_PART_LIMIT = 2.0**50

# The uint8 code of each verdict, in classify_grid's output and in raster cells.
CELL_INSIDE_PLUS = 0
CELL_INSIDE_MINUS = 1
CELL_OUTSIDE = 2
CELL_UNDETERMINED = 3

_VERDICT_CODE = {
    Verdict.INSIDE_PLUS: CELL_INSIDE_PLUS,
    Verdict.INSIDE_MINUS: CELL_INSIDE_MINUS,
    Verdict.OUTSIDE_CERTIFIED: CELL_OUTSIDE,
    Verdict.UNDETERMINED: CELL_UNDETERMINED,
}

# The relative half-width of the band about each threshold's square within
# which classify_grid leaves a point to classify_point: wide enough for s's
# error of 2^-51 and a hypot's of 2^-43 (the lemma in the module docstring).
_GUARD = 2.0**-40

# SyntheticSlice's boundary curve: peak height and valley depth.
_SYNTHETIC_PEAK = 2.0
_SYNTHETIC_DEPTH = 0.25


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    witness: FareySlope | None
    explored: int
    reason: str | None = None


def _check_point(z: complex) -> None:
    if not cmath.isfinite(z):
        raise ValueError(f"cannot classify the non-finite point {z}")
    if abs(z.real) > REAL_PART_LIMIT:
        raise ValueError(f"cannot classify {z}: |Re z| exceeds {REAL_PART_LIMIT:g}")


def classify_point(z) -> Classification:
    """Graded verdict for z from the integer fan; a pure function of z.

    Raises ValueError for a non-finite z, which no verdict can describe, and
    for |Re z| > REAL_PART_LIMIT.  An Undetermined verdict carries the reason
    "margin": no fan trace is below REJECT_THRESHOLD, but one lies in
    [REJECT_THRESHOLD, 2 + INSIDE_MARGIN).
    """
    z = complex(z)
    _check_point(z)
    if z.imag == 0.0:
        return Classification(
            Verdict.OUTSIDE_CERTIFIED, None, 0, reason="slice misses the real axis"
        )
    n0 = round(-z.real / 2.0)
    lowest = math.inf
    for explored, n in enumerate(range(n0 - 1, n0 + 2), 1):
        m = abs(z + 2.0 * n)  # |t_{n/1}| = |i(z + 2n)|
        if m < REJECT_THRESHOLD:
            return Classification(Verdict.OUTSIDE_CERTIFIED, FareySlope(n, 1), explored)
        lowest = min(lowest, m)
    if lowest < 2.0 + INSIDE_MARGIN:
        return Classification(Verdict.UNDETERMINED, None, 3, reason="margin")
    side = Verdict.INSIDE_PLUS if z.imag > 0 else Verdict.INSIDE_MINUS
    return Classification(side, None, 3)


@dataclass(frozen=True)
class RealClassifier:
    """The honest classifier, as the value the rasters and witness stages take."""

    def classify(self, z) -> Classification:
        return classify_point(z)

    def classify_grid(self, re, im) -> np.ndarray:
        """Verdict codes (CELL_*) of classify_point at the points re + i*im.

        re and im are float arrays that broadcast to one shape; the uint8
        result has that shape and equals classify_point's verdicts point by
        point, bit for bit.  Raises ValueError where classify_point would,
        at the first such point in row-major order.

        s, the nearest translate's squared modulus, decides every point
        outside the bands about the thresholds' squares, and classify_point
        every point inside one (the lemma in the module docstring).  The
        temporaries are a few arrays of the input's broadcast size: callers
        that bound memory pass batches (see raster._rasterize).
        """
        import numpy as np

        x, y = np.broadcast_arrays(np.asarray(re, np.float64), np.asarray(im, np.float64))
        ok = (np.abs(x) <= REAL_PART_LIMIT) & np.isfinite(y)
        if not ok.all():
            i = int(np.argmin(ok))
            _check_point(complex(float(x.flat[i]), float(y.flat[i])))
        reject_lo, reject_hi, inside_lo, inside_hi = (
            t * t * f
            for t in (REJECT_THRESHOLD, 2.0 + INSIDE_MARGIN)
            for f in (1.0 - _GUARD, 1.0 + _GUARD)
        )
        s = 2.0 * np.rint(-x / 2.0)
        s += x
        s *= s
        s += y * y
        codes = np.where(y > 0, CELL_INSIDE_PLUS, CELL_INSIDE_MINUS).astype(np.uint8)
        codes[s < inside_lo] = CELL_UNDETERMINED
        codes[(s < reject_lo) | (y == 0.0)] = CELL_OUTSIDE
        band = ((reject_lo <= s) & (s <= reject_hi)) | ((inside_lo <= s) & (s <= inside_hi))
        for i in np.flatnonzero(band).tolist():
            z = complex(x.flat[i], y.flat[i])
            codes.flat[i] = _VERDICT_CODE[classify_point(z).verdict]
        return codes

    def describe(self) -> dict:
        return {
            "kind": "real",
            "reject_threshold": REJECT_THRESHOLD,
            "inside_margin": INSIDE_MARGIN,
        }


@dataclass(frozen=True)
class SyntheticSlice:
    """Stand-in slice with a known boundary curve, for pipeline shakedown.

    Inside-plus is {Im z > h(Re z)} with h(x) = peak - depth*(1 - cos(pi x)),
    peak 2 and depth 1/4: same 2-periodicity, evenness, and peak/valley
    layout as the real slice (peaks at even integers, valleys at odd), but
    with exact verdicts and no Undetermined region, so a geometry bug
    shows apart from the honest classifier's Undetermined margin.
    """

    def boundary_height(self, x: float) -> float:
        return _SYNTHETIC_PEAK - _SYNTHETIC_DEPTH * (1.0 - math.cos(math.pi * x))

    def classify(self, z) -> Classification:
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"cannot classify the non-finite point {z}")
        h = self.boundary_height(z.real)
        if z.imag > h:
            return Classification(Verdict.INSIDE_PLUS, None, 1)
        if z.imag < -h:
            return Classification(Verdict.INSIDE_MINUS, None, 1)
        return Classification(
            Verdict.OUTSIDE_CERTIFIED, None, 1, reason="synthetic boundary curve"
        )

    def classify_grid(self, re, im) -> np.ndarray:
        """Verdict codes (CELL_*) of classify at the points re + i*im.

        The contract is RealClassifier.classify_grid's.  The cosine is
        math.cos, as in boundary_height, not numpy's own loop; the other
        operations round the same in numpy, so every code is classify's.
        """
        import numpy as np

        re, im = np.broadcast_arrays(np.asarray(re, np.float64), np.asarray(im, np.float64))
        bad = ~(np.isfinite(re) & np.isfinite(im))
        if bad.any():
            i = int(np.argmax(bad))
            self.classify(complex(float(re.flat[i]), float(im.flat[i])))
        cos = np.fromiter(map(math.cos, (math.pi * re).ravel().tolist()), np.float64, re.size)
        h = _SYNTHETIC_PEAK - _SYNTHETIC_DEPTH * (1.0 - cos.reshape(re.shape))
        return np.where(
            im > h, CELL_INSIDE_PLUS, np.where(im < -h, CELL_INSIDE_MINUS, CELL_OUTSIDE)
        ).astype(np.uint8)

    def describe(self) -> dict:
        return {"kind": "synthetic", "peak": _SYNTHETIC_PEAK, "depth": _SYNTHETIC_DEPTH}


def _grid_of(classifier):
    """The classifier's classify_grid, or for a classifier that has only
    classify, a function with classify_grid's contract that calls classify
    once a point, in row-major order, so a bad point raises at the first one.
    """
    grid = getattr(classifier, "classify_grid", None)
    if grid is not None:
        return grid

    def classify_grid(re, im):
        import numpy as np

        re, im = np.broadcast_arrays(np.asarray(re, np.float64), np.asarray(im, np.float64))
        points = map(complex, re.ravel().tolist(), im.ravel().tolist())
        codes = (_VERDICT_CODE[classifier.classify(z).verdict] for z in points)
        return np.fromiter(codes, np.uint8, re.size).reshape(re.shape)

    return classify_grid
