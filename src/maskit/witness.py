"""Bounded-component witness: rectangle search, verification, and counting.

The non-local-connectivity witness is a rectangle construction.  Find an
axis-parallel Q in the upper half-plane, of width < 2, whose two vertical
sides and lower side are certified outside the upper slice component, and a
point z interior to Q, certified inside, positioned so its distance to the
top of Q is exactly twice its distance to the bottom.  Reflect Q through
the point 3z/2: R = {w : 3z - w in Q}.  Then for the extension locus at
base point 3z:

  * 2z lies interior to R and is a Member (the n = 1 test points are z
    itself and -z, inside the upper/lower components respectively);
  * every w on the boundary of R has its upper test point 3z - w on the
    certified-outside sides of Q, or (for the lower side of R) its lower
    test point 3z - 2w so close to the real axis that it is rejected by an
    integer-slope trace -- so the boundary is certified NonMember.

A certified Member region surrounded by a certified NonMember curve is a
bounded component; horizontal period-2 translates R + 2j repeat it, giving
as many pairwise-disconnected components as the window shows.

The search is anchored on the vertical line through the midpoint of the
strip (-2, 0): the valley between the two cusp peaks adjacent to the
imaginary axis.  Boundary heights are located by one bisection, run twice
-- lowest certified-inside and highest certified-outside points on the
anchor vertical -- which keeps the search agnostic to whether the
classifier is the honest one (valley floor sqrt(3)) or the synthetic
harness (valley floor 1.5).  A ladder of inside-margins and half-widths is
then tried until every side sample certifies outside.

Every stage takes the classifier as an argument: any object with
.classify(z) and .describe(), such as RealClassifier or SyntheticSlice.
There is no default.  One record passes from stage to stage: find_rectangle
gives (Q, z), verify_witness the WitnessReport, which holds R and the raster
rows its samples are spaced for, and components_near_infinity counts from
that report alone.  verify_witness tests its boundary samples, their
nudged copies and 2z in one batch (see raster.membership_grid), and the
counting raster classifies whole rows: through classify_grid, or through
classify a point at a time for a classifier without one.  The report keeps
the samples as the arrays the batch gives: to_json_dict makes the witness
document, which counts them, and samples_json_dict the samples themselves,
as columns.  Q, R and the counting window are raster.AxisRectangle
records, and _boundary_arrays places the samples on the sides of Q and of
R alike.  The document's rectangles, window and per-translate rows are
dataclasses.asdict of their records, so each field name is its JSON key.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .classify import Verdict
from .raster import (
    _CELL_NAMES,
    CELL_MEMBER,
    CELL_NON_MEMBER,
    AMembership,
    AVerdict,
    AxisRectangle,
    Raster,
    Window,
    _membership_record,
    check_base_point,
    components,
    membership_grid,
    rasterize_a_slice,
)


# The search ladder; see the module docstring for the geometry.  Every
# half-width is below 1, so Q is always narrower than the period 2.
_STRIP = (-2.0, 0.0)
_INSIDE_MARGINS = (0.015, 0.025, 0.04, 0.065, 0.1)
_HALF_WIDTHS = (0.45, 0.38, 0.32, 0.27, 0.22)
_SIDE_SAMPLES = 33
_PROBE_TOP = 2.5
_BISECT_STEPS = 42
# The diagnostic profile: verticals across the strip, bisection steps on each.
_PROFILE_POINTS = 9
_PROFILE_STEPS = 24


class WitnessSearchError(RuntimeError):
    """Search exhausted; carries a boundary-height profile across the strip."""

    def __init__(self, message, profile):
        super().__init__(message)
        self.profile = list(profile)


def _bisect(clf, x: float, top: float, steps: int, above) -> tuple[float, float]:
    """[lo, hi] after halving [0, top] steps times on the vertical through x,
    keeping the half where above(verdict) turns from False to True."""
    lo, hi = 0.0, top  # the real axis is always outside
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if above(clf.classify(complex(x, mid)).verdict):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _inside(verdict) -> bool:
    return verdict is Verdict.INSIDE_PLUS


def _not_outside(verdict) -> bool:
    return verdict is not Verdict.OUTSIDE_CERTIFIED


def _lowest_inside(clf, x: float, top: float, steps: int) -> float:
    """Smallest height on the vertical through x known to certify InsidePlus:
    NaN when none of 8 probes, from top up by a factor 1.6 each, certifies."""
    for _ in range(8):
        if _inside(clf.classify(complex(x, top)).verdict):
            return _bisect(clf, x, top, steps, _inside)[1]
        top *= 1.6
    return math.nan


def _boundary_profile(classifier):
    """Coarse certified floor/ceiling heights across the strip (diagnostics)."""
    lo, hi = _STRIP
    out = []
    for k in range(_PROFILE_POINTS):
        x = lo + (hi - lo) * k / (_PROFILE_POINTS - 1)
        inside = _lowest_inside(classifier, x, _PROBE_TOP, _PROFILE_STEPS)
        top = _PROBE_TOP if math.isnan(inside) else inside
        outside = _bisect(classifier, x, top, _PROFILE_STEPS, _not_outside)[0]
        out.append({"x": x, "outside_floor": outside, "inside_floor": inside})
    return out


def find_rectangle(classifier) -> tuple[AxisRectangle, complex]:
    """Locate (Q, z): sides certified outside, z inside at the 1/3 height.

    Raises WitnessSearchError (with a boundary-height profile of the strip)
    if no point is certified inside, or no rung of the ladder certifies.  The
    search is finite: at most 8 + 2 * 42 + 5 * (1 + 5 * 3 * 33) = 2,572
    classifier calls, and a failed search then builds the profile, at most
    9 * (8 + 24 + 24) = 504 more, so 3,076 in all.
    """
    x_c = 0.5 * (_STRIP[0] + _STRIP[1])
    floor_in = _lowest_inside(classifier, x_c, _PROBE_TOP, _BISECT_STEPS)
    if math.isnan(floor_in):
        raise WitnessSearchError(
            f"no certified-inside point found above x = {x_c}", _boundary_profile(classifier)
        )
    floor_out = _bisect(classifier, x_c, floor_in, _BISECT_STEPS, _not_outside)[0]
    for m in _INSIDE_MARGINS:
        zy = floor_in + m
        z = complex(x_c, zy)
        d = (zy - floor_out) + m
        y0 = zy - d  # certified-outside band, margin m below floor_out
        y1 = zy + 2.0 * d  # the 2:1 height split, exact by construction
        if not _inside(classifier.classify(z).verdict) or y0 <= 0.0:
            continue
        for u in _HALF_WIDTHS:
            q = AxisRectangle(x_c - u, x_c + u, y0, y1)
            re, im, _, _ = _boundary_arrays(q, _SIDE_SAMPLES, _SIDE_SAMPLES)
            # the lower, left and right sides: all but the top's _SIDE_SAMPLES points
            sides = map(complex, re[_SIDE_SAMPLES:].tolist(), im[_SIDE_SAMPLES:].tolist())
            if all(classifier.classify(p).verdict is Verdict.OUTSIDE_CERTIFIED for p in sides):
                return q, z
    raise WitnessSearchError(
        "no certified rectangle found within the search ladder",
        _boundary_profile(classifier),
    )


def build_R(q: AxisRectangle, z) -> AxisRectangle:
    """The reflected rectangle {w : 3z - w in Q}; exact bound arithmetic."""
    z = complex(z)
    if not q.contains_interior(z):
        raise ValueError("z must be interior to Q")
    return AxisRectangle(
        3.0 * z.real - q.re_max,
        3.0 * z.real - q.re_min,
        3.0 * z.imag - q.im_max,
        3.0 * z.imag - q.im_min,
    )


def normalized_length(w) -> float:
    """Length of the translation w normalized by the coarea of the lattice <2, w>.

    The two parabolic translations 2 (from b) and w (from c) span a rank-two
    lattice of area 2*Im(w); the scale-free length of the w-curve in that
    lattice is |w| / sqrt(2*Im(w)).  Defined for Im w > 0 only.
    """
    w = complex(w)
    if w.imag <= 0:
        raise ValueError("not a valid cusp parameter: Im w must be positive")
    return abs(w) / math.sqrt(2.0 * w.imag)


@dataclass(frozen=True, eq=False)  # eq=False: == cannot compare the arrays
class WitnessReport:
    Q: AxisRectangle
    z: complex
    R: AxisRectangle
    raster_rows: int  # R.height / raster_rows is the samples' pitch; the count's rows
    interior_sample_verdict: AMembership
    # The boundary samples w = sample_re + i*sample_im in _boundary_arrays'
    # order, and membership_grid's verdict code and n of each: n is NaN
    # where a reason decides.
    sample_re: np.ndarray
    sample_im: np.ndarray
    sample_codes: np.ndarray
    sample_n: np.ndarray
    all_certified: bool
    offending_samples: tuple
    sample_spacing: float
    inward_margin: float

    def to_json_dict(self, counting: ComponentsNearInfinity, cfg_meta: dict) -> dict:
        """The witness JSON document: this report plus the translate count.

        The samples are counted, by verdict in order of first appearance, but
        not listed: samples_json_dict lists them.
        """
        verdict_counts = dict(Counter(map(_CELL_NAMES.__getitem__, self.sample_codes.tolist())))
        return {
            "q": asdict(self.Q),
            "z": [self.z.real, self.z.imag],
            "r": asdict(self.R),
            "interior_verdict": {
                "verdict": self.interior_sample_verdict.verdict.value,
                "n": self.interior_sample_verdict.n,
            },
            "boundary_samples": {
                "count": self.sample_codes.size,
                "spacing": self.sample_spacing,
                "inward_margin": self.inward_margin,
                "verdicts": verdict_counts,
                "offending": [[w.real, w.imag] for w in self.offending_samples],
            },
            "components": counting.describe(),
            "all_certified": self.all_certified,
            "cfg": cfg_meta,
            "diagnostics": {
                "normalized_length_2z": normalized_length(2.0 * self.z),
                "k": len(counting.per_translate),
                "synthetic": cfg_meta.get("kind") == "synthetic",
            },
        }

    def samples_json_dict(self) -> dict:
        """The boundary samples as columns, in _boundary_arrays' order: Re w,
        Im w, the verdict's name and n, None where a reason decides."""
        return {
            "re": self.sample_re.tolist(),
            "im": self.sample_im.tolist(),
            "verdict": [_CELL_NAMES[code] for code in self.sample_codes.tolist()],
            "n": [None if math.isnan(n) else int(n) for n in self.sample_n.tolist()],
        }


def _boundary_arrays(r: AxisRectangle, nx: int, ny: int):
    """Evenly spaced points on the sides of r, corners included: nx on the
    top, then nx on the bottom, each from left to right, then ny on the left
    and ny on the right, each from bottom to top.  Four float arrays: Re and
    Im of each point, then Re and Im of its inward unit normal."""
    xs = r.re_min + r.width * np.arange(nx) / (nx - 1)
    ys = r.im_min + r.height * np.arange(ny) / (ny - 1)
    sides = [nx, nx, ny, ny]  # top, bottom, left, right
    re = np.r_[xs, xs, np.repeat([r.re_min, r.re_max], ny)]
    im = np.r_[np.repeat([r.im_max, r.im_min], nx), ys, ys]
    return re, im, np.repeat([0.0, 0.0, 1.0, -1.0], sides), np.repeat([-1.0, 1.0, 0.0, 0.0], sides)


def verify_witness(
    q: AxisRectangle, z, classifier, *, raster_rows: int = 64
) -> WitnessReport:
    """Check the witness predicates for (Q, z) under the classifier.

    Interior: 2z must be a Member at base point 3z.  Boundary: every sample
    on the four sides of R -- and its copy nudged inward by two raster
    pitches -- must be NonMemberCertified.  The pitch is R height /
    raster_rows, and samples lie half a pitch apart.
    all_certified reports the conjunction; failures are listed, not raised.

    The samples, their nudged copies and 2z are numpy arrays, tested
    together in one membership_grid batch.  A copy is w + margin*inward
    formed a component at a time; as margin > 0 and each component of the
    inward normal is 0 or +-1, that is CPython's complex result bit for
    bit.  classify_grid gives each point its own verdict, so each verdict
    is the one the point has alone.  The report keeps the samples and their
    codes and n, and raster_rows, the rows components_near_infinity counts
    at.  Raises ValueError unless raster_rows is an integer of at least 1.
    """
    if not isinstance(raster_rows, int) or raster_rows < 1:
        raise ValueError(f"raster_rows must be an integer >= 1, got {raster_rows!r}")
    z = complex(z)
    r = build_R(q, z)
    base = 3.0 * z
    check_base_point(classifier, base)
    pitch = r.height / raster_rows
    spacing = pitch / 2.0
    margin = 2.0 * pitch

    # the fewest points a side that keeps neighbours at most spacing apart
    nx = max(2, math.ceil(r.width / spacing) + 1)
    ny = max(2, math.ceil(r.height / spacing) + 1)
    re, im, in_re, in_im = _boundary_arrays(r, nx, ny)
    w = 2.0 * z
    # the samples, then their copies, then 2z
    codes, ns = membership_grid(
        classifier,
        base,
        np.r_[re, re + margin * in_re, w.real],
        np.r_[im, im + margin * in_im, w.imag],
    )
    interior = _membership_record(base, w, codes[-1], ns[-1])
    m = re.size
    bad = codes != CELL_NON_MEMBER
    bad = bad[:m] | bad[m:-1]  # the sample or its copy
    offending = tuple(map(complex, re[bad].tolist(), im[bad].tolist()))
    return WitnessReport(
        Q=q,
        z=z,
        R=r,
        raster_rows=raster_rows,
        interior_sample_verdict=interior,
        sample_re=re,
        sample_im=im,
        sample_codes=codes[:m].copy(),  # copies: no view keeps the whole batch alive
        sample_n=ns[:m].copy(),
        all_certified=interior.verdict is AVerdict.MEMBER and not offending,
        offending_samples=offending,
        sample_spacing=spacing,
        inward_margin=margin,
    )


@dataclass(frozen=True)
class TranslateCount:
    """Per-translate component accounting for the counting raster."""

    translate: int
    re_min: float
    re_max: float
    components: tuple[int, ...]
    member_point_ok: bool
    ok: bool


@dataclass
class ComponentsNearInfinity:
    raster: Raster
    per_translate: list[TranslateCount]
    straddlers: tuple[int, ...]
    components_found: int
    ok: bool

    def describe(self) -> dict:
        return {
            "found": self.components_found,
            "window": asdict(self.raster.window),
            "per_translate": [asdict(t) for t in self.per_translate],
            "straddlers": list(self.straddlers),
            "counting_ok": self.ok,
        }


def components_near_infinity(
    report: WitnessReport, k: int, classifier, *, cols: int = 1024
) -> ComponentsNearInfinity:
    """Count locus components over k horizontal translates R + 2j.

    The raster is the locus at the report's base point 3z over R widened by
    2(k - 1), at cols x report.raster_rows pixels.  ok is True when each
    translate contains its own component (holding the translated member
    point 2z + 2j), no component straddles translates, and at least k
    components are found.
    """
    if k < 1:
        raise ValueError("need k >= 1 translates")
    base = 3.0 * report.z
    r = report.R
    win = Window.from_bounds(
        r.re_min, r.re_max + 2.0 * (k - 1), r.im_min, r.im_max, cols, report.raster_rows
    )
    raster = rasterize_a_slice(base, win, classifier=classifier)
    comps = components(raster)

    owner: dict[int, int] = {}
    straddlers = []
    for c in comps:
        _, j_min, _, j_max = c.bbox
        # Re of the centres of the component's leftmost and rightmost pixels
        lo, hi = (win.pixel_center(0, jj).real for jj in (j_min, j_max))
        for j in range(k):
            if lo >= r.re_min + 2.0 * j and hi <= r.re_max + 2.0 * j:
                owner[c.label] = j
                break
        else:
            straddlers.append(c.label)

    per_translate = []
    all_ok = True
    for j in range(k):
        labels = tuple(sorted(lbl for lbl, o in owner.items() if o == j))
        i, jj = win.pixel_of((2.0 / 3.0) * base + 2.0 * j)
        member_ok = bool(
            0 <= i < win.rows
            and 0 <= jj < win.cols
            and raster.cells[i, jj] == CELL_MEMBER
        )
        ok = bool(labels) and member_ok
        all_ok = all_ok and ok
        per_translate.append(
            TranslateCount(
                translate=j,
                re_min=r.re_min + 2.0 * j,
                re_max=r.re_max + 2.0 * j,
                components=labels,
                member_point_ok=member_ok,
                ok=ok,
            )
        )
    ok = all_ok and not straddlers and len(comps) >= k
    return ComponentsNearInfinity(
        raster=raster,
        per_translate=per_translate,
        straddlers=tuple(straddlers),
        components_found=len(comps),
        ok=ok,
    )
