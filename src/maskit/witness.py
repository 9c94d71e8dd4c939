"""Bounded-component witness: rectangle search, verification, and counting.

The non-local-connectivity witness is a rectangle construction.  Find an
axis-parallel Q in the upper half-plane, of width < 2, whose two vertical
sides and lower side are certified outside the upper slice component, and a
point z interior to Q, certified inside, positioned so its distance to the
top of Q is exactly twice its distance to the bottom.  Reflect Q through
the point 3z/2... precisely: R = {w : 3z - w in Q}.  Then for the extension
locus at base point 3z:

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
imaginary axis.  Boundary heights are located by bisection -- lowest
certified-inside and highest certified-outside points on the anchor
vertical -- which keeps the search agnostic to whether the classifier is
the honest one (valley floor sqrt(3)) or the synthetic harness (valley
floor 1.5).  A ladder of inside-margins and half-widths is
then tried until every side sample certifies outside.

Every stage takes the classifier as an argument: any object with
.classify(z) and .describe(), such as RealClassifier or SyntheticSlice.
There is no default.  verify_witness tests its boundary samples in one batch
(see raster.membership_grid), and the counting raster classifies whole rows:
through classify_grid, or through classify a point at a time for a
classifier without one.  The report keeps the samples as the arrays the
batch gives: to_json_dict makes the witness document, which counts them,
and samples_json_dict the samples themselves, as columns.  The document's
rectangles and per-translate rows are dataclasses.asdict of their records,
so each field name is its JSON key.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .classify import Verdict, _grid_of
from .raster import (
    _CELL_NAMES,
    CELL_MEMBER,
    CELL_NON_MEMBER,
    AMembership,
    AVerdict,
    Raster,
    Window,
    _real_times,
    check_base_point,
    components,
    membership_grid,
    membership_with,
    rasterize_a_slice,
)


@dataclass(frozen=True)
class AxisRectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle bounds must satisfy re_min < re_max, im_min < im_max")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    def contains_interior(self, z) -> bool:
        z = complex(z)
        return (
            self.re_min < z.real < self.re_max and self.im_min < z.imag < self.im_max
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


def _lowest_inside(clf, x: float, top: float, steps: int) -> float:
    """Smallest height on the vertical through x known to certify InsidePlus."""
    hi = top
    for _ in range(8):
        if clf.classify(complex(x, hi)).verdict is Verdict.INSIDE_PLUS:
            break
        hi *= 1.6
    else:
        raise _ProbeFailed(f"no certified-inside point found above x = {x}")
    lo = 0.0  # the real axis is always outside
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if clf.classify(complex(x, mid)).verdict is Verdict.INSIDE_PLUS:
            hi = mid
        else:
            lo = mid
    return hi


def _highest_outside(clf, x: float, top: float, steps: int) -> float:
    """Largest height below `top` on the vertical known to certify outside."""
    lo = 0.0
    hi = top
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if clf.classify(complex(x, mid)).verdict is Verdict.OUTSIDE_CERTIFIED:
            lo = mid
        else:
            hi = mid
    return lo


class _ProbeFailed(Exception):
    pass


def _boundary_profile(classifier):
    """Coarse certified floor/ceiling heights across the strip (diagnostics)."""
    lo, hi = _STRIP
    n = _PROFILE_POINTS
    out = []
    for k in range(n):
        x = lo + (hi - lo) * k / (n - 1)
        try:
            inside = _lowest_inside(classifier, x, _PROBE_TOP, _PROFILE_STEPS)
        except _ProbeFailed:
            inside = float("nan")
        top = inside if inside == inside else _PROBE_TOP
        outside = _highest_outside(classifier, x, top, _PROFILE_STEPS)
        out.append({"x": x, "outside_floor": outside, "inside_floor": inside})
    return out


def _side_points(q: AxisRectangle, n: int):
    xs = [q.re_min + q.width * k / (n - 1) for k in range(n)]
    ys = [q.im_min + q.height * k / (n - 1) for k in range(n)]
    pts = [complex(x, q.im_min) for x in xs]  # lower side
    pts += [complex(q.re_min, y) for y in ys]  # left side
    pts += [complex(q.re_max, y) for y in ys]  # right side
    return pts


def find_rectangle(classifier) -> tuple[AxisRectangle, complex]:
    """Locate (Q, z): sides certified outside, z inside at the 1/3 height.

    Raises WitnessSearchError (with a boundary-height profile of the strip)
    if no rung of the ladder certifies.  The ladder is finite: at most
    8 + 2 * 42 + 5 * (1 + 5 * 3 * 33) = 2,572 classifier calls.
    """
    x_c = 0.5 * (_STRIP[0] + _STRIP[1])
    try:
        floor_in = _lowest_inside(classifier, x_c, _PROBE_TOP, _BISECT_STEPS)
    except _ProbeFailed as exc:
        raise WitnessSearchError(str(exc), _boundary_profile(classifier)) from None
    floor_out = _highest_outside(classifier, x_c, floor_in, _BISECT_STEPS)
    for m in _INSIDE_MARGINS:
        zy = floor_in + m
        z = complex(x_c, zy)
        if classifier.classify(z).verdict is not Verdict.INSIDE_PLUS:
            continue
        d = (zy - floor_out) + m
        y0 = zy - d  # certified-outside band, margin m below floor_out
        y1 = zy + 2.0 * d  # the 2:1 height split, exact by construction
        if y0 <= 0.0:
            continue
        for u in _HALF_WIDTHS:
            q = AxisRectangle(x_c - u, x_c + u, y0, y1)
            if all(
                classifier.classify(p).verdict is Verdict.OUTSIDE_CERTIFIED
                for p in _side_points(q, _SIDE_SAMPLES)
            ):
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


def _boundary_arrays(r: AxisRectangle, spacing: float):
    """The points along the four sides of r, corners included, at most
    spacing apart, and their inward unit normals: four float arrays, Re and
    Im of each point, then Re and Im of its normal."""
    nx = max(2, math.ceil(r.width / spacing) + 1)
    ny = max(2, math.ceil(r.height / spacing) + 1)
    xs = r.re_min + r.width * np.arange(nx) / (nx - 1)
    ys = r.im_min + r.height * np.arange(ny) / (ny - 1)
    sides = [nx, nx, ny, ny]  # top, bottom, left, right
    re = np.concatenate([xs, xs, np.repeat([r.re_min, r.re_max], ny)])
    im = np.concatenate([np.repeat([r.im_max, r.im_min], nx), ys, ys])
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

    The samples, their nudged copies (w + margin*inward, rounded as CPython
    rounds it) and the mask of samples that held are numpy arrays.  All
    samples are tested in one membership_grid batch and the copies of those
    that held in another.  The report keeps the samples and the first
    batch's codes and n, which are membership_with's verdict and n at each
    sample.
    """
    z = complex(z)
    if not q.contains_interior(z):
        raise ValueError("z must be interior to Q")
    base = 3.0 * z
    check_base_point(classifier, base)
    r = build_R(q, z)
    pitch = r.height / raster_rows
    spacing = pitch / 2.0
    margin = 2.0 * pitch

    interior = membership_with(classifier, base, 2.0 * z)

    re, im, in_re, in_im = _boundary_arrays(r, spacing)
    grid = _grid_of(classifier)
    codes, ns = membership_grid(grid, base, re, im)
    ok = codes == CELL_NON_MEMBER
    held = np.flatnonzero(ok)  # only these have their copy tested
    shift_re, shift_im = _real_times(margin, in_re[held], in_im[held])  # margin * inward
    copy_re, copy_im = re[held] + shift_re, im[held] + shift_im
    ok[held] = membership_grid(grid, base, copy_re, copy_im)[0] == CELL_NON_MEMBER
    offending = list(map(complex, re[~ok].tolist(), im[~ok].tolist()))

    all_certified = interior.verdict is AVerdict.MEMBER and not offending
    return WitnessReport(
        Q=q,
        z=z,
        R=r,
        interior_sample_verdict=interior,
        sample_re=re,
        sample_im=im,
        sample_codes=codes,
        sample_n=ns,
        all_certified=all_certified,
        offending_samples=tuple(offending),
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
            "window": self.raster.window.describe(),
            "per_translate": [asdict(t) for t in self.per_translate],
            "straddlers": list(self.straddlers),
            "counting_ok": self.ok,
        }


def components_near_infinity(
    z,
    k: int,
    classifier,
    *,
    rectangle: AxisRectangle,
    cols: int = 1024,
    rows: int = 64,
    workers: int = 1,
) -> ComponentsNearInfinity:
    """Count locus components over k horizontal translates R + 2j.

    Pre-condition: (Q, z0) passed verify_witness and z = 3*z0, rectangle = R.
    ok is True when each translate contains its own component (holding the
    translated member point 2z/3 + 2j), no component straddles translates,
    and at least k components are found.
    """
    if k < 1:
        raise ValueError("need k >= 1 translates")
    z = complex(z)
    r = rectangle
    win = Window.from_bounds(
        r.re_min, r.re_max + 2.0 * (k - 1), r.im_min, r.im_max, cols, rows
    )
    raster = rasterize_a_slice(z, win, classifier=classifier, workers=workers)
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
        member_pt = (2.0 / 3.0) * z + 2.0 * j
        i, jj = win.pixel_of(member_pt)
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
