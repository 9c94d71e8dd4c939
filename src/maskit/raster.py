"""Verdict rasters over complex windows, the membership test, components, images.

Pixels map affinely to the plane, row-major with the top row at maximal
imaginary part; cell (i, j) is classified at its center.  Grids hold small
integer verdict codes (uint8), so PPM export (to_ppm_bytes) is a palette
lookup.  components returns a tuple of frozen Component records, which
callers serialise with dataclasses.asdict.

Everything is a pure function of (classifier, window, row range), so the
worker count cannot change any byte of the output: row chunks are mapped
and concatenated in order.  Each chunk of the slice raster is one call of
the classifier's batch function (see classify._grid_of).  A raster of fewer
than _POOL_MIN_PX pixels runs in process whatever the worker count, as for
one worker.

The membership test is here as well.  w belongs to the locus of the
extended representation at base z exactly when some integer n puts z - snw
in the upper component and z - s(n+1)w in the lower one (s = sign Im w);
the verdict is assembled from the two sub-classifications, conservatively
when either is Undetermined.  membership_with tests one w.  membership_grid
forms the same test points for any batch of w, and both the membership
raster and verify_witness's boundary samples go through it: one batch call
for every lower test point, a second for the upper ones whose lower point
is not OutsideCertified.
"""

from __future__ import annotations

import cmath
import math
import multiprocessing
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import (
    CELL_INSIDE_MINUS,
    CELL_INSIDE_PLUS,
    CELL_OUTSIDE,
    CELL_UNDETERMINED,
    REAL_PART_LIMIT,
    Classification,
    ClassifierConfig,
    RealClassifier,
    Verdict,
    _grid_of,
)


class AVerdict(Enum):
    MEMBER = "Member"
    NON_MEMBER_CERTIFIED = "NonMemberCertified"
    UNDETERMINED = "Undetermined"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class AMembership:
    verdict: AVerdict
    n: int | None
    sub_verdicts: tuple[Classification, Classification] | None
    reason: str | None = None


CELL_MEMBER = 4
CELL_NON_MEMBER = 5

# PPM palette: inside-plus black, inside-minus dark gray, outside white,
# undetermined red, member blue, non-member white.
PALETTE = np.array(
    [
        (0, 0, 0),
        (64, 64, 64),
        (255, 255, 255),
        (255, 0, 0),
        (0, 0, 255),
        (255, 255, 255),
    ],
    dtype=np.uint8,
)

# PALETTE's rows as single 3-byte items.  Indexing them by the cell codes
# gives the PPM body without the platform-integer copy of the codes that
# np.take makes (2 MiB at 512x512), in 2.8 ms against 6.8 ms for
# PALETTE[cells] at 512x512 (2-vCPU Xeon).
_PALETTE_PIXELS = PALETTE.view("V3").ravel()

_CELL_NAMES = {
    CELL_INSIDE_PLUS: "InsidePlus",
    CELL_INSIDE_MINUS: "InsideMinus",
    CELL_OUTSIDE: "OutsideCertified",
    CELL_UNDETERMINED: "Undetermined",
    CELL_MEMBER: "Member",
    CELL_NON_MEMBER: "NonMemberCertified",
}

_MEMBER_CODES = frozenset({CELL_INSIDE_PLUS, CELL_INSIDE_MINUS, CELL_MEMBER})

# A raster of fewer pixels runs in process at any worker count.  On a 2-vCPU
# Xeon a two-worker pool took 16 ms to start.  At 65,536 px it made the
# witness counting raster slower (honest 85 -> 123 ms, synthetic 22 -> 33 ms)
# and a render 12% faster; at 131,072 px it made the honest rasters 22-26%
# faster and the synthetic one no slower.
_POOL_MIN_PX = 2**17


@dataclass(frozen=True)
class Window:
    center: complex
    width: float
    height: float
    cols: int
    rows: int

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.center, self.width, self.height))):
            raise ValueError("window bounds must be finite")
        if max(abs(self.re_min), abs(self.re_max)) > REAL_PART_LIMIT:
            raise ValueError(f"window bounds must satisfy |Re| <= {REAL_PART_LIMIT:g}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("window bounds must satisfy re_min < re_max, im_min < im_max")
        if self.cols < 1 or self.rows < 1:
            raise ValueError("window resolution must be >= 1x1")

    @classmethod
    def from_bounds(cls, re_min, re_max, im_min, im_max, cols, rows) -> "Window":
        center = complex((re_min + re_max) / 2.0, (im_min + im_max) / 2.0)
        return cls(center, re_max - re_min, im_max - im_min, int(cols), int(rows))

    @property
    def re_min(self) -> float:
        return self.center.real - self.width / 2.0

    @property
    def re_max(self) -> float:
        return self.center.real + self.width / 2.0

    @property
    def im_min(self) -> float:
        return self.center.imag - self.height / 2.0

    @property
    def im_max(self) -> float:
        return self.center.imag + self.height / 2.0

    def _re_at(self, j):
        return self.re_min + (j + 0.5) * self.width / self.cols

    def _im_at(self, i):
        return self.im_max - (i + 0.5) * self.height / self.rows

    def pixel_center(self, i: int, j: int) -> complex:
        return complex(self._re_at(j), self._im_at(i))

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Re of the column centres and Im of the row centres, as pixel_center gives them."""
        return self._re_at(np.arange(self.cols)), self._im_at(np.arange(self.rows))

    def pixel_of(self, z) -> tuple[int, int]:
        z = complex(z)
        j = math.floor((z.real - self.re_min) * self.cols / self.width)
        i = math.floor((self.im_max - z.imag) * self.rows / self.height)
        return i, j

    def describe(self) -> dict:
        return {
            "re_min": self.re_min,
            "re_max": self.re_max,
            "im_min": self.im_min,
            "im_max": self.im_max,
            "cols": self.cols,
            "rows": self.rows,
        }


@dataclass
class Raster:
    window: Window
    cells: np.ndarray  # uint8 verdict codes, shape (rows, cols)

    def counts(self) -> dict[str, int]:
        """Cells per verdict name, for the verdicts present, in code order."""
        # one boolean temporary at a time: np.bincount would first copy the
        # uint8 codes to a platform integer array, eight times their size
        tally = {name: np.count_nonzero(self.cells == code) for code, name in _CELL_NAMES.items()}
        return {name: int(n) for name, n in tally.items() if n}


def _classify_rows(task):
    classifier, win, i0, i1 = task
    xs, ys = win.centers()
    return _grid_of(classifier)(xs, ys[i0:i1, None])


def check_base_point(classifier, z) -> None:
    """Raise ValueError unless the classifier certifies the base point z InsidePlus."""
    if classifier.classify(z).verdict is not Verdict.INSIDE_PLUS:
        raise ValueError("base point not certified in M+")


def _membership_shift(z: complex, w_imag: float) -> tuple[float, int, str | None]:
    """s = sign Im w and n = floor(Im z / |Im w|) of the test points z - s*n*w
    and z - s*(n+1)*w, or a reason why w is certainly not a member.

    Raises ValueError when Im z / |Im w| overflows: no test point exists.
    """
    if w_imag == 0.0:
        return 0.0, 0, "Im w = 0"
    s = 1.0 if w_imag > 0 else -1.0
    ratio = z.imag / abs(w_imag)
    if math.isinf(ratio):
        raise ValueError(f"cannot test membership at Im w = {w_imag!r}: Im z / |Im w| overflows")
    n = math.floor(ratio)
    if ratio == n:
        return s, n, "Im z is an exact multiple of Im w: a test point lands on the real axis"
    return s, n, None


def membership_with(classifier, z, w) -> AMembership:
    """Two-point membership test against an arbitrary classifier.

    Pre-condition: the base point z is already certified InsidePlus (see
    check_base_point; callers doing pixel sweeps check once, not per pixel).
    Raises ValueError for a non-finite z or w.  Both test points are
    classified, upper first, even where one verdict already decides: the
    record's sub_verdicts carry both.  (membership_grid, which keeps no
    sub_verdicts, skips the upper point where the lower one is outside.)
    """
    z = complex(z)
    w = complex(w)
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise ValueError(f"cannot test membership at the non-finite pair z={z}, w={w}")
    s, n, reason = _membership_shift(z, w.imag)
    if reason is not None:
        return AMembership(AVerdict.NON_MEMBER_CERTIFIED, None, None, reason=reason)
    upper = classifier.classify(z - s * n * w)
    lower = classifier.classify(z - s * (n + 1) * w)
    if (
        upper.verdict is Verdict.INSIDE_PLUS
        and lower.verdict is Verdict.INSIDE_MINUS
    ):
        return AMembership(AVerdict.MEMBER, n, (upper, lower))
    if (
        upper.verdict is Verdict.OUTSIDE_CERTIFIED
        or lower.verdict is Verdict.OUTSIDE_CERTIFIED
    ):
        return AMembership(AVerdict.NON_MEMBER_CERTIFIED, n, (upper, lower))
    return AMembership(AVerdict.UNDETERMINED, n, (upper, lower))


def a_membership(z, w, cfg: ClassifierConfig | None = None) -> AMembership:
    """Does w belong to the locus of the extended representation at base z?

    Raises ValueError("base point not certified in M+") unless classify_point
    certifies z InsidePlus.
    """
    classifier = RealClassifier(cfg or ClassifierConfig())
    check_base_point(classifier, z)
    return membership_with(classifier, z, w)


def _real_times(x, re, im):
    """Re and Im of x*w for a float x and w = re + i*im, rounded as CPython
    rounds a float times a complex, signed zeros included: x becomes
    x + 0.0i, so x*w = (x*Re w - 0.0*Im w, x*Im w + 0.0*Re w)."""
    return x * re - 0.0 * im, x * im + 0.0 * re


def membership_grid(classify_grid, z, w_re, w_im) -> tuple[np.ndarray, np.ndarray]:
    """membership_with's verdicts at the points w = w_re + i*w_im, at once.

    w_re and w_im are float arrays that broadcast to one shape.  Returns the
    verdict codes (CELL_MEMBER, CELL_NON_MEMBER, CELL_UNDETERMINED) and n of
    each point, as floats; n is NaN where membership_with has none and a
    reason decides (see _membership_shift).  s and n come from
    _membership_shift once per distinct Im w; the test points z - s*n*w
    (upper) and z - s*(n+1)*w (lower) are formed as CPython forms them.
    classify_grid takes the lower points of every tested w first, then the
    upper points only where the lower verdict is not CELL_OUTSIDE: one
    OutsideCertified verdict already makes w a NonMember, and classify_grid
    gives each point its own verdict whatever else the batch holds.

    ValueError as membership_with's, naming the same point: membership_with
    classifies the upper point first, so when the lower points raise, every
    upper point is classified before the error propagates.  So is every
    upper point where one that would be skipped is not finite or has
    |Re| > REAL_PART_LIMIT, which only a z outside membership_with's
    pre-condition (certified InsidePlus) allows: classify_grid can then
    refuse it, as membership_with's classifier does.
    """
    z = complex(z)
    w_re = np.asarray(w_re, np.float64)
    w_im = np.asarray(w_im, np.float64)
    if not (cmath.isfinite(z) and np.isfinite(w_re).all() and np.isfinite(w_im).all()):
        raise ValueError(f"cannot test membership at a non-finite z or w (z={z})")
    heights, at = np.unique(w_im, return_inverse=True)
    at = at.reshape(w_im.shape)
    shifts = [_membership_shift(z, y) for y in heights.tolist()]
    s = np.array([sign for sign, _, _ in shifts], np.float64)[at]
    n = np.array([k if why is None else math.nan for _, k, why in shifts], np.float64)[at]
    w_re, w_im, s, n = np.broadcast_arrays(w_re, w_im, s, n)
    codes = np.full(n.shape, CELL_NON_MEMBER, dtype=np.uint8)
    tested = ~np.isnan(n)
    re, im, s_t, n_t = (a[tested] for a in (w_re, w_im, s, n))

    def test_points(x, re, im):
        # |n| < 2^52 here, so x is exact, as with ints.
        x_re, x_im = _real_times(x, re, im)
        return z.real - x_re, z.imag - x_im

    try:
        lower = classify_grid(*test_points(s_t * (n_t + 1.0), re, im))
    except ValueError:
        classify_grid(*test_points(s_t * n_t, re, im))  # a bad upper point is named first
        raise
    skip = lower == CELL_OUTSIDE  # there w is a NonMember already
    x, y = test_points(s_t[skip] * n_t[skip], re[skip], im[skip])
    if not ((np.abs(x) <= REAL_PART_LIMIT) & np.isfinite(y)).all():
        skip[:] = False  # classify_grid may refuse a skipped point: classify them all
    rest = np.flatnonzero(~skip)
    upper = np.full(lower.shape, CELL_OUTSIDE, dtype=np.uint8)
    upper[rest] = classify_grid(*test_points(s_t[rest] * n_t[rest], re[rest], im[rest]))
    codes[tested] = np.where(
        (upper == CELL_INSIDE_PLUS) & (lower == CELL_INSIDE_MINUS),
        CELL_MEMBER,
        np.where(
            (upper == CELL_OUTSIDE) | (lower == CELL_OUTSIDE),
            CELL_NON_MEMBER,
            CELL_UNDETERMINED,
        ),
    )
    return codes, np.array(n)


def _membership_rows(task):
    classifier, z, win, i0, i1 = task
    xs, ys = win.centers()
    ys = ys[i0:i1]
    out = np.full((i1 - i0, win.cols), CELL_NON_MEMBER, dtype=np.uint8)
    upper = ys >= 0  # the locus is defined in Im w >= 0
    out[upper] = membership_grid(_grid_of(classifier), z, xs, ys[upper, None])[0]
    return out


def _workers_for(win: Window, workers: int) -> int:
    """The worker count a raster of win runs on: 1 below _POOL_MIN_PX pixels."""
    return workers if win.rows * win.cols >= _POOL_MIN_PX else 1


def _run_chunks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks)


def _row_chunks(rows: int, workers: int):
    chunk = max(1, math.ceil(rows / max(1, workers * 8)))
    return [(i, min(i + chunk, rows)) for i in range(0, rows, chunk)]


def rasterize_maskit(win: Window, classifier, *, workers: int = 1) -> Raster:
    """Per-pixel slice classification at pixel centers."""
    workers = _workers_for(win, workers)
    tasks = [(classifier, win, i0, i1) for i0, i1 in _row_chunks(win.rows, workers)]
    cells = np.concatenate(_run_chunks(_classify_rows, tasks, workers))
    return Raster(window=win, cells=cells)


def rasterize_a_slice(z, win: Window, classifier, *, workers: int = 1) -> Raster:
    """Per-pixel membership in the extension locus of the base point z.

    Pre-condition: z certifies InsidePlus under the classifier (checked once
    here, then assumed for every pixel).
    """
    z = complex(z)
    check_base_point(classifier, z)
    workers = _workers_for(win, workers)
    tasks = [(classifier, z, win, i0, i1) for i0, i1 in _row_chunks(win.rows, workers)]
    cells = np.concatenate(_run_chunks(_membership_rows, tasks, workers))
    return Raster(window=win, cells=cells)


@dataclass(frozen=True)
class Component:
    label: int
    cells: int
    bbox: tuple[int, int, int, int]  # (i_min, j_min, i_max, j_max), inclusive
    boundary_touching: bool


def components(raster: Raster) -> tuple[Component, ...]:
    """4-connected components of Member/Inside cells (Undetermined excluded).

    Labels are assigned in row-major order of each component's first cell,
    so the result is independent of any traversal implementation detail.
    The search visits member cells only, by flat row-major index: its cost
    follows the member cells, not the raster's size.
    """
    rows, cols = raster.cells.shape
    member = np.flatnonzero(np.isin(raster.cells, list(_MEMBER_CODES))).tolist()
    unseen = set(member)
    comps = []
    for first in member:
        if first not in unseen:
            continue
        unseen.remove(first)
        queue = [first]
        for p in queue:  # grows while it is walked: breadth first
            j = p % cols
            # -1 stands for a neighbour past the left or right edge: never a cell
            for q in (p - cols, p + cols, p - 1 if j else -1, p + 1 if j < cols - 1 else -1):
                if q in unseen:
                    unseen.remove(q)
                    queue.append(q)
        i_min, i_max = first // cols, max(queue) // cols
        j_min = min(p % cols for p in queue)
        j_max = max(p % cols for p in queue)
        touching = i_min == 0 or i_max == rows - 1 or j_min == 0 or j_max == cols - 1
        comps.append(
            Component(len(comps) + 1, len(queue), (i_min, j_min, i_max, j_max), touching)
        )
    return tuple(comps)


def to_ppm_bytes(raster: Raster) -> bytes:
    rows, cols = raster.cells.shape
    header = f"P6\n{cols} {rows}\n255\n".encode("ascii")
    return header + _PALETTE_PIXELS[raster.cells].tobytes()
