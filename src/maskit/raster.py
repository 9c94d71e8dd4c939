"""Verdict rasters over complex windows, the membership test, components, images.

A Window is an AxisRectangle, the four bounds it was given, with a grid
of cols x rows pixels.  Pixels map affinely to the plane, row-major with
the top row at maximal imaginary part; cell (i, j) is classified at its
center.  Grids hold small integer verdict codes (uint8), so PPM export
(to_ppm_bytes) is a palette lookup.  components returns a tuple of frozen
Component records.  Callers serialise windows and components with
dataclasses.asdict.

Everything is a pure function of (classifier, window, row range): one
driver classifies in process, whole row chunks, and concatenates them in
order.  Each chunk of the slice raster is one call of the classifier's
batch function (see classify._grid_of).

The membership test is here as well.  w belongs to the locus of the
extended representation at base z exactly when some integer n puts z - snw
in the upper component and z - s(n+1)w in the lower one (s = sign Im w);
the verdict is assembled from the two sub-classifications, conservatively
when either is Undetermined.  membership_grid is its one implementation:
one batch call for every lower test point, a second for the upper ones
whose lower point is not OutsideCertified.  The membership raster, the
witness's samples and membership_with, the test at one w, all go through it.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import (
    CELL_INSIDE_MINUS,
    CELL_INSIDE_PLUS,
    CELL_OUTSIDE,
    CELL_UNDETERMINED,
    REAL_PART_LIMIT,
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


def _whole(n) -> bool:
    """n is an integer, or a float with an integral value (not NaN or infinite)."""
    return isinstance(n, numbers.Integral) or (isinstance(n, float) and n.is_integer())


@dataclass(frozen=True)
class Window(AxisRectangle):
    """An AxisRectangle cut into cols x rows pixels; its bounds are the ones given."""

    cols: int
    rows: int

    def __post_init__(self):
        # NaN, infinite and overflowing bounds all give a width or height that is not finite
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError("window bounds must be finite")
        if max(abs(self.re_min), abs(self.re_max)) > REAL_PART_LIMIT:
            raise ValueError(f"window bounds must satisfy |Re| <= {REAL_PART_LIMIT:g}")
        super().__post_init__()
        if not (_whole(self.cols) and _whole(self.rows)):
            raise ValueError(
                f"window resolution must be whole numbers, got {self.cols!r}x{self.rows!r}"
            )
        if self.cols < 1 or self.rows < 1:
            raise ValueError("window resolution must be >= 1x1")
        # an integral float such as 8.0 is kept as the int 8, which asdict writes as 8
        object.__setattr__(self, "cols", int(self.cols))
        object.__setattr__(self, "rows", int(self.rows))

    @classmethod
    def from_bounds(cls, re_min, re_max, im_min, im_max, cols, rows) -> "Window":
        """The window with these bounds as floats; __post_init__ checks the
        resolution and keeps it as ints."""
        return cls(float(re_min), float(re_max), float(im_min), float(im_max), cols, rows)

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


def _membership_record(z, w: complex, code, n) -> AMembership:
    """The AMembership of membership_grid's code and n at the point w, base
    z: where n is NaN, _membership_shift gives the reason."""
    verdict = AVerdict(_CELL_NAMES[int(code)])
    if math.isnan(n):
        return AMembership(verdict, None, _membership_shift(complex(z), w.imag)[2])
    return AMembership(verdict, int(n))


def membership_with(classifier, z, w) -> AMembership:
    """membership_grid at the one point w, as an AMembership record.

    Pre-condition: the base point z is already certified InsidePlus (see
    check_base_point; callers doing pixel sweeps check once, not per pixel).
    Raises ValueError for a non-finite z or w.
    """
    w = complex(w)
    codes, ns = membership_grid(classifier, z, [w.real], [w.imag])
    return _membership_record(z, w, codes[0], ns[0])


def a_membership(z, w) -> AMembership:
    """Does w belong to the locus of the extended representation at base z?

    Raises ValueError("base point not certified in M+") unless classify_point
    certifies z InsidePlus.
    """
    classifier = RealClassifier()
    check_base_point(classifier, z)
    return membership_with(classifier, z, w)


def membership_grid(classifier, z, w_re, w_im) -> tuple[np.ndarray, np.ndarray]:
    """The two-point membership test at the points w = w_re + i*w_im, at once.

    w_re and w_im are float arrays that broadcast to one shape.  Returns the
    verdict codes (CELL_MEMBER, CELL_NON_MEMBER, CELL_UNDETERMINED) and n of
    each point, as floats; n is NaN where a reason decides (see
    _membership_shift).  s and n come from _membership_shift once per
    distinct Im w; the test points z - s*n*w (upper) and z - s*(n+1)*w
    (lower) are formed a component at a time, Re z - x*Re w and
    Im z - x*Im w with x = s*n or s*(n+1).  That is CPython's complex
    arithmetic but for the sign of a zero coordinate, and only where Re z
    or Im z is -0.0; both shipped classifiers give either sign of zero the
    same verdict.  The classifier's batch function (classify._grid_of)
    takes the lower points of every tested w first, then the upper points
    only where the lower verdict is not CELL_OUTSIDE: one OutsideCertified
    verdict already makes w a NonMember, and classify_grid gives each point
    its own verdict whatever else the batch holds.  Raises ValueError for a
    non-finite z or w, and where classify_grid refuses a test point it
    classifies.
    """
    classify_grid = _grid_of(classifier)
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
        return z.real - x * re, z.imag - x * im

    lower = classify_grid(*test_points(s_t * (n_t + 1.0), re, im))
    rest = np.flatnonzero(lower != CELL_OUTSIDE)  # elsewhere w is a NonMember already
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


def _slice_rows(classifier, xs, ys):
    return _grid_of(classifier)(xs, ys[:, None])


def _membership_rows(classifier, z, xs, ys):
    out = np.full((ys.size, xs.size), CELL_NON_MEMBER, dtype=np.uint8)
    upper = ys >= 0  # the locus is defined in Im w >= 0
    out[upper] = membership_grid(classifier, z, xs, ys[upper, None])[0]
    return out


def _rasterize(win: Window, cells_of, *args) -> Raster:
    """The raster of cells_of(*args, xs, ys) over win, in process, whole row
    chunks: one call per ceil(rows / 8) rows, top to bottom."""
    xs, ys = win.centers()
    chunk = math.ceil(win.rows / 8)
    chunks = [cells_of(*args, xs, ys[i : i + chunk]) for i in range(0, win.rows, chunk)]
    return Raster(window=win, cells=np.concatenate(chunks))


def rasterize_maskit(win: Window, classifier) -> Raster:
    """Per-pixel slice classification at pixel centers."""
    return _rasterize(win, _slice_rows, classifier)


def rasterize_a_slice(z, win: Window, classifier) -> Raster:
    """Per-pixel membership in the extension locus of the base point z.

    Pre-condition: z certifies InsidePlus under the classifier (checked once
    here, then assumed for every pixel).
    """
    z = complex(z)
    check_base_point(classifier, z)
    return _rasterize(win, _membership_rows, classifier, z)


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
