"""Tests for pixel grids, rasterization, components, and PPM output."""

import contextlib
import json
import math
from collections import deque
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import maskit.classify
import maskit.raster
from maskit import (
    CELL_INSIDE_MINUS,
    CELL_INSIDE_PLUS,
    CELL_MEMBER,
    CELL_NON_MEMBER,
    CELL_OUTSIDE,
    CELL_UNDETERMINED,
    AMembership,
    AVerdict,
    Component,
    Raster,
    RealClassifier,
    SyntheticSlice,
    Verdict,
    Window,
    classify_point,
    components,
    membership_with,
    rasterize_a_slice,
    rasterize_maskit,
    to_ppm_bytes,
)
from maskit.classify import _VERDICT_CODE, REAL_PART_LIMIT

# AMembership's verdicts as the codes of rasterize_a_slice and membership_grid
_AVERDICT_CODE = {
    AVerdict.MEMBER: CELL_MEMBER,
    AVerdict.NON_MEMBER_CERTIFIED: CELL_NON_MEMBER,
    AVerdict.UNDETERMINED: CELL_UNDETERMINED,
}


def scalar_membership(classifier, z, w) -> AMembership:
    """The scalar reference for membership_grid: the two-point test at one
    w, upper point first, each through classifier.classify."""
    z, w = complex(z), complex(w)
    s, n, reason = maskit.raster._membership_shift(z, w.imag)
    if reason is not None:
        return AMembership(AVerdict.NON_MEMBER_CERTIFIED, None, reason)
    upper = classifier.classify(z - s * n * w).verdict
    lower = classifier.classify(z - s * (n + 1) * w).verdict
    if upper is Verdict.INSIDE_PLUS and lower is Verdict.INSIDE_MINUS:
        return AMembership(AVerdict.MEMBER, n)
    if Verdict.OUTSIDE_CERTIFIED in (upper, lower):
        return AMembership(AVerdict.NON_MEMBER_CERTIFIED, n)
    return AMembership(AVerdict.UNDETERMINED, n)


def _raster_of(cells):
    cells = np.asarray(cells, dtype=np.uint8)
    rows, cols = cells.shape
    win = Window.from_bounds(0.0, float(cols), 0.0, float(rows), cols, rows)
    return Raster(window=win, cells=cells)


# ---------------------------------------------------------------------------
# Window geometry
# ---------------------------------------------------------------------------


def test_window_from_bounds_basic():
    win = Window.from_bounds(-3.0, 3.0, 0.0, 3.0, 512, 256)
    assert win.re_min == -3.0
    assert win.re_max == 3.0
    assert win.im_min == 0.0
    assert win.im_max == 3.0
    assert win.cols == 512
    assert win.rows == 256
    assert (win.width, win.height) == (6.0, 3.0)


def test_window_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        Window.from_bounds(1.0, 1.0, 0.0, 2.0, 8, 8)
    with pytest.raises(ValueError):
        Window.from_bounds(0.0, 1.0, 2.0, 2.0, 8, 8)
    with pytest.raises(ValueError):
        Window.from_bounds(2.0, 1.0, 0.0, 2.0, 8, 8)


@pytest.mark.parametrize(
    "bounds",
    [
        (0.0, 1.0, 0.0, math.inf),
        (-math.inf, 1.0, 0.0, 1.0),
        (math.nan, 1.0, 0.0, 1.0),
        (0.0, 1.0, math.nan, 1.0),
        (-1e308, 1e308, 0.0, 1.0),  # the width overflows
    ],
)
def test_window_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        Window.from_bounds(*bounds, 8, 8)


def test_window_rejects_real_parts_past_the_classifier_limit():
    from maskit.classify import REAL_PART_LIMIT

    Window.from_bounds(REAL_PART_LIMIT - 1.0, REAL_PART_LIMIT, 0.0, 1.0, 8, 8)
    with pytest.raises(ValueError, match=r"\|Re\|"):
        Window.from_bounds(REAL_PART_LIMIT, 2.0 * REAL_PART_LIMIT, 0.0, 1.0, 8, 8)
    with pytest.raises(ValueError, match=r"\|Re\|"):
        Window.from_bounds(-1e300, 0.0, 0.0, 1.0, 8, 8)


@given(
    re_min=st.floats(min_value=-10.0, max_value=10.0),
    im_min=st.floats(min_value=-10.0, max_value=10.0),
    width=st.floats(min_value=1e-3, max_value=20.0),
    height=st.floats(min_value=1e-3, max_value=20.0),
    cols=st.integers(min_value=1, max_value=9),
    rows=st.integers(min_value=1, max_value=9),
)
def test_centers_are_the_pixel_centers(re_min, im_min, width, height, cols, rows):
    win = Window.from_bounds(re_min, re_min + width, im_min, im_min + height, cols, rows)
    xs, ys = win.centers()
    assert [complex(x, y) for y in ys for x in xs] == [
        win.pixel_center(i, j) for i in range(rows) for j in range(cols)
    ]


def test_window_rejects_empty_resolution():
    with pytest.raises(ValueError):
        Window.from_bounds(0.0, 1.0, 0.0, 1.0, 0, 8)
    with pytest.raises(ValueError):
        Window.from_bounds(0.0, 1.0, 0.0, 1.0, 8, 0)


@pytest.mark.parametrize("n", [2.7, 1.9, math.inf, -math.inf, math.nan, "3"])
def test_window_rejects_a_resolution_that_is_not_a_whole_number(n):
    # a pixel count is whole: neither truncated (2.7 to 2) nor kept as given
    for res in ((n, 3), (3, n)):
        with pytest.raises(ValueError, match="whole numbers"):
            Window.from_bounds(0.0, 1.0, 0.0, 1.0, *res)
        with pytest.raises(ValueError, match="whole numbers"):
            Window(0.0, 1.0, 0.0, 1.0, *res)


def test_pixel_center_corners():
    # 2x2 grid on the unit square: centers sit at the quarter points,
    # with row 0 at the TOP (image convention).
    win = Window.from_bounds(0.0, 1.0, 0.0, 1.0, 2, 2)
    assert win.pixel_center(0, 0) == complex(0.25, 0.75)
    assert win.pixel_center(0, 1) == complex(0.75, 0.75)
    assert win.pixel_center(1, 0) == complex(0.25, 0.25)
    assert win.pixel_center(1, 1) == complex(0.75, 0.25)


@given(
    i=st.integers(min_value=0, max_value=15),
    j=st.integers(min_value=0, max_value=23),
)
def test_pixel_center_roundtrips_through_pixel_of(i, j):
    win = Window.from_bounds(-2.5, 1.75, 0.5, 3.25, 24, 16)
    assert win.pixel_of(win.pixel_center(i, j)) == (i, j)


@given(
    x=st.floats(min_value=-2.499, max_value=1.749),
    y=st.floats(min_value=0.501, max_value=3.249),
)
def test_pixel_of_center_stays_within_half_cell(x, y):
    win = Window.from_bounds(-2.5, 1.75, 0.5, 3.25, 24, 16)
    i, j = win.pixel_of(complex(x, y))
    assert 0 <= i < win.rows and 0 <= j < win.cols
    c = win.pixel_center(i, j)
    assert abs(c.real - x) <= win.width / win.cols / 2 + 1e-12
    assert abs(c.imag - y) <= win.height / win.rows / 2 + 1e-12


_BOUNDS = st.floats(min_value=-REAL_PART_LIMIT, max_value=REAL_PART_LIMIT)


@given(
    re=st.tuples(_BOUNDS, _BOUNDS).map(sorted),
    im=st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)).map(sorted),
    cols=st.integers(min_value=1, max_value=4096),
    rows=st.integers(min_value=1, max_value=4096),
)
@example(re=[0.1, 0.7], im=[1.6, 1.75], cols=16, rows=8)
def test_window_keeps_its_bounds(re, im, cols, rows):
    # A window's JSON record is the bounds and resolution it was given, and
    # builds the same window again.
    try:
        win = Window.from_bounds(*re, *im, cols, rows)
    except ValueError:
        reject()
    want = dict(re_min=re[0], re_max=re[1], im_min=im[0], im_max=im[1], cols=cols, rows=rows)
    assert asdict(win) == want
    assert all(type(v) is float for v in (win.re_min, win.re_max, win.im_min, win.im_max))
    assert Window.from_bounds(**asdict(win)) == win


def test_window_from_bounds_takes_floats_and_ints():
    win = Window.from_bounds(-4, 4, 0, 10, 8.0, 2.0)
    assert json.dumps(asdict(win)) == (
        '{"re_min": -4.0, "re_max": 4.0, "im_min": 0.0, "im_max": 10.0, "cols": 8, "rows": 2}'
    )


# ---------------------------------------------------------------------------
# Slice rasterization
# ---------------------------------------------------------------------------


def test_rasterize_all_outside_golden_ppm():
    # A sliver hugging the real axis: every pixel center has |z| < 2, which
    # is certified outside immediately, so the image is pure white.
    win = Window.from_bounds(-0.2, 0.2, 0.05, 0.15, 4, 2)
    raster = rasterize_maskit(win, RealClassifier())
    assert np.all(raster.cells == CELL_OUTSIDE)
    assert to_ppm_bytes(raster) == b"P6\n4 2\n255\n" + b"\xff\xff\xff" * 8


def test_rasterize_all_inside_golden_ppm():
    # Deep interior around 4i: pure black.
    win = Window.from_bounds(-0.1, 0.1, 3.9, 4.1, 2, 2)
    raster = rasterize_maskit(win, RealClassifier())
    assert np.all(raster.cells == CELL_INSIDE_PLUS)
    assert to_ppm_bytes(raster) == b"P6\n2 2\n255\n" + b"\x00\x00\x00" * 4


def test_rasters_classify_row_chunks_of_ceil_rows_over_8(monkeypatch):
    # One batch call per ceil(rows / 8) whole rows, top to bottom; the chunks
    # give the cells of one call over every row.
    sizes = []
    for name in ("_slice_rows", "_membership_rows"):

        def recording(*args, _cells_of=getattr(maskit.raster, name)):
            sizes.append(args[-1].size)
            return _cells_of(*args)

        monkeypatch.setattr(maskit.raster, name, recording)
    clf = RealClassifier()
    for rows, chunks in ((8, [1] * 8), (3, [1] * 3), (20, [3] * 6 + [2])):
        win = Window.from_bounds(-3.0, 3.0, 0.0, 3.0, 16, rows)
        sizes.clear()
        raster = rasterize_maskit(win, clf)
        assert sizes == chunks
        xs, ys = win.centers()
        assert np.array_equal(raster.cells, clf.classify_grid(xs, ys[:, None]))
    win = Window.from_bounds(-1.0, 1.0, 0.5, 9.0, 4, 17)
    sizes.clear()
    raster = rasterize_a_slice(4j, win, clf)
    assert sizes == [3] * 5 + [2]
    xs, ys = win.centers()
    assert np.array_equal(raster.cells, maskit.raster.membership_grid(clf, 4j, xs, ys[:, None])[0])


def test_rasterize_maskit_counts_names():
    win = Window.from_bounds(-3.0, 3.0, 0.0, 3.0, 16, 8)
    raster = rasterize_maskit(win, RealClassifier())
    counts = raster.counts()
    assert sum(counts.values()) == 16 * 8
    assert counts.get("InsidePlus", 0) > 0
    assert counts.get("OutsideCertified", 0) > 0
    allowed = {"InsidePlus", "InsideMinus", "OutsideCertified", "Undetermined"}
    assert set(counts) <= allowed


@given(
    cells=st.lists(st.sampled_from(range(6)), min_size=1, max_size=64).map(
        lambda codes: np.array(codes, np.uint8).reshape(1, -1)
    )
)
@settings(max_examples=60, deadline=None)
def test_counts_and_ppm_are_the_sorted_unique_tally_and_the_palette_rows(cells):
    raster = _raster_of(cells)
    names = {
        CELL_INSIDE_PLUS: "InsidePlus",
        CELL_INSIDE_MINUS: "InsideMinus",
        CELL_OUTSIDE: "OutsideCertified",
        CELL_UNDETERMINED: "Undetermined",
        CELL_MEMBER: "Member",
        CELL_NON_MEMBER: "NonMemberCertified",
    }
    codes, tally = np.unique(cells, return_counts=True)
    assert list(raster.counts().items()) == [
        (names[c], n) for c, n in zip(codes.tolist(), tally.tolist())
    ]
    header = f"P6\n{cells.shape[1]} 1\n255\n".encode("ascii")
    assert to_ppm_bytes(raster) == header + maskit.raster.PALETTE[cells].tobytes()


# ---------------------------------------------------------------------------
# Extension-locus rasterization
# ---------------------------------------------------------------------------


def test_a_slice_member_pixel_at_8i():
    # For base point 4i, w = 8i is a certified member (it equals 2 * 4i).
    win = Window.from_bounds(-0.5, 0.5, 7.5, 8.5, 1, 1)
    raster = rasterize_a_slice(4j, win, RealClassifier())
    assert raster.cells[0, 0] == CELL_MEMBER


def test_a_slice_lower_half_plane_is_non_member():
    win = Window.from_bounds(-0.5, 0.5, -1.5, -0.5, 1, 1)
    raster = rasterize_a_slice(4j, win, RealClassifier())
    assert raster.cells[0, 0] == CELL_NON_MEMBER


def test_a_slice_real_axis_row_is_non_member():
    # Pixel centers on Im w = 0 exactly: still outside the locus.
    win = Window.from_bounds(-1.0, 1.0, -0.5, 0.5, 2, 1)
    raster = rasterize_a_slice(4j, win, RealClassifier())
    assert np.all(raster.cells == CELL_NON_MEMBER)


def test_a_slice_requires_certified_base_point():
    win = Window.from_bounds(-1.0, 1.0, 0.0, 2.0, 2, 2)
    with pytest.raises(ValueError, match="base point"):
        rasterize_a_slice(0.1j, win, RealClassifier())
    with pytest.raises(ValueError, match="base point"):
        rasterize_a_slice(1.0, win, RealClassifier())


# ---------------------------------------------------------------------------
# The batch path against scalar references, pixel by pixel
# ---------------------------------------------------------------------------


def _per_pixel(win, code):
    """The uint8 cells of win, code(w) at each pixel centre w."""
    return np.array(
        [[code(win.pixel_center(i, j)) for j in range(win.cols)] for i in range(win.rows)],
        np.uint8,
    )


def _slice_cells(win):
    """rasterize_maskit's cells pixel by pixel, by classify_point."""
    return _per_pixel(win, lambda z: _VERDICT_CODE[classify_point(z).verdict])


def _membership_cells(z, win, classifier):
    """rasterize_a_slice's cells pixel by pixel, by scalar_membership; Im w < 0
    is outside the locus, so NonMember."""

    def code(w):
        if w.imag < 0:
            return CELL_NON_MEMBER
        return _AVERDICT_CODE[scalar_membership(classifier, z, w).verdict]

    return _per_pixel(win, code)


# Settings of the classifier's module constants: the defaults, fan blocks
# that end inside a row, and a margin so wide that Undetermined verdicts are
# common, at test points of the membership test too.
_CFGS = [{}, {"_FAN_BLOCK": 7}, {"INSIDE_MARGIN": 0.5}]


def _constants(cfg):
    """A context with maskit.classify's module constants set as cfg says."""
    return mock.patch.multiple(maskit.classify, **cfg) if cfg else contextlib.nullcontext()

_WINDOWS = [
    (-3.0, 3.0, 0.0, 3.0, 24, 12),  # the render window
    (-3.0, 3.0, -1.0, 1.0, 12, 3),  # Im < 0, and the middle row exactly at Im = 0
    (-3.0 + 2e6, 3.0 + 2e6, -3.0, 3.0, 12, 9),  # a 2k translate
    (-1.0, 1.0, 0.0, 4.0, 6, 4),  # Im 4i is 8 times the bottom row's Im w
    (-4.0, 4.0, -2.0, 10.0, 10, 12),  # the a-slice default window
]


@pytest.mark.parametrize("cfg", _CFGS)
@pytest.mark.parametrize("bounds", _WINDOWS)
def test_grid_path_matches_the_per_pixel_path(bounds, cfg):
    win = Window.from_bounds(*bounds)
    clf = RealClassifier()
    with _constants(cfg):
        assert np.array_equal(rasterize_maskit(win, classifier=clf).cells, _slice_cells(win))
        for z in (4j, complex(0.7, 4.2)):  # certified under every cfg
            assert np.array_equal(
                rasterize_a_slice(z, win, classifier=clf).cells, _membership_cells(z, win, clf)
            )


@given(
    re_min=st.floats(min_value=-6.0, max_value=6.0),
    im_min=st.floats(min_value=-4.0, max_value=8.0),
    width=st.floats(min_value=0.01, max_value=8.0),
    height=st.floats(min_value=0.01, max_value=8.0),
    cols=st.integers(min_value=1, max_value=7),
    rows=st.integers(min_value=1, max_value=7),
    k=st.integers(min_value=-4, max_value=4),
    cfg=st.sampled_from([*_CFGS, {"REJECT_THRESHOLD": 1.5, "INSIDE_MARGIN": 1.0}]),
    z=st.sampled_from([4j, complex(0.7, 4.2), complex(-1.3, 5.0)]),
)
@settings(max_examples=60, deadline=None)
def test_grid_path_matches_per_pixel_on_random_windows(
    re_min, im_min, width, height, cols, rows, k, cfg, z
):
    re_min += 2.0 * k
    win = Window.from_bounds(re_min, re_min + width, im_min, im_min + height, cols, rows)
    clf = RealClassifier()
    with _constants(cfg):
        assert np.array_equal(rasterize_maskit(win, classifier=clf).cells, _slice_cells(win))
        assert np.array_equal(
            rasterize_a_slice(z, win, classifier=clf).cells, _membership_cells(z, win, clf)
        )


def test_real_classifier_rasters_use_the_grid_path(monkeypatch):
    def per_pixel_call(*args):
        raise AssertionError("per-pixel call on the grid path")

    win = Window.from_bounds(-3.0, 3.0, -1.0, 3.0, 8, 8)
    clf = RealClassifier()
    # the base point is the one point classified one by one
    monkeypatch.setattr(maskit.raster, "check_base_point", lambda classifier, z: None)
    monkeypatch.setattr(RealClassifier, "classify", per_pixel_call)
    rasterize_a_slice(4j, win, classifier=clf)
    rasterize_maskit(win, classifier=clf)


def test_synthetic_rasters_use_the_grid_path(monkeypatch):
    def per_pixel_call(*args):
        raise AssertionError("per-pixel call on the grid path")

    win = Window.from_bounds(-3.0, 3.0, -1.0, 3.0, 8, 8)
    clf = SyntheticSlice()
    # the base point is the one point classified one by one
    monkeypatch.setattr(maskit.raster, "check_base_point", lambda classifier, z: None)
    monkeypatch.setattr(SyntheticSlice, "classify", per_pixel_call)
    rasterize_a_slice(4j, win, classifier=clf)
    rasterize_maskit(win, classifier=clf)


@given(
    w=st.lists(
        st.tuples(
            st.floats(min_value=-6.0, max_value=6.0),
            # Im w = 0 and exact divisors of Im z decide by a reason, not a test
            # pair; at 5e-324, Im z / |Im w| overflows and both paths raise
            st.floats(min_value=-9.0, max_value=9.0)
            | st.sampled_from([0.0, -0.0, 4.2, 2.1, -1.4, 1e-14, 5e-324]),
        ),
        max_size=30,
    ),
    z=st.sampled_from([complex(0.7, 4.2), complex(-1.3, 4.2)]),
    clf=st.sampled_from([RealClassifier(), SyntheticSlice()]),
    cfg=st.sampled_from(_CFGS),
)
@settings(max_examples=80, deadline=None)
def test_membership_grid_matches_the_scalar_reference(w, z, clf, cfg):
    with _constants(cfg):
        _assert_membership_grid_matches_the_scalar_reference(w, z, clf)


def _assert_membership_grid_matches_the_scalar_reference(w, z, clf):
    w_re = np.array([x for x, _ in w])
    w_im = np.array([y for _, y in w])
    try:
        wants = [scalar_membership(clf, z, complex(x, y)) for x, y in w]
    except ValueError:
        # A test point past |Re z| <= 2^50, or Im z / |Im w| overflowing: the
        # batch raises too, though not always the first point's error.  (At a
        # certified z, a lower test point lies past 2^50 where its upper does.)
        with pytest.raises(ValueError):
            maskit.raster.membership_grid(clf, z, w_re, w_im)
        return
    codes, ns = maskit.raster.membership_grid(clf, z, w_re, w_im)
    assert codes.shape == ns.shape == (len(w),)
    for want, code, n in zip(wants, codes.tolist(), ns.tolist()):
        assert code == _AVERDICT_CODE[want.verdict]
        assert (want.n is None and math.isnan(n)) or want.n == n
    assert [membership_with(clf, z, complex(x, y)) for x, y in w] == wants


@pytest.mark.parametrize(
    "clf", [RealClassifier(), SyntheticSlice()], ids=["real", "synthetic"]
)
def test_membership_grid_ignores_the_sign_of_a_zero_base_coordinate(clf):
    # At Re z = -0.0 a test point's Re z - x*Re w is -0.0 or 0.0 by the sign
    # of x*Re w, where CPython's z - x*w can give the other zero; the column
    # Re w = 0 holds such points, and the verdicts at 4j are those at -0+4j
    w_re, w_im = np.meshgrid(np.linspace(-4.0, 4.0, 33), np.linspace(-9.0, 9.0, 37))
    codes, ns = maskit.raster.membership_grid(clf, complex(-0.0, 4.0), w_re, w_im)
    want_codes, want_ns = maskit.raster.membership_grid(clf, 4j, w_re, w_im)
    assert np.array_equal(codes, want_codes)
    assert np.array_equal(ns, want_ns, equal_nan=True)
    assert {CELL_MEMBER, CELL_NON_MEMBER} <= set(codes.ravel().tolist())


def test_membership_grid_rejects_non_finite_points():
    with pytest.raises(ValueError, match="non-finite"):
        maskit.raster.membership_grid(SyntheticSlice(), 4j, [0.0, math.inf], 1.0)


@pytest.mark.parametrize(
    "clf", [RealClassifier(), SyntheticSlice()], ids=["real", "synthetic"]
)
def test_membership_grid_classifies_an_upper_point_only_where_the_lower_is_not_outside(clf):
    calls = []

    class Counting:
        def classify_grid(self, re, im):
            calls.append([complex(x, y) for x, y in zip(re.ravel().tolist(), im.ravel().tolist())])
            return clf.classify_grid(re, im)

    z = complex(0.7, 4.2)
    # Im w = 0 and 2.1 (an exact divisor of Im z) decide by a reason alone
    w_re, w_im = np.meshgrid(np.linspace(-4.0, 4.0, 17), [0.0, 0.3, 0.9, 1.7, 2.1, 3.3, 5.0])
    codes, _ = maskit.raster.membership_grid(Counting(), z, w_re, w_im)
    lower, upper = [], []
    for w in map(complex, w_re.ravel().tolist(), w_im.ravel().tolist()):
        s, n, reason = maskit.raster._membership_shift(z, w.imag)
        if reason is None:
            lower.append(z - s * (n + 1) * w)
            if clf.classify(lower[-1]).verdict is not Verdict.OUTSIDE_CERTIFIED:
                upper.append(z - s * n * w)
    assert calls == [lower, upper]
    assert 0 < len(upper) < len(lower) < w_re.size
    wants = [scalar_membership(clf, z, complex(x, y)) for x, y in zip(w_re.flat, w_im.flat)]
    assert codes.ravel().tolist() == [_AVERDICT_CODE[r.verdict] for r in wants]


def test_membership_grid_raises_where_it_classifies_a_refused_point():
    # Both test points of w lie past |Re| = 2^50: the lower one, classified
    # first, is refused.  (At Im w = 1e-14, Im z / Im w is an exact integer:
    # a reason, no test point.)
    z, w = complex(0.7, 4.2), complex(6.0, 1.1e-14)
    clf = RealClassifier()
    s, n, _ = maskit.raster._membership_shift(z, w.imag)
    with pytest.raises(ValueError) as lower:
        clf.classify(z - s * (n + 1) * w)
    with pytest.raises(ValueError) as got:
        maskit.raster.membership_grid(clf, z, [0.5, w.real, 7.0], [1.0, w.imag, w.imag])
    assert str(got.value) == str(lower.value)
    with pytest.raises(ValueError, match="exceeds"):
        membership_with(clf, z, w)


@pytest.mark.parametrize(
    "z, w",
    [
        # the upper point is z itself (n = 0), past 2^50; the lower z - w is not
        (complex(2**50 + 3, 4.2), complex(4.0, 5.0)),
        # Im z < 0, so n = -6 and the upper point z + 6w lies further out than z + 5w
        (complex(2**50 - 5.5, -5.5), complex(1.0, 1.0)),
    ],
)
def test_membership_grid_skips_a_refused_upper_point_past_the_pre_condition(z, w):
    # Outside the pre-condition (z certified InsidePlus) the lower point can
    # be accepted and outside while the upper one is refused.  The lower
    # verdict decides: the upper point is never classified.
    clf = RealClassifier()
    s, n, _ = maskit.raster._membership_shift(z, w.imag)
    assert clf.classify(z - s * (n + 1) * w).verdict is Verdict.OUTSIDE_CERTIFIED
    with pytest.raises(ValueError):
        clf.classify(z - s * n * w)
    codes, ns = maskit.raster.membership_grid(clf, z, [w.real], [w.imag])
    assert (codes.tolist(), ns.tolist()) == ([CELL_NON_MEMBER], [n])
    assert membership_with(clf, z, w) == AMembership(AVerdict.NON_MEMBER_CERTIFIED, n)


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------


def test_components_empty_when_nothing_is_member():
    raster = _raster_of([[CELL_OUTSIDE, CELL_OUTSIDE], [CELL_OUTSIDE, CELL_OUTSIDE]])
    assert len(components(raster)) == 0


def test_components_excludes_undetermined():
    raster = _raster_of([[CELL_UNDETERMINED, CELL_UNDETERMINED]])
    assert len(components(raster)) == 0


def test_components_single_vertical_bar():
    raster = _raster_of(
        [
            [CELL_OUTSIDE, CELL_INSIDE_PLUS, CELL_OUTSIDE],
            [CELL_OUTSIDE, CELL_INSIDE_PLUS, CELL_OUTSIDE],
            [CELL_OUTSIDE, CELL_OUTSIDE, CELL_OUTSIDE],
        ]
    )
    (comp,) = components(raster)
    assert comp.label == 1
    assert comp.cells == 2
    assert comp.bbox == (0, 1, 1, 1)
    assert comp.boundary_touching  # touches row 0


def test_components_two_bars_row_major_labels():
    raster = _raster_of(
        [
            [CELL_INSIDE_PLUS, CELL_OUTSIDE, CELL_OUTSIDE, CELL_MEMBER],
            [CELL_INSIDE_PLUS, CELL_OUTSIDE, CELL_OUTSIDE, CELL_MEMBER],
        ]
    )
    left, right = components(raster)
    assert (left.label, right.label) == (1, 2)
    assert left.bbox == (0, 0, 1, 0)
    assert right.bbox == (0, 3, 1, 3)
    assert left.cells == right.cells == 2


def test_components_diagonal_cells_are_separate():
    # 4-connectivity: diagonal neighbours do not merge.
    raster = _raster_of(
        [
            [CELL_MEMBER, CELL_OUTSIDE],
            [CELL_OUTSIDE, CELL_MEMBER],
        ]
    )
    assert len(components(raster)) == 2


def test_components_interior_blob_not_boundary_touching():
    cells = np.full((5, 5), CELL_OUTSIDE, dtype=np.uint8)
    cells[2, 2] = CELL_MEMBER
    (comp,) = components(_raster_of(cells))
    assert not comp.boundary_touching


def test_components_inside_minus_counts_as_member():
    raster = _raster_of([[CELL_INSIDE_MINUS]])
    (comp,) = components(raster)
    assert comp.boundary_touching


def test_components_undetermined_does_not_bridge():
    raster = _raster_of(
        [[CELL_MEMBER, CELL_UNDETERMINED, CELL_MEMBER]]
    )
    assert len(components(raster)) == 2


def test_component_report_describe_shape():
    raster = _raster_of([[CELL_MEMBER, CELL_OUTSIDE]])
    # as a-slice writes them: one asdict record per component
    rows = json.loads(json.dumps([asdict(c) for c in components(raster)]))
    assert rows == [
        {
            "label": 1,
            "cells": 1,
            "bbox": [0, 0, 0, 0],
            "boundary_touching": True,
        }
    ]


def _components_all_pixels(raster):
    """The reference labelling: a BFS from every pixel in row-major order."""
    cells = raster.cells
    rows, cols = cells.shape
    member = np.isin(cells, [CELL_INSIDE_PLUS, CELL_INSIDE_MINUS, CELL_MEMBER])
    seen = np.zeros_like(member, dtype=bool)
    comps = []
    label = 0
    for i in range(rows):
        for j in range(cols):
            if not member[i, j] or seen[i, j]:
                continue
            label += 1
            count = 0
            i_min = i_max = i
            j_min = j_max = j
            touching = False
            queue = deque([(i, j)])
            seen[i, j] = True
            while queue:
                ci, cj = queue.popleft()
                count += 1
                i_min = min(i_min, ci)
                i_max = max(i_max, ci)
                j_min = min(j_min, cj)
                j_max = max(j_max, cj)
                if ci in (0, rows - 1) or cj in (0, cols - 1):
                    touching = True
                for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
                    if 0 <= ni < rows and 0 <= nj < cols and member[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        queue.append((ni, nj))
            comps.append(Component(label, count, (i_min, j_min, i_max, j_max), touching))
    return tuple(comps)


_ALL_CODES = [
    CELL_INSIDE_PLUS,
    CELL_INSIDE_MINUS,
    CELL_OUTSIDE,
    CELL_UNDETERMINED,
    CELL_MEMBER,
    CELL_NON_MEMBER,
]


@st.composite
def _rasters(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    m = draw(st.integers(min_value=1, max_value=14))
    rows, cols = draw(st.sampled_from([(1, n), (n, 1), (n, m)]))
    codes = draw(st.lists(st.sampled_from(_ALL_CODES), min_size=rows * cols, max_size=rows * cols))
    return _raster_of(np.array(codes).reshape(rows, cols))


@given(raster=_rasters())
@settings(max_examples=300, deadline=None)
def test_components_match_the_all_pixel_reference(raster):
    assert components(raster) == _components_all_pixels(raster)


def test_components_of_the_512_render_match_the_reference():
    raster = rasterize_maskit(Window.from_bounds(-3.0, 3.0, 0.0, 3.0, 512, 512), RealClassifier())
    comps = components(raster)
    assert len(comps) >= 1
    assert comps == _components_all_pixels(raster)
