"""Tests for the rectangle witness: construction, reflection, verification, counting."""

import json
import math
from collections import Counter
from dataclasses import asdict, fields

import numpy as np
import pytest

from maskit import (
    CELL_NON_MEMBER,
    AVerdict,
    AxisRectangle,
    Classification,
    RealClassifier,
    SyntheticSlice,
    Verdict,
    Window,
    WitnessSearchError,
    build_R,
    components_near_infinity,
    find_rectangle,
    rasterize_a_slice,
    rasterize_maskit,
    verify_witness,
)
from maskit.raster import _membership_shift
from maskit.witness import TranslateCount, _boundary_arrays
from test_raster import _AVERDICT_CODE, scalar_membership

SQRT3 = math.sqrt(3.0)

# Regression fixtures for the default (honest-classifier) construction.
# These are pinned outputs of a deterministic computation: the strip is
# [-2, 0], the inside margin is 0.015, and the half-width is 0.45.
REAL_Q = AxisRectangle(-1.45, -0.55, 1.7170508075687412, 1.8105146207017615)
REAL_Z = complex(-1.0, 1.7482054119464145)
REAL_R = AxisRectangle(-2.45, -1.55, 3.4341016151374824, 3.5275654282705027)


def _approx_rect(got: AxisRectangle, want: AxisRectangle, tol: float = 1e-12):
    assert got.re_min == pytest.approx(want.re_min, abs=tol)
    assert got.re_max == pytest.approx(want.re_max, abs=tol)
    assert got.im_min == pytest.approx(want.im_min, abs=tol)
    assert got.im_max == pytest.approx(want.im_max, abs=tol)


# ---------------------------------------------------------------------------
# AxisRectangle
# ---------------------------------------------------------------------------


def test_one_rectangle_record():
    # The witness's rectangles and the raster windows share one record.
    import maskit.raster
    import maskit.witness

    assert maskit.witness.AxisRectangle is maskit.raster.AxisRectangle is AxisRectangle
    assert issubclass(Window, AxisRectangle)


def test_rectangle_validates_bounds():
    with pytest.raises(ValueError):
        AxisRectangle(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        AxisRectangle(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AxisRectangle(1.0, 0.0, 0.0, 1.0)


def test_rectangle_geometry_accessors():
    q = AxisRectangle(-1.0, 3.0, 2.0, 4.5)
    assert q.width == 4.0
    assert q.height == 2.5
    assert asdict(q) == {
        "re_min": -1.0,
        "re_max": 3.0,
        "im_min": 2.0,
        "im_max": 4.5,
    }


def test_rectangle_contains_interior_excludes_edges():
    q = AxisRectangle(0.0, 1.0, 0.0, 1.0)
    assert q.contains_interior(complex(0.5, 0.5))
    assert not q.contains_interior(complex(0.0, 0.5))  # on the left edge
    assert not q.contains_interior(complex(0.5, 1.0))  # on the top edge
    assert not q.contains_interior(complex(2.0, 0.5))


# ---------------------------------------------------------------------------
# build_R: the reflected rectangle {w : 3z - w in Q}
# ---------------------------------------------------------------------------


def test_build_r_fixture():
    q = AxisRectangle(0.0, 1.0, 1.0, 2.0)
    z = complex(0.5, 1.4)
    r = build_R(q, z)
    _approx_rect(r, AxisRectangle(0.5, 1.5, 2.2, 3.2))


def test_build_r_requires_interior_z():
    q = AxisRectangle(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="interior"):
        build_R(q, complex(0.5, 2.5))
    with pytest.raises(ValueError, match="interior"):
        build_R(q, complex(0.5, 2.0))  # on the edge does not count


def test_build_r_is_point_reflection_through_3z():
    q = AxisRectangle(-1.45, -0.55, 1.485, 1.575)
    z = complex(-1.0, 1.515)
    r = build_R(q, z)
    assert r.width == pytest.approx(q.width)
    assert r.height == pytest.approx(q.height)
    # Corners of Q map onto corners of R under w -> 3z - w.
    corners_q = [
        complex(q.re_min, q.im_min),
        complex(q.re_max, q.im_min),
        complex(q.re_min, q.im_max),
        complex(q.re_max, q.im_max),
    ]
    corners_r = {
        (round(3.0 * z.real - c.real, 12), round(3.0 * z.imag - c.imag, 12))
        for c in corners_q
    }
    assert corners_r == {
        (round(r.re_min, 12), round(r.im_min, 12)),
        (round(r.re_max, 12), round(r.im_min, 12)),
        (round(r.re_min, 12), round(r.im_max, 12)),
        (round(r.re_max, 12), round(r.im_max, 12)),
    }


def test_build_r_involution():
    # Pick Q containing both z and 2z, so z is interior to R = 3z - Q as
    # well; reflecting twice then returns the original rectangle.
    q = AxisRectangle(0.5, 1.3, 0.9, 2.0)
    z = complex(0.6, 0.95)
    assert q.contains_interior(2.0 * z)
    r = build_R(q, z)
    assert r.contains_interior(z)
    back = build_R(r, z)
    _approx_rect(back, q)


# ---------------------------------------------------------------------------
# find_rectangle against the synthetic slice (fully analyzable)
# ---------------------------------------------------------------------------


def test_find_rectangle_synthetic_fixture():
    # Synthetic valley floor at odd integers is exactly peak - 2*depth = 1.5:
    # the margin (0.015) and half-width (0.45) give
    # Q = [-1.45, -0.55] x [1.485, 1.575] and z = -1 + 1.515i.
    q, z = find_rectangle(classifier=SyntheticSlice())
    assert z.real == pytest.approx(-1.0)
    assert z.imag == pytest.approx(1.515, abs=1e-9)
    _approx_rect(q, AxisRectangle(-1.45, -0.55, 1.485, 1.575), tol=1e-9)
    # The construction splits the heights 1:2 around z exactly.
    assert (q.im_max - z.imag) == pytest.approx(2.0 * (z.imag - q.im_min))


@pytest.mark.parametrize("make", [RealClassifier, SyntheticSlice], ids=["real", "synthetic"])
def test_find_rectangle_classifies_85_points_on_the_anchor_vertical(make):
    # One probe and two 42-step bisections, all on Re z = -1, one point at a
    # time: Q's sides are left to verify_witness.
    seen = []
    inner = make()

    class Recording:
        def classify(self, z):
            seen.append(z)
            return inner.classify(z)

        def classify_grid(self, re, im):
            pytest.fail("find_rectangle called classify_grid")

    q, z = find_rectangle(Recording())
    assert len(seen) == 1 + 2 * 42
    assert all(p.real == -1.0 for p in seen)
    assert (q, z) == find_rectangle(make())


class _CountingClassifier:
    """InsidePlus above Im z = floor, `below` under it; counts classify calls."""

    def __init__(self, floor, below):
        self.floor = floor
        self.below = below
        self.calls = 0

    def classify(self, z):
        self.calls += 1
        if z.imag > self.floor:
            return Classification(Verdict.INSIDE_PLUS, None, 1)
        return Classification(self.below, None, 1)


def _assert_profile_shape(profile):
    assert len(profile) == 9
    for row in profile:
        assert set(row) == {"x", "outside_floor", "inside_floor"}


def test_find_rectangle_raises_when_q_would_reach_the_real_axis():
    # Nothing below Im z = 1.5 is ever certified outside, so the outside
    # floor is 0 and the margin puts Q's lower side below the real axis.
    clf = _CountingClassifier(1.5, Verdict.UNDETERMINED)
    with pytest.raises(WitnessSearchError, match="not above the real axis") as exc:
        find_rectangle(classifier=clf)
    # probe 1 + two bisections 2 * 42, then the 9-row profile at
    # 1 + 24 + 24 calls a row.
    assert clf.calls == 85 + 9 * 49
    profile = exc.value.profile
    _assert_profile_shape(profile)
    for row in profile:
        assert row["inside_floor"] >= row["outside_floor"]
        assert row["inside_floor"] == pytest.approx(1.5, abs=1e-6)
        assert row["outside_floor"] == 0.0


def test_a_side_sample_of_q_not_outside_is_left_to_verify_witness():
    # The synthetic slice, but Undetermined at the midpoint of Q's lower
    # side.  find_rectangle tests no side of Q, so it returns the synthetic
    # (Q, z); verify_witness finds the one sample of R whose upper test
    # point 3z - w is there: the midpoint of R's top side.
    synth = SyntheticSlice()
    q, z = find_rectangle(synth)
    spot = complex(-1.0, q.im_min)

    class Double:
        def classify(self, p):
            if abs(p - spot) < 1e-9:
                return Classification(Verdict.UNDETERMINED, None, 1)
            return synth.classify(p)

        def describe(self):
            return synth.describe()

    clf = Double()
    assert find_rectangle(clf) == (q, z)
    report = verify_witness(q, z, clf)
    assert not report.all_certified
    (w,) = report.offending_samples
    assert w.imag == report.R.im_max
    assert 3.0 * z - w == pytest.approx(spot, abs=1e-9)
    assert report.interior_sample_verdict.verdict is AVerdict.MEMBER


def test_find_rectangle_probe_failure_reports_profile():
    # No point is ever certified inside: the probe at Im z = 2.5 fails.
    clf = _CountingClassifier(math.inf, Verdict.OUTSIDE_CERTIFIED)
    with pytest.raises(WitnessSearchError, match="no certified-inside point") as exc:
        find_rectangle(classifier=clf)
    profile = exc.value.profile
    _assert_profile_shape(profile)
    for row in profile:
        assert math.isnan(row["inside_floor"])
        assert row["outside_floor"] == pytest.approx(2.5, abs=1e-6)


# ---------------------------------------------------------------------------
# verify_witness
# ---------------------------------------------------------------------------


def test_verify_witness_synthetic_certifies():
    clf = SyntheticSlice()
    q, z = find_rectangle(classifier=clf)
    report = verify_witness(q, z, classifier=clf)
    assert report.all_certified
    assert report.interior_sample_verdict.verdict is AVerdict.MEMBER
    assert report.interior_sample_verdict.n == 1
    assert report.offending_samples == ()
    assert report.Q == q and report.z == z
    _approx_rect(report.R, build_R(q, z))
    assert report.sample_codes.size > 100
    assert (report.sample_codes == CELL_NON_MEMBER).all()


def test_verify_witness_requires_interior_z():
    q = AxisRectangle(-1.45, -0.55, 1.485, 1.575)
    with pytest.raises(ValueError, match="interior"):
        verify_witness(q, complex(-1.0, 3.0), classifier=SyntheticSlice())


@pytest.mark.parametrize("rows", [0, -3, 2.5, True])
def test_verify_witness_rejects_raster_rows_that_are_not_a_positive_int(rows):
    # 0 would divide by zero, -3 would space the samples by a negative
    # pitch, 2.5 rows cannot be counted at, and a bool is not a count
    clf = SyntheticSlice()
    q, z = find_rectangle(classifier=clf)
    with pytest.raises(ValueError, match="raster_rows"):
        verify_witness(q, z, clf, raster_rows=rows)


def test_verify_witness_flags_oversized_rectangle():
    # Shrink Q's top towards z so R's bottom edge crosses the locus blob:
    # the verifier must report the offending samples instead of certifying.
    clf = SyntheticSlice()
    q = AxisRectangle(-1.45, -0.55, 1.485, 1.52)
    z = complex(-1.0, 1.515)
    report = verify_witness(q, z, classifier=clf)
    assert not report.all_certified
    assert len(report.offending_samples) > 0
    assert report.interior_sample_verdict.verdict is AVerdict.MEMBER
    counting = components_near_infinity(report, 1, clf, cols=64)
    doc = report.to_json_dict(counting, clf.describe())
    assert doc["all_certified"] is False
    assert len(doc["boundary_samples"]["offending"]) == len(report.offending_samples)
    # two verdicts, tallied in order of first appearance among the samples
    tally = Counter(report.samples_json_dict()["verdict"])
    assert list(doc["boundary_samples"]["verdicts"].items()) == list(tally.items())
    assert set(tally) == {"NonMemberCertified", "Member"}


class _BareClassifier:
    """Exposes classify and describe and nothing else: no cfg attribute."""

    def __init__(self, inner):
        self._inner = inner

    def classify(self, z):
        return self._inner.classify(z)

    def describe(self):
        return self._inner.describe()


def test_a_bare_classifier_drives_the_rasters_and_the_witness_stages():
    synth = SyntheticSlice()
    bare = _BareClassifier(synth)
    win = Window.from_bounds(-2.0, 0.0, 1.0, 2.5, 24, 12)
    assert np.array_equal(
        rasterize_maskit(win, classifier=bare).cells,
        rasterize_maskit(win, classifier=synth).cells,
    )
    win = Window.from_bounds(-4.0, 4.0, 0.0, 10.0, 24, 24)
    assert np.array_equal(
        rasterize_a_slice(4j, win, classifier=bare).cells,
        rasterize_a_slice(4j, win, classifier=synth).cells,
    )
    docs = []
    for clf in (synth, bare):
        q, z = find_rectangle(clf)
        report = verify_witness(q, z, clf, raster_rows=16)
        counting = components_near_infinity(report, 2, clf, cols=128)
        assert report.all_certified and counting.ok
        docs.append(
            json.dumps([report.to_json_dict(counting, clf.describe()), report.samples_json_dict()])
        )
    assert docs[0] == docs[1]


def _oversized_case():
    # test_verify_witness_flags_oversized_rectangle's Q and z
    return SyntheticSlice(), AxisRectangle(-1.45, -0.55, 1.485, 1.52), complex(-1.0, 1.515)


_CASES = pytest.mark.parametrize(
    "case",
    [
        lambda: (SyntheticSlice(), *find_rectangle(SyntheticSlice())),
        lambda: (RealClassifier(), REAL_Q, REAL_Z),
        _oversized_case,
    ],
    ids=["synthetic", "real", "oversized"],
)


def _side_counts(r: AxisRectangle, spacing: float):
    """The points on r's horizontal and on its vertical sides at most
    spacing apart, as verify_witness counts them."""
    return max(2, math.ceil(r.width / spacing) + 1), max(2, math.ceil(r.height / spacing) + 1)


def _rect_boundary_samples(r: AxisRectangle, spacing: float):
    """(point, inward unit normal) pairs along the four sides, corners
    included: the reference for witness._boundary_arrays, in Python floats."""
    nx, ny = _side_counts(r, spacing)
    xs = [r.re_min + r.width * k / (nx - 1) for k in range(nx)]
    ys = [r.im_min + r.height * k / (ny - 1) for k in range(ny)]
    pts = [(complex(x, r.im_max), complex(0.0, -1.0)) for x in xs]  # top
    pts += [(complex(x, r.im_min), complex(0.0, 1.0)) for x in xs]  # bottom
    pts += [(complex(r.re_min, y), complex(1.0, 0.0)) for y in ys]  # left
    pts += [(complex(r.re_max, y), complex(-1.0, 0.0)) for y in ys]  # right
    return pts


def _sample_records(report):
    """(w, verdict code, n) of each boundary sample; n is None where a reason decides."""
    columns = (report.sample_re, report.sample_im, report.sample_codes, report.sample_n)
    return [
        (complex(x, y), code, None if math.isnan(n) else n)
        for x, y, code, n in zip(*(c.tolist() for c in columns))
    ]


@_CASES
def test_batched_verify_matches_the_per_sample_path(case):
    # The reference: scalar_membership at each sample, at its nudged copy
    # and at 2z.
    clf, q, z = case()
    base = 3.0 * z
    report = verify_witness(q, z, clf)
    samples = _rect_boundary_samples(report.R, report.sample_spacing)
    wants = [scalar_membership(clf, base, w) for w, _ in samples]
    offending = [
        w
        for (w, inward), want in zip(samples, wants)
        if want.verdict is not AVerdict.NON_MEMBER_CERTIFIED
        or scalar_membership(clf, base, w + report.inward_margin * inward).verdict
        is not AVerdict.NON_MEMBER_CERTIFIED
    ]
    interior = scalar_membership(clf, base, 2.0 * z)
    assert [
        (w, _AVERDICT_CODE[want.verdict], want.n) for (w, _), want in zip(samples, wants)
    ] == _sample_records(report)
    assert report.offending_samples == tuple(offending)
    assert report.interior_sample_verdict == interior
    assert report.all_certified == (interior.verdict is AVerdict.MEMBER and not offending)
    if case is _oversized_case:
        assert report.offending_samples and not report.all_certified
    # A classifier with classify alone takes the same batch path, a point at a time.
    bare = verify_witness(q, z, _BareClassifier(clf))
    assert _sample_records(bare) == _sample_records(report)
    assert bare.offending_samples == report.offending_samples


def test_batched_verify_tests_each_sample_and_its_copy_in_one_batch(monkeypatch):
    # One membership_grid batch of the samples, then their copies, then 2z,
    # each copy tested whether its sample held or not: two classify_grid
    # calls, every lower test point, then the upper points whose lower point
    # is not outside.
    clf, q, z = _oversized_case()
    batches = []
    grid = clf.classify_grid

    def counting_grid(self, re, im):
        batches.append(re.size)
        return grid(re, im)

    monkeypatch.setattr(SyntheticSlice, "classify_grid", counting_grid)
    report = verify_witness(q, z, clf)
    samples = _rect_boundary_samples(report.R, report.sample_spacing)
    assert [w for w, _ in samples] == [w for w, _, _ in _sample_records(report)]
    copies = [w + report.inward_margin * inward for w, inward in samples]
    held = sum(code == CELL_NON_MEMBER for code in report.sample_codes.tolist())
    assert 0 < held < len(samples)  # some samples fail, and their copies are tested too

    def lower_not_outside(points):
        # the lower test point of each w, as scalar_membership forms it
        base = 3.0 * z
        shifts = [(w, *_membership_shift(base, w.imag)) for w in points]
        lowers = [base - s * (n + 1) * w for w, s, n, reason in shifts if reason is None]
        return sum(clf.classify(p).verdict is not Verdict.OUTSIDE_CERTIFIED for p in lowers)

    points = [w for w, _ in samples] + copies + [2.0 * z]
    assert batches == [2 * len(samples) + 1, lower_not_outside(points)]
    assert 0 < batches[1] < batches[0]


def _bits(re, im):
    # float.hex tells -0.0 from 0.0
    return [(float(x).hex(), float(y).hex()) for x, y in zip(re, im)]


@_CASES
@pytest.mark.parametrize("rows", [3, 64, 256])
def test_boundary_arrays_are_the_samples_and_their_nudged_copies(case, rows):
    _, q, z = case()
    r = build_R(q, z)
    spacing = r.height / rows / 2.0
    margin = 4.0 * spacing
    samples = _rect_boundary_samples(r, spacing)
    re, im, in_re, in_im = _boundary_arrays(r, *_side_counts(r, spacing))
    assert _bits(re, im) == _bits([w.real for w, _ in samples], [w.imag for w, _ in samples])
    assert _bits(in_re, in_im) == _bits([u.real for _, u in samples], [u.imag for _, u in samples])
    # verify_witness forms each copy a component at a time; CPython's
    # complex product and sum give the same bits, signed zeros included
    copies = [w + margin * inward for w, inward in samples]
    assert _bits(re + margin * in_re, im + margin * in_im) == _bits(
        [c.real for c in copies], [c.imag for c in copies]
    )


@_CASES
def test_samples_json_dict_is_the_report_arrays(case):
    # One entry a sample, in order: Re w and Im w bit for bit, the verdict's
    # name, and n as an int, or None where it is NaN.
    clf, q, z = case()
    report = verify_witness(q, z, clf)
    samples = report.samples_json_dict()
    assert _bits(samples["re"], samples["im"]) == _bits(report.sample_re, report.sample_im)
    names = {code: verdict.value for verdict, code in _AVERDICT_CODE.items()}
    assert samples["verdict"] == [names[code] for code in report.sample_codes.tolist()]
    assert [n is None for n in samples["n"]] == np.isnan(report.sample_n).tolist()
    assert all(type(n) is int for n in samples["n"] if n is not None)
    assert [n for n in samples["n"] if n is not None] == report.sample_n[
        ~np.isnan(report.sample_n)
    ].tolist()


def test_witness_report_json_shape():
    clf = SyntheticSlice()
    q, z = find_rectangle(classifier=clf)
    report = verify_witness(q, z, classifier=clf)
    counting = components_near_infinity(report, 2, clf, cols=128)
    doc = report.to_json_dict(counting, clf.describe())
    assert list(doc) == [
        "q",
        "z",
        "r",
        "interior_verdict",
        "boundary_samples",
        "components",
        "all_certified",
        "cfg",
        "diagnostics",
    ]
    assert doc["z"] == [z.real, z.imag]
    assert doc["cfg"]["kind"] == "synthetic"
    assert list(doc["boundary_samples"]) == [
        "count",
        "spacing",
        "inward_margin",
        "verdicts",
        "offending",
    ]
    assert doc["boundary_samples"]["count"] == report.sample_codes.size
    assert list(report.samples_json_dict()) == ["re", "im", "verdict", "n"]
    assert list(doc["components"]) == [
        "found",
        "window",
        "per_translate",
        "straddlers",
        "counting_ok",
    ]
    assert doc["components"]["found"] == counting.components_found
    assert doc["components"]["window"] == asdict(counting.raster.window)
    assert len(doc["components"]["per_translate"]) == 2
    assert doc["components"]["counting_ok"] is counting.ok
    assert doc["diagnostics"]["k"] == 2
    assert doc["diagnostics"]["synthetic"] is True


# ---------------------------------------------------------------------------
# components_near_infinity
# ---------------------------------------------------------------------------


def test_components_near_infinity_synthetic_counts_translates():
    clf = SyntheticSlice()
    q, z = find_rectangle(classifier=clf)
    report = verify_witness(q, z, clf, raster_rows=32)
    r = report.R
    counting = components_near_infinity(report, 3, clf, cols=256)
    assert counting.ok
    assert counting.components_found >= 3
    assert counting.straddlers == ()
    assert len(counting.per_translate) == 3
    for j, tc in enumerate(counting.per_translate):
        assert tc.translate == j
        assert tc.re_min == pytest.approx(r.re_min + 2.0 * j)
        assert tc.re_max == pytest.approx(r.re_max + 2.0 * j)
        assert tc.member_point_ok
        assert tc.components
        assert tc.ok
    # The counting window covers exactly the k translates of R.
    assert counting.raster.window.re_min == pytest.approx(r.re_min)
    assert counting.raster.window.re_max == pytest.approx(r.re_max + 4.0)


@pytest.mark.parametrize(
    "case",
    [
        lambda: (SyntheticSlice(), *find_rectangle(SyntheticSlice())),
        lambda: (RealClassifier(), REAL_Q, REAL_Z),  # find_rectangle's, as pinned below
    ],
    ids=["synthetic", "honest"],
)
def test_witness_document_window_is_r_over_k_translates(case):
    # The counting window is R with re_max moved 2(k - 1) right: the
    # document gives R's own bounds, not ones worked out again.
    clf, q, z = case()
    k, cols, rows = 5, 128, 16
    report = verify_witness(q, z, clf, raster_rows=rows)
    counting = components_near_infinity(report, k, clf, cols=cols)
    window = report.to_json_dict(counting, clf.describe())["components"]["window"]
    r = asdict(report.R)
    assert window == {**r, "re_max": r["re_max"] + 2.0 * (k - 1), "cols": cols, "rows": rows}


def test_components_near_infinity_rejects_k_zero():
    # the synthetic construction: R = [-2.45, -1.55] x [2.97, 3.06], base -3 + 4.545i
    q = AxisRectangle(-1.45, -0.55, 1.485, 1.575)
    report = verify_witness(q, complex(-1.0, 1.515), SyntheticSlice())
    with pytest.raises(ValueError, match="k >= 1"):
        components_near_infinity(report, 0, SyntheticSlice())


@pytest.mark.parametrize("k", [2.5, True, "2"])
def test_components_near_infinity_rejects_k_that_is_not_a_positive_int(k):
    # the check verify_witness applies to raster_rows: a bool is not a count
    clf = SyntheticSlice()
    report = verify_witness(*find_rectangle(clf), clf, raster_rows=4)
    with pytest.raises(ValueError, match="k >= 1"):
        components_near_infinity(report, k, clf, cols=8)


@pytest.mark.parametrize("rows", [3, 16])
def test_counting_raster_is_r_over_k_translates_at_the_verified_rows(rows):
    # The count takes R, the base point 3z and the rows from the report: its
    # raster is rasterize_a_slice at 3z over R widened by 2(k - 1), with the
    # rows the samples were spaced for.
    clf = SyntheticSlice()
    q, z = find_rectangle(clf)
    report = verify_witness(q, z, clf, raster_rows=rows)
    assert report.raster_rows == rows
    k, cols = 3, 96
    counting = components_near_infinity(report, k, clf, cols=cols)
    r = report.R
    want = Window.from_bounds(r.re_min, r.re_max + 2.0 * (k - 1), r.im_min, r.im_max, cols, rows)
    assert counting.raster.cells.shape == (rows, cols)
    assert asdict(counting.raster.window) == asdict(want)
    assert np.array_equal(counting.raster.cells, rasterize_a_slice(3.0 * z, want, clf).cells)


def test_translate_count_describe_shape():
    clf = SyntheticSlice()
    q, z = find_rectangle(classifier=clf)
    report = verify_witness(q, z, classifier=clf)
    counting = components_near_infinity(report, 1, clf, cols=128)
    (row,) = report.to_json_dict(counting, clf.describe())["components"]["per_translate"]
    assert [f.name for f in fields(TranslateCount)] == list(row)


# ---------------------------------------------------------------------------
# The honest classifier end-to-end (regression-pinned)
# ---------------------------------------------------------------------------


def test_find_rectangle_real_regression():
    q, z = find_rectangle(RealClassifier())
    assert q.re_min == REAL_Q.re_min and q.re_max == REAL_Q.re_max
    assert q.im_min == pytest.approx(REAL_Q.im_min, abs=1e-12)
    assert q.im_max == pytest.approx(REAL_Q.im_max, abs=1e-12)
    assert z.real == REAL_Z.real
    assert z.imag == pytest.approx(REAL_Z.imag, abs=1e-12)
    _approx_rect(build_R(q, z), REAL_R)
    # The construction bottoms out on the valley floor at sqrt(3): subtracting
    # the inside margin (0.015) from the outside band recovers it.
    d = z.imag - q.im_min
    floor_out = z.imag - (d - 0.015)
    assert floor_out == pytest.approx(SQRT3, abs=1e-9)


def test_verify_witness_real_regression():
    report = verify_witness(REAL_Q, REAL_Z, RealClassifier())
    assert report.all_certified
    assert report.interior_sample_verdict.verdict is AVerdict.MEMBER
    assert report.interior_sample_verdict.n == 1
    assert report.offending_samples == ()
    assert report.sample_codes.size == 2726
