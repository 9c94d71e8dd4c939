"""Classifier verdicts, their soundness certificates, and the membership test."""

import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskit.classify
from maskit.classify import (
    _VERDICT_CODE,
    CELL_INSIDE_MINUS,
    CELL_INSIDE_PLUS,
    CELL_OUTSIDE,
    CELL_UNDETERMINED,
    INSIDE_MARGIN,
    REAL_PART_LIMIT,
    REJECT_THRESHOLD,
    RealClassifier,
    SyntheticSlice,
    Verdict,
    _grid_of,
    _settle_fans,
    classify_point,
)
from maskit.raster import AVerdict, Window, a_membership, membership_with
from oracle import GROW, matrix_trace, prunes, search

_SQRT3 = math.sqrt(3.0)


def test_real_axis_is_outside():
    for x in (-3.0, 0.0, 1.5):
        c = classify_point(x)
        assert c.verdict is Verdict.OUTSIDE_CERTIFIED
        assert c.witness is None
        assert c.reason == "slice misses the real axis"


@pytest.mark.parametrize(
    "z",
    [
        complex(0, math.nan),
        complex(0, math.inf),
        complex(0, -math.inf),
        complex(math.inf, 1.0),
        complex(math.nan, 4.0),
    ],
)
def test_non_finite_point_is_rejected(z):
    with pytest.raises(ValueError, match="non-finite"):
        classify_point(z)
    with pytest.raises(ValueError, match="non-finite"):
        SyntheticSlice().classify(z)
    with pytest.raises(ValueError, match="non-finite"):
        a_membership(z, 8j)
    with pytest.raises(ValueError, match="non-finite"):
        a_membership(4j, z)
    for classifier in (RealClassifier(), SyntheticSlice()):
        with pytest.raises(ValueError, match="non-finite"):
            membership_with(classifier, 4j, z)
        with pytest.raises(ValueError, match="non-finite"):
            membership_with(classifier, z, 8j)


def test_real_part_past_the_limit_is_rejected():
    assert classify_point(complex(REAL_PART_LIMIT, 3.0)).verdict is Verdict.INSIDE_PLUS
    beyond = complex(2.0 * REAL_PART_LIMIT, 3.0)
    with pytest.raises(ValueError, match="exceeds"):
        classify_point(beyond)
    with pytest.raises(ValueError, match="exceeds"):
        classify_point(-beyond)
    with pytest.raises(ValueError, match="exceeds"):
        RealClassifier().classify_grid([0.0, beyond.real], [3.0, 3.0])
    with pytest.raises(ValueError, match="non-finite"):
        RealClassifier().classify_grid([0.0, 1.0], [3.0, math.nan])


def test_huge_real_part_raises_instead_of_looping():
    # Near |Re z| = 1e300 the fan's z + 2.0*n no longer changes with n, and
    # the search the fan replaced never ended there; run it where a hang
    # cannot stall the suite.
    code = textwrap.dedent(
        """
        from maskit.classify import RealClassifier, classify_point
        for call in (
            lambda: classify_point(1e300 + 1j),
            lambda: RealClassifier().classify_grid(1e300, 1.0),
        ):
            try:
                call()
            except ValueError:
                continue
            raise SystemExit("no ValueError")
        """
    )
    src = str(Path(maskit.classify.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_inside_fixtures():
    assert classify_point(4j).verdict is Verdict.INSIDE_PLUS
    assert classify_point(-4j).verdict is Verdict.INSIDE_MINUS
    assert classify_point(2.001j).verdict is Verdict.INSIDE_PLUS
    assert classify_point(complex(-1, 1.75)).verdict is Verdict.INSIDE_PLUS
    assert classify_point(complex(3, 2.5)).verdict is Verdict.INSIDE_PLUS


def test_outside_fixtures():
    c = classify_point(0.1j)
    assert c.verdict is Verdict.OUTSIDE_CERTIFIED
    assert (c.witness.p, c.witness.q) == (0, 1)
    assert classify_point(1.999j).verdict is Verdict.OUTSIDE_CERTIFIED
    assert classify_point(complex(-1, 1.72)).verdict is Verdict.OUTSIDE_CERTIFIED
    assert classify_point(complex(1, -0.5)).verdict is Verdict.OUTSIDE_CERTIFIED


def test_boundary_margin_is_undetermined():
    # 2.0001i sits above the boundary but inside the certification margin
    assert classify_point(2.0001j).verdict is Verdict.UNDETERMINED


def test_undetermined_reason_names_the_limit():
    # the margin is the one limit left: the fan is always formed whole
    assert classify_point(3j).reason is None
    assert classify_point(2.0001j).reason == "margin"
    assert classify_point(complex(4.0, -2.0005)).reason == "margin"
    assert classify_point(complex(-1.0, 1.75)).reason is None


def _scalar_codes(re, im):
    return [_VERDICT_CODE[classify_point(complex(x, y)).verdict] for x, y in zip(re, im)]


def _near_a_circle(n, radius, angle):
    """The point at radius and angle from the fan circle's centre -2n."""
    return complex(-2.0 * n + radius * math.cos(angle), radius * math.sin(angle))


# Moduli at and around the two thresholds, to the last few ulps, and free ones.
_RADII = (
    st.floats(min_value=2.0 - 1e-14, max_value=2.0 + 1e-14)
    | st.floats(min_value=2.001 - 1e-14, max_value=2.001 + 1e-14)
    | st.floats(min_value=0.0, max_value=4.5)
)


@given(
    points=st.lists(
        st.builds(
            _near_a_circle,
            st.integers(min_value=-3, max_value=3),
            _RADII,
            st.floats(min_value=-math.pi, max_value=math.pi) | st.sampled_from([0.0, math.pi / 2]),
        ),
        min_size=1,
        max_size=40,
    ),
    # far translates round Re z coarser, and so unpack the points
    k=st.integers(min_value=-3, max_value=3) | st.integers(min_value=-(2**20), max_value=2**20),
)
@settings(max_examples=150, deadline=None)
def test_classify_grid_matches_classify_point(points, k):
    # Points packed around |z + 2n| = 2 and 2 + INSIDE_MARGIN, and their 2k
    # translates: classify_grid decides each of them as classify_point does.
    re = np.array([z.real + 2.0 * k for z in points])
    im = np.array([z.imag for z in points])
    assert RealClassifier().classify_grid(re, im).tolist() == _scalar_codes(re, im)


# The classifier's configuration is its module constants: the thresholds,
# against which the batch and scalar paths must decide alike, and the block
# in which classify_grid settles the fan.  The bar 2 + INSIDE_MARGIN stays
# at most 3, where the three nearest translates hold every trace below it.
_CFGS = [
    {},
    {"INSIDE_MARGIN": 0.5},  # a wide Undetermined band
    {"REJECT_THRESHOLD": 1.5},
    {"REJECT_THRESHOLD": 1.5, "INSIDE_MARGIN": 1.0},  # the bar at 3
    {"REJECT_THRESHOLD": 0.5},  # the real axis is rejected by its own rule
    {"REJECT_THRESHOLD": 2.0 + INSIDE_MARGIN},  # no Undetermined band
]


@pytest.mark.parametrize(
    "constants",
    [
        {},
        # one, two or three points to a block, and blocks that end inside
        # the 1,271-point grid
        {"_FAN_BLOCK": 1},
        {"_FAN_BLOCK": 2},
        {"_FAN_BLOCK": 3},
        {"_FAN_BLOCK": 7},
        {"_FAN_BLOCK": 64},
        {"_FAN_BLOCK": 1270},  # a last block of one point
        {"_FAN_BLOCK": 1271},  # one block, the grid exactly
        {"_FAN_BLOCK": 1272},
        {"_FAN_BLOCK": 10**9},
    ],
)
@pytest.mark.parametrize("cfg", _CFGS)
def test_classify_grid_pinned_cases(monkeypatch, constants, cfg):
    for name, value in {**cfg, **constants}.items():
        monkeypatch.setattr(maskit.classify, name, value)
    re, im = np.meshgrid(np.linspace(-3.0, 3.0, 41), np.linspace(-3.0, 3.0, 31))
    re, im = re.ravel(), im.ravel()  # includes the row Im z = 0
    assert RealClassifier().classify_grid(re, im).tolist() == _scalar_codes(re, im)


def _render_chunk():
    """Rows 128 to 191 of the 512² render window, one of the 64×512 chunks
    rasterize_maskit classifies in one call."""
    xs, ys = Window.from_bounds(-3.0, 3.0, 0.0, 3.0, 512, 512).centers()
    return np.broadcast_arrays(xs, ys[128:192, None])


def _search_budget(z) -> int:
    """The least node_budget at which the search reaches a verdict at z:
    the number of nodes of z's whole tree, for a point it calls inside."""
    lo, hi = 1, 20000
    while lo < hi:
        mid = (lo + hi) // 2
        if search(z, node_budget=mid)[0] == "Undetermined":
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("z", [-1 + 1.8j, -0.95 + 1.8j, -1 + 1.9j, -1 + 2.5j, -0.85 - 2.5j])
def test_classify_grid_is_exact_at_the_budget(z):
    # The search needs the whole tree of z, n nodes, to call it inside: at
    # node_budget = n it gives classify_grid's verdict, at n - 1 it stops
    # Undetermined.  The fan decides at once what the search decides last.
    n = _search_budget(z)
    verdict, _ = search(z, node_budget=n)
    assert verdict in ("InsidePlus", "InsideMinus") and n > 3
    assert search(z, node_budget=n - 1) == ("Undetermined", None)
    assert RealClassifier().classify_grid(z.real, z.imag) == _VERDICT_CODE[Verdict(verdict)]


# The sets of points on which the fan rule must give the search's verdicts
# at its old defaults (q_max 512, node_budget 20,000).
def _oracle_points() -> dict[str, list[complex]]:
    xs, ys = Window.from_bounds(-3.0, 3.0, 0.0, 3.0, 512, 512).centers()
    rng = np.random.default_rng(2601)

    def near_circles(size, lo, hi):
        n, angle = rng.integers(-3, 4, size), rng.uniform(-math.pi, math.pi, size)
        return list(map(_near_a_circle, n.tolist(), rng.uniform(lo, hi, size), angle.tolist()))

    cusp = complex(-0.5812, 1.6939)  # the 1/3 cusp
    band = near_circles(1000, 2.0, 2.001)
    return {
        "render": [complex(x, y) for y in ys[4::16].tolist() for x in xs[4::8].tolist()],
        "cusp": [cusp + 1j * dy for dy in (0.0, 0.001, 0.07, 0.3)],
        "ring": near_circles(200, 2.0, 2.05),
        "band": [z for z in band if 2.0 <= min(abs(z + 2.0 * k) for k in range(-6, 7)) < 2.001],
    }


def test_fan_rule_agrees_with_the_search_oracle():
    # The deletion of the search changed no verdict: classify_point and
    # classify_grid give the search's verdict, and classify_point its
    # rejecting slope, on the render window's 64×32 subgrid, the 1/3 cusp
    # and points above it, points just outside a fan disk, and the margin
    # band 2 <= min |z + 2n| < 2.001.
    points = _oracle_points()
    assert len(points["render"]) == 2048 and len(points["band"]) >= 100
    seen = set()
    for name, zs in points.items():
        codes = RealClassifier().classify_grid([z.real for z in zs], [z.imag for z in zs])
        for z, code in zip(zs, codes.tolist()):
            verdict, slope = search(z)
            got = classify_point(z)
            witness = got.witness and (got.witness.p, got.witness.q)
            assert (got.verdict.value, witness) == (verdict, slope), (name, z)
            assert code == _VERDICT_CODE[got.verdict], (name, z)
            seen.add((name, verdict))
    assert {("band", "Undetermined"), ("ring", "InsidePlus"), ("cusp", "InsidePlus")} <= seen
    assert ("cusp", "OutsideCertified") in seen


# A bound on tracemalloc's peak for classify_grid on _render_chunk(): the
# output and the temporaries of one _FAN_BLOCK of points took 210,008 bytes
# with numpy 2.4.6, and those of the whole chunk at once 1,149,136.
_FAN_PEAK_BYTES = 512 * 1024


def test_classify_grid_peak_allocation():
    re, im = _render_chunk()
    clf = RealClassifier()
    clf.classify_grid(re, im)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        clf.classify_grid(re, im)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _FAN_PEAK_BYTES


class _ClassifyOnly:
    """A classifier with classify alone, which _grid_of serves a point at a time."""

    def __init__(self, inner):
        self.classify = inner.classify


def _grids(clf):
    """clf's classify_grid, and _grid_of's per-point stand-in built on its classify."""
    assert _grid_of(clf) == clf.classify_grid
    return [clf.classify_grid, _grid_of(_ClassifyOnly(clf))]


def _assert_first_bad_point_raises(grid):
    # row-major order: (nan, 4) comes before (1, inf)
    with pytest.raises(ValueError, match=r"non-finite point \(nan\+4j\)"):
        grid(np.array([[0.0, math.nan], [1.0, 2.0]]), np.array([[4.0], [math.inf]]))


def test_classify_grid_shapes():
    for grid in _grids(RealClassifier()):
        assert grid([], []).shape == (0,)
        codes = grid(np.array([0.0, 1.0]), np.array([[4.0], [0.5], [-4.0]]))
        assert codes.shape == (3, 2) and codes.dtype == np.uint8
        assert codes.tolist() == [[0, 0], [2, 2], [1, 1]]
        assert grid(0.0, 4.0).shape == ()
        _assert_first_bad_point_raises(grid)


# Partners of a zero coordinate: the fan thresholds on Re z = 0 (Im z = 2
# and 2.001), the synthetic curve's peak and valley heights (2 and 1.5),
# odd integers, where two fan translates tie, and free values.
_ZERO_PARTNERS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.0005, 2.001, 3.0, 4.0, 5.5)


@pytest.mark.parametrize("clf", [RealClassifier(), SyntheticSlice()], ids=["real", "synthetic"])
def test_a_zero_coordinate_has_one_verdict_whatever_its_sign(clf):
    # membership_grid forms its test points a component at a time, and so
    # can give a zero coordinate the other sign than CPython's complex
    # arithmetic would: no verdict may depend on that sign
    zeros = np.array([0.0, -0.0])
    for other in (*_ZERO_PARTNERS, *(-v for v in _ZERO_PARTNERS)):
        for re, im in ((zeros, other), (other, zeros)):
            re, im = np.broadcast_arrays(np.asarray(re, np.float64), np.asarray(im, np.float64))
            codes = clf.classify_grid(re, im).tolist()
            scalar = [
                _VERDICT_CODE[clf.classify(complex(x, y)).verdict]
                for x, y in zip(re.tolist(), im.tolist())
            ]
            assert codes == scalar == [codes[0], codes[0]], (other, re.tolist(), im.tolist())


def _synthetic_codes(re, im):
    clf = SyntheticSlice()
    return [_VERDICT_CODE[clf.classify(complex(x, y)).verdict] for x, y in zip(re, im)]


@given(
    points=st.lists(
        st.tuples(
            st.floats(min_value=-7.0, max_value=7.0) | st.floats(min_value=-1e9, max_value=1e9),
            st.floats(min_value=-3.0, max_value=3.0) | st.sampled_from([0.0, 1.5, -2.0]),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
def test_synthetic_classify_grid_matches_classify(points):
    clf = SyntheticSlice()
    x = np.array([p[0] for p in points])
    h = np.array([clf.boundary_height(v) for v in x.tolist()])
    # Free points, then Im z = h(x) and -h(x) exactly and their neighbours.
    heights = [np.array([p[1] for p in points]), h, -h]
    heights += [np.nextafter(y, toward) for y in (h, -h) for toward in (np.inf, -np.inf)]
    re = np.tile(x, len(heights))
    im = np.concatenate(heights)
    codes = clf.classify_grid(re, im)
    assert codes.tolist() == _synthetic_codes(re.tolist(), im.tolist())
    _, top, bottom, above_top, below_top, above_bottom, below_bottom = codes.reshape(7, -1)
    assert (top == CELL_OUTSIDE).all() and (bottom == CELL_OUTSIDE).all()
    assert (below_top == CELL_OUTSIDE).all() and (above_bottom == CELL_OUTSIDE).all()
    assert (above_top == CELL_INSIDE_PLUS).all() and (below_bottom == CELL_INSIDE_MINUS).all()


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0), (math.nan, math.nan)])
def test_synthetic_classify_grid_rejects_non_finite_points(bad):
    re, im = np.array([0.0, bad[0]]), np.array([4.0, bad[1]])
    with pytest.raises(ValueError, match="non-finite"):
        SyntheticSlice().classify_grid(re, im)


def test_synthetic_classify_grid_shapes():
    for grid in _grids(SyntheticSlice()):
        assert grid([], []).shape == (0,)
        codes = grid(np.array([0.0, 1.0]), np.array([[4.0], [1.6], [-4.0]]))
        assert codes.shape == (3, 2) and codes.dtype == np.uint8
        assert codes.tolist() == [[0, 0], [2, 0], [1, 1]]
        assert grid(0.0, 4.0).shape == ()
        _assert_first_bad_point_raises(grid)


def test_rejection_witness_is_sound():
    # whenever the classifier claims outside-with-witness, the witness slope
    # really has |trace| < 2 under independent matrix evaluation
    rng = random.Random(23)
    checked = 0
    for _ in range(300):
        z = complex(rng.uniform(-4, 4), rng.uniform(-2.2, 2.2))
        c = classify_point(z)
        if c.verdict is not Verdict.OUTSIDE_CERTIFIED or c.witness is None:
            continue
        t = matrix_trace(z, c.witness)
        assert abs(t) < 2.0, f"witness {c.witness} at z={z} has |t|={abs(t)}"
        checked += 1
    assert checked > 100


def test_verdict_translation_periodicity():
    rng = random.Random(5)
    for _ in range(200):
        z = complex(rng.uniform(-1, 1), rng.uniform(0.25, 3.0))
        a = classify_point(z).verdict
        b = classify_point(z + 2).verdict
        if Verdict.UNDETERMINED not in (a, b):
            assert a == b, f"z={z}"


def test_monotone_refinement():
    # growing the search's q_max / node_budget may resolve Undetermined but
    # never flips a determined verdict, and the fan rule is where it ends
    rng = random.Random(41)
    for _ in range(200):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.0, 3.0))
        coarse, _ = search(z, q_max=16, node_budget=400)
        fine, _ = search(z, q_max=512, node_budget=40000)
        if coarse != "Undetermined":
            assert coarse == fine, f"z={z}: {coarse} -> {fine}"
        assert fine == classify_point(z).verdict.value, f"z={z}"


# The prune lemmas of the search the fan rule replaced, tested through the
# oracle's copy of its prunes.  Their proofs use only the recursion
# t_m = t_l*t_r - t_d, so free complex triples are fair edges.


def _traces(rng, n, lo, hi):
    """n complex numbers of modulus uniform in [lo, hi) and uniform argument."""
    return rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.random(n))


def _pruned(tl, tr, td):
    """The edges (l, r; d) whose subtree the search skips."""
    edges = zip(tl.tolist(), tr.tolist(), td.tolist())
    return np.array([i for i, (l, r, d) in enumerate(edges) if prunes(l, r, d, l * r - d)])


def _lowest_below(tl, tr, td, depth=8):
    """The least |t| of each edge's mediants down to depth levels: the edge
    (l, r; d) has the mediant m = l*r - d and the children (l, m; r), (m, r; l)."""
    low = np.full(tl.size, np.inf)
    tl, tr, td = tl[None], tr[None], td[None]
    for _ in range(depth):
        tm = tl * tr - td
        low = np.minimum(low, np.abs(tm).min(0))
        tl, tr, td = np.vstack((tl, tm)), np.vstack((tm, tr)), np.vstack((tr, tl))
    return low


def _assert_pruned_subtrees_stay_above_g(tl, tr, td):
    pruned = _pruned(tl, tr, td)
    assert pruned.size > tl.size // 3
    for chunk in np.array_split(pruned, 10):  # 2**7 mediants an edge at depth 8
        low = _lowest_below(tl[chunk], tr[chunk], td[chunk])
        assert (low >= GROW).all(), tl[chunk][low < GROW]


def test_pinned_prune_keeps_the_interval_above_g():
    # Edges pinned at a vertex v with 2 < |t_v| < 3: every trace strictly
    # inside a pruned interval is at least g.  Half the draws have
    # |t_d| > |t_x|, which the prune must not take.
    rng = np.random.default_rng(13)
    n = 20_000
    v = _traces(rng, n, 2.0, 3.0)
    x = _traces(rng, n, 4.0, 6.0)
    d = _traces(rng, n, 0.0, 2.0) * np.abs(x)
    left = rng.random(n) < 0.5  # pinned on the left, or on the right
    _assert_pruned_subtrees_stay_above_g(np.where(left, v, x), np.where(left, x, v), d)


def test_two_sided_prune_keeps_the_subtree_above_g():
    # Edges with both ends in [4, 6]: a pruned subtree stays above (g - 1)g,
    # so above g.  |t_d| up to 2|t_l||t_r| puts some mediants below both ends.
    rng = np.random.default_rng(14)
    n = 20_000
    a = _traces(rng, n, 4.0, 6.0)
    b = _traces(rng, n, 4.0, 6.0)
    d = _traces(rng, n, 0.0, 2.0) * np.abs(a) * np.abs(b)
    _assert_pruned_subtrees_stay_above_g(a, b, d)


def _ulps_around(x, k):
    """x and the k floats on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_settle_fans_window_holds_every_low_integer_trace():
    # Every n with |z + 2n| below the bar 2 + INSIDE_MARGIN is one of the
    # three nearest translates n0 - 1, n0, n0 + 1 (n0 = round(-Re z / 2)), so
    # _settle_fans' codes are those of the least modulus over all n: checked
    # by brute force over n.
    rng = np.random.default_rng(15)
    re = rng.uniform(-8.0, 8.0, 20_000)
    im = rng.uniform(-4.5, 4.5, 20_000)
    codes = _settle_fans(re, im)
    low = 0
    for x, y, code in zip(re.tolist(), im.tolist(), codes.tolist()):
        z = complex(x, y)
        n0 = round(-x / 2.0)
        moduli = {n: abs(z + 2.0 * n) for n in range(n0 - 20, n0 + 21)}
        below = [n for n, m in moduli.items() if m < 2.0 + INSIDE_MARGIN]
        assert set(below) <= {n0 - 1, n0, n0 + 1}, z
        m = min(moduli.values())
        side = CELL_INSIDE_PLUS if y > 0 else CELL_INSIDE_MINUS
        assert code == (CELL_OUTSIDE if m < 2.0 else CELL_UNDETERMINED if m < 2.001 else side), z
        low += len(below) > 1
    assert low > 1000  # points below the bar at two translates
    # Step 1 of the lemma in classify's docstring: in floats the nearest
    # translate's real part is the least, |a_0| <= 1 <= |a_-1|, |a_1|, at the
    # odd integers, where -x/2 is half-way and rint rounds half to even, a few
    # ulps either side of them, at zero, and next to +-2^50.
    xs = [5e-324, 0.0, -0.0]
    for c in [2.0 * k + 1.0 for k in range(-6, 6)] + [2.0**50, 2.0**50 - 1.0, 2.0**50 - 3.0]:
        xs += _ulps_around(c, 3) + _ulps_around(-c, 3)
    for x in xs:
        if abs(x) > REAL_PART_LIMIT:
            continue
        n0 = round(-x / 2.0)
        assert np.rint(-x / 2.0) == n0, x
        assert abs(x + 2.0 * n0) <= 1.0 <= min(abs(x + 2.0 * (n0 - 1)), abs(x + 2.0 * (n0 + 1))), x


# x*x + y*y < 4 here, yet |z| >= 2 and classify_point says Undetermined: the
# squared modulus alone would put z outside.
_GUARD_BAND_POINT = 0.3219006875022218 + 1.9739250105780606j


def test_classify_grid_leaves_the_guard_bands_to_classify_point():
    z = _GUARD_BAND_POINT
    assert z.real * z.real + z.imag * z.imag < 4.0 and abs(z) >= 2.0
    assert classify_point(z).verdict is Verdict.UNDETERMINED
    assert RealClassifier().classify_grid(z.real, z.imag) == CELL_UNDETERMINED
    # At x = 2k + 1 the translates n0 and n0 - 1 tie, |a| = 1: points a few
    # ulps either side of both circles |z + 2n| = T, above and below the axis.
    re, im = [], []
    for k in (-3, 0, 1, 2**20):
        for x in _ulps_around(2.0 * k + 1.0, 2):
            for t in (REJECT_THRESHOLD, 2.0 + INSIDE_MARGIN):
                for y in _ulps_around(math.sqrt(t * t - 1.0), 4):
                    re += [x, x]
                    im += [y, -y]
    codes = RealClassifier().classify_grid(re, im).tolist()
    assert codes == _scalar_codes(re, im)
    assert set(codes) == {CELL_OUTSIDE, CELL_UNDETERMINED, CELL_INSIDE_PLUS, CELL_INSIDE_MINUS}


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=2.2, max_value=6.0),
)
@settings(max_examples=100)
def test_high_points_certify_inside(x, y):
    # everything comfortably above the boundary band certifies quickly
    assert classify_point(complex(x, y)).verdict is Verdict.INSIDE_PLUS


def test_explored_counts_the_fan_traces_formed():
    # The fan is n0 - 1, n0, n0 + 1 (n0 = round(-Re z / 2)), formed in that
    # order up to the first rejection, whose slope is the witness.
    c = classify_point(complex(1.0, 0.1))  # n0 = 0; |z - 2| < 2 already
    assert (c.witness.p, c.witness.q, c.explored) == (-1, 1, 1)
    c = classify_point(complex(-1.0, 0.1))  # |z + 2| < 2 too, but |z| comes first
    assert (c.witness.p, c.witness.q, c.explored) == (0, 1, 2)
    assert classify_point(4j).explored == classify_point(2.0001j).explored == 3
    assert classify_point(5.0).explored == 0


def test_explored_counts_are_deterministic():
    a = classify_point(complex(-0.37, 2.11))
    b = classify_point(complex(-0.37, 2.11))
    assert (a.verdict, a.explored) == (b.verdict, b.explored)


def test_synthetic_slice_fixtures():
    s = SyntheticSlice()
    assert s.boundary_height(0.0) == 2.0
    assert abs(s.boundary_height(1.0) - 1.5) < 1e-12
    assert s.classify(complex(0, 2.1)).verdict is Verdict.INSIDE_PLUS
    assert s.classify(complex(0, -2.1)).verdict is Verdict.INSIDE_MINUS
    assert s.classify(complex(1, 1.6)).verdict is Verdict.INSIDE_PLUS
    assert s.classify(complex(1, 1.4)).verdict is Verdict.OUTSIDE_CERTIFIED


def test_membership_fixtures():
    got = a_membership(4j, 8j)
    assert got.verdict is AVerdict.MEMBER
    assert got.n == 0
    # real extension translation can never stay discrete and faithful
    assert a_membership(4j, 5.0).verdict is AVerdict.NON_MEMBER_CERTIFIED
    assert a_membership(4j, 5.0).reason == "Im w = 0"
    # integer ratio of imaginary parts lands a test point on the real axis
    got = a_membership(4j, 4j)
    assert got.verdict is AVerdict.NON_MEMBER_CERTIFIED
    assert "multiple" in got.reason


def test_membership_lower_half_mirror():
    up = a_membership(4j, 8j)
    dn = a_membership(4j, -8j)
    assert up.verdict is dn.verdict is AVerdict.MEMBER
    assert up.n == dn.n == 0


def test_membership_base_precondition():
    with pytest.raises(ValueError, match="base point not certified"):
        a_membership(0.1j, 1j)
    with pytest.raises(ValueError, match="base point not certified"):
        a_membership(-4j, 1j)  # lower-half base is InsideMinus, not InsidePlus


def test_membership_nonmember_by_outside_step():
    # w chosen so the first translate z - w exits the slice entirely
    got = a_membership(4j, complex(0.0, 3.3))
    assert got.verdict in (AVerdict.NON_MEMBER_CERTIFIED, AVerdict.MEMBER)


def test_membership_translation_invariance():
    rng = random.Random(13)
    z = 4j
    hits = 0
    for _ in range(100):
        w = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3.8))
        a = a_membership(z, w)
        b = a_membership(z, w + 2)
        if AVerdict.UNDETERMINED in (a.verdict, b.verdict):
            continue
        assert a.verdict == b.verdict, f"w={w}"
        hits += 1
    assert hits > 60


def test_membership_with_synthetic():
    synth = SyntheticSlice()
    got = membership_with(synth, 4j, 8j)
    assert got.verdict is AVerdict.MEMBER


def test_real_classifier_wrapper():
    rc = RealClassifier()
    assert rc.classify(4j).verdict is Verdict.INSIDE_PLUS
    assert rc == RealClassifier()  # no settings: every instance is the same
    assert list(rc.describe().items()) == [
        ("kind", "real"),
        ("reject_threshold", 2.0),
        ("inside_margin", 0.001),
    ]
