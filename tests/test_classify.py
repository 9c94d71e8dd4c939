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
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import maskit.classify
from maskit.classify import (
    _VERDICT_CODE,
    CELL_INSIDE_MINUS,
    CELL_INSIDE_PLUS,
    CELL_OUTSIDE,
    GROW_THRESHOLD,
    INSIDE_MARGIN,
    REAL_PART_LIMIT,
    ClassifierConfig,
    RealClassifier,
    SyntheticSlice,
    Verdict,
    _closes,
    _grid_of,
    _next_level,
    _settle_fans,
    classify_point,
)
from maskit.raster import AVerdict, Window, a_membership, membership_with
from oracle import matrix_trace

_SQRT3 = math.sqrt(3.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(q_max=1)
    with pytest.raises(ValueError):
        ClassifierConfig(node_budget=0)


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
    # Near |Re z| = 1e300 the fan's z + 2.0*n no longer changes with n, so an
    # unguarded search never ends; run it where a hang cannot stall the suite.
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
    # precedence: the budget, then q_max, then the margin
    assert classify_point(3j).reason is None
    assert classify_point(2.0001j).reason == "margin"
    assert classify_point(3j, ClassifierConfig(q_max=2)).reason == "q_max"
    assert classify_point(2.0001j, ClassifierConfig(q_max=2)).reason == "q_max"
    assert classify_point(3j, ClassifierConfig(node_budget=5)).reason == "budget"
    assert classify_point(2.0001j, ClassifierConfig(q_max=2, node_budget=6)).reason == "budget"
    # here an edge was capped at q_max before the budget ran out
    assert classify_point(3j, ClassifierConfig(q_max=2, node_budget=8)).reason == "budget"


def _scalar_codes(re, im, cfg):
    return [_VERDICT_CODE[classify_point(complex(x, y), cfg).verdict] for x, y in zip(re, im)]


_CFGS = [
    ClassifierConfig(),
    ClassifierConfig(q_max=2, node_budget=1),
    ClassifierConfig(q_max=2),
    ClassifierConfig(q_max=5),
    ClassifierConfig(q_max=16, node_budget=5),
    ClassifierConfig(q_max=64, node_budget=200),
]


@given(
    points=st.lists(
        st.tuples(
            st.floats(min_value=-7.0, max_value=7.0),
            st.floats(min_value=-4.5, max_value=4.5) | st.sampled_from([0.0, 2.0, 1.75, -2.0]),
        ),
        min_size=1,
        max_size=40,
    ),
    k=st.integers(min_value=-3, max_value=3),
    cfg=st.sampled_from(_CFGS),
)
@settings(max_examples=150, deadline=None)
def test_classify_grid_matches_classify_point(points, k, cfg):
    re = np.array([x + 2.0 * k for x, _ in points])  # 2k translates
    im = np.array([y for _, y in points])
    assert RealClassifier(cfg).classify_grid(re, im).tolist() == _scalar_codes(re, im, cfg)


@pytest.mark.parametrize(
    "constants",
    [
        {},
        {"_FAN_BLOCK": 7, "_GRID_BLOCK": 7},  # fan and search blocks end inside the grid
        # every searched point has at least two fan edges, so every block's
        # first frontier passes the cap: all go to classify_point
        {"_GRID_EDGES": 1},
        {"_GRID_BLOCK": 10**9},  # one block searches the whole queue
        # a small cap: some blocks pass it mid-search, others finish
        {"_GRID_BLOCK": 7, "_GRID_EDGES": 30},
        # Below 2 the search rejects past the fan too, and runs deep; below
        # 1 some traces overflow, and abs() raises OverflowError.
        {"REJECT_THRESHOLD": 1.5},
        {"REJECT_THRESHOLD": 1.5, "_GRID_BLOCK": 7, "_GRID_EDGES": 30},
        {"REJECT_THRESHOLD": 0.5},
        # one or three points to a fan block and to a search block
        {"_FAN_BLOCK": 1, "_GRID_BLOCK": 1},
        {"_FAN_BLOCK": 3, "_GRID_BLOCK": 3},
    ],
)
@pytest.mark.parametrize("cfg", _CFGS)
def test_classify_grid_pinned_cases(monkeypatch, constants, cfg):
    for name, value in constants.items():
        monkeypatch.setattr(maskit.classify, name, value)
    re, im = np.meshgrid(np.linspace(-3.0, 3.0, 41), np.linspace(-3.0, 3.0, 31))
    re, im = re.ravel(), im.ravel()  # includes the row Im z = 0
    try:
        want = _scalar_codes(re, im, cfg)
    except OverflowError:
        with pytest.raises(OverflowError):
            RealClassifier(cfg).classify_grid(re, im)
        return
    assert RealClassifier(cfg).classify_grid(re, im).tolist() == want


@pytest.mark.parametrize("block", [1024, 16])
def test_classify_grid_searches_a_sparse_queue(monkeypatch, block):
    # 16,384 points the fan settles (inside at Im z = 6, outside at 0.5),
    # with 40 points that need a search scattered among them: the queue
    # gathers those into search blocks.  A budget of 16 nodes cuts off about
    # half of their searches.
    monkeypatch.setattr(maskit.classify, "_GRID_BLOCK", block)
    rng = np.random.default_rng(7)
    re = rng.uniform(-3.0, 3.0, 16 * 1024)
    im = np.where(rng.random(re.size) < 0.5, 6.0, 0.5)
    searched = rng.choice(re.size, 40, replace=False)
    im[searched] = rng.uniform(1.7, 2.6, searched.size)
    explored = [classify_point(complex(re[p], im[p])).explored for p in searched]
    assert sum(n > 16 for n in explored) >= 10 and sum(7 < n <= 16 for n in explored) >= 10
    for cfg in (ClassifierConfig(), ClassifierConfig(node_budget=16)):
        assert RealClassifier(cfg).classify_grid(re, im).tolist() == _scalar_codes(re, im, cfg)


def _count_handoffs(monkeypatch) -> list:
    """The points classify_grid hands to classify_point from now on."""
    calls = []
    scalar = maskit.classify.classify_point

    def counting(z, cfg=None):
        calls.append(z)
        return scalar(z, cfg)

    monkeypatch.setattr(maskit.classify, "classify_point", counting)
    return calls


def _render_chunk():
    """Rows 128 to 191 of the 512² render window: the 64×512 chunk whose
    search frontiers are the largest."""
    xs, ys = Window.from_bounds(-3.0, 3.0, 0.0, 3.0, 512, 512).centers()
    return np.broadcast_arrays(xs, ys[128:192, None])


@pytest.mark.parametrize("z", [-1 + 1.8j, -0.95 + 1.8j, -1 + 1.9j, -1 + 2.5j, -0.85 - 2.5j])
def test_classify_grid_is_exact_at_the_budget(monkeypatch, z):
    # The whole tree of z has n nodes.  At node_budget = n the search
    # finishes it and gives the inside verdict itself; at n - 1 the tree
    # passes the budget, and classify_point decides (Undetermined).
    n = classify_point(z).explored
    assert classify_point(z).verdict in (Verdict.INSIDE_PLUS, Verdict.INSIDE_MINUS)
    calls = _count_handoffs(monkeypatch)
    for budget, handed in ((n, 0), (n - 1, 1)):
        cfg = ClassifierConfig(node_budget=budget)
        want = _scalar_codes([z.real], [z.imag], cfg)
        calls.clear()
        assert RealClassifier(cfg).classify_grid(z.real, z.imag).tolist() == want[0]
        assert len(calls) == handed
    assert want == [_VERDICT_CODE[Verdict.UNDETERMINED]]


def test_classify_grid_hands_off_only_order_dependent_points(monkeypatch):
    re, im = _render_chunk()
    calls = _count_handoffs(monkeypatch)
    RealClassifier().classify_grid(re, im)
    assert calls == []
    # Rejections past the fan, and trees past a small budget, are decided
    # by classify_point.
    monkeypatch.setattr(maskit.classify, "REJECT_THRESHOLD", 1.5)
    cfg = ClassifierConfig(node_budget=9)
    codes = RealClassifier(cfg).classify_grid(re, im)
    assert len(calls) > 0
    assert codes.ravel().tolist() == _scalar_codes(re.ravel(), im.ravel(), cfg)


# tracemalloc's peak for classify_grid on _render_chunk() with the lock-step
# lanes this search replaced (numpy 2.4.6).  The frontiers, 960 queued points
# to a block with the edges closed where they are born never stored, stay
# below it (1,452,476 bytes); at 1,024 points a block they would not.
_LANES_PEAK_BYTES = 1_568_625


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
    assert peak < _LANES_PEAK_BYTES


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
    # growing q_max / node_budget may resolve Undetermined but never flips a
    # determined verdict
    small = ClassifierConfig(q_max=16, node_budget=400)
    big = ClassifierConfig(q_max=512, node_budget=40000)
    rng = random.Random(41)
    for _ in range(200):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.0, 3.0))
        coarse = classify_point(z, small).verdict
        fine = classify_point(z, big).verdict
        if coarse is not Verdict.UNDETERMINED:
            assert coarse == fine, f"z={z}: {coarse} -> {fine}"


# The prune lemmas, tested through the batch kernel that applies them.  Their
# proofs use only the recursion t_m = t_l*t_r - t_d, so free complex triples
# are fair edges.  classify_point's copy of the prunes is checked only
# through the scalar-versus-batch tests above.


def _traces(rng, n, lo, hi):
    """n complex numbers of modulus uniform in [lo, hi) and uniform argument."""
    return rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.random(n))


def _pruned(tl, tr, td):
    """The edges (l, r; d) that _next_level ends, or both of whose children
    it closes, without a hand-off: each edge its own point, both slopes of
    denominator 1, no budget or q_max."""
    n = tl.size
    frontier = np.array(
        [
            [1.0] * n, tl.real, tl.imag, np.hypot(tl.real, tl.imag),
            [1.0] * n, tr.real, tr.imag, np.hypot(tr.real, tr.imag),
            td.real, td.imag, np.hypot(td.real, td.imag),
        ]
    )
    explored = np.zeros(n, np.intp)
    spoiled = np.zeros(n, bool)
    handed = np.zeros(n, bool)
    cfg = ClassifierConfig(q_max=2**40, node_budget=2**40)
    store = [np.empty(0)] * 2
    goes_on, _ = _next_level(np.arange(n), frontier, explored, spoiled, handed, cfg, store)
    ended = np.ones(n, bool)
    ended[goes_on] = False
    return np.flatnonzero(ended & ~handed)


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
        assert (low >= GROW_THRESHOLD).all(), tl[chunk][low < GROW_THRESHOLD]


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


# Parts at the thresholds' scale, and up to past 2**500, where the product
# of two moduli passes _closes' finiteness guard.
_PARTS = st.floats(min_value=-8.0, max_value=8.0) | st.floats(min_value=-(2.0**520), max_value=2.0**520)
_TRACES = st.builds(complex, _PARTS, _PARTS)


@given(v=_TRACES, x=_TRACES, d=_TRACES, left=st.booleans(), cancel=st.integers(0, 3))
# Edges just past the closing test: |t_d| = 1.5|t_x| with |t_v| just above
# 2 gives a mediant just above 2, and |t_v||t_x| = 2**1040 an infinite one.
@example(v=complex(2.0 + 2.0**-40, 0.0), x=4 + 0j, d=6 + 0j, left=True, cancel=1)
@example(v=complex(2.0**520, 0.0), x=complex(2.0**520, 0.0), d=0j, left=False, cancel=1)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_a_closed_edge_has_a_finite_mediant_above_the_bar(v, x, d, left, cancel):
    # The search counts the mediant of an edge _closes takes without forming
    # it.  Formed as _next_level forms it, that mediant is finite and at
    # least 2 + INSIDE_MARGIN, so it could neither reject nor spoil the
    # point.  The edge is (v, x; d) or its mirror (x, v; d); with cancel = 0
    # its difference nearly cancels t_v*t_x, an edge that only the
    # |t_d| <= |t_x| clause keeps out, so most such draws are filtered.
    if cancel == 0:
        d = v * x - d
    tl, tr = (v, x) if left else (x, v)
    with np.errstate(over="ignore", invalid="ignore"):  # as in classify_grid
        al, ar, ad = (np.hypot(t.real, t.imag) for t in (tl, tr, d))
        assume(_closes(al, ar, ad))
        tmr = (tl.real * tr.real - tl.imag * tr.imag) - d.real
        tmi = (tl.real * tr.imag + tl.imag * tr.real) - d.imag
        m = np.hypot(tmr, tmi)
    assert math.isfinite(m) and m >= 2.0 + INSIDE_MARGIN, (tl, tr, d, m)


def test_no_stored_edge_is_one_the_search_closes(monkeypatch):
    # Every frontier _next_level receives on the render chunk: no edge in
    # it passes _closes, which would have closed it where it was born.
    sizes = []

    def checking(owner, frontier, *args):
        sizes.append(owner.size)
        assert not _closes(frontier[3], frontier[7], frontier[10]).any()
        return _next_level(owner, frontier, *args)

    monkeypatch.setattr(maskit.classify, "_next_level", checking)
    re, im = _render_chunk()
    codes = RealClassifier().classify_grid(re, im)
    assert len(sizes) > 10 and sum(sizes) > 10_000
    assert codes.ravel().tolist() == _scalar_codes(re.ravel(), im.ravel(), ClassifierConfig())


def test_settle_fans_window_holds_every_low_integer_trace():
    # For each point the integer fan leaves searching, every n with
    # |z + 2n| < g lies in [n0 + hi - sp, n0 + hi], the vertices its fan
    # edges join (n0 = round(-Re z / 2)), and both ends are at least g, so
    # the subtrees past them prune: checked by brute force over n.  |z + 2n|
    # is convex in n, so the n below g are consecutive.
    rng = np.random.default_rng(15)
    re = rng.uniform(-8.0, 8.0, 20_000)
    im = rng.uniform(-4.5, 4.5, 20_000)
    _, hi, sp, _ = _settle_fans(re, im, ClassifierConfig())
    searching = np.flatnonzero(sp)
    assert searching.size > 1000
    for p, top, edges in zip(searching.tolist(), hi[searching].tolist(), sp[searching].tolist()):
        z = complex(re[p], im[p])
        n0 = round(-z.real / 2.0)
        low = [n for n in range(n0 - 20, n0 + 21) if abs(z + 2.0 * n) < GROW_THRESHOLD]
        assert (n0 + top - edges, n0 + top) == (min(low) - 1, max(low) + 1), z


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=2.2, max_value=6.0),
)
@settings(max_examples=100)
def test_high_points_certify_inside(x, y):
    # everything comfortably above the boundary band certifies quickly
    assert classify_point(complex(x, y)).verdict is Verdict.INSIDE_PLUS


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
    rc = RealClassifier(ClassifierConfig(q_max=64))
    assert rc.classify(4j).verdict is Verdict.INSIDE_PLUS
    d = rc.describe()
    assert d["kind"] == "real"
    assert d["q_max"] == 64
    default = RealClassifier(ClassifierConfig()).describe()
    assert list(default.items()) == [
        ("kind", "real"),
        ("q_max", 512),
        ("grow_threshold", 4.0),
        ("reject_threshold", 2.0),
        ("inside_margin", 0.001),
        ("node_budget", 20000),
    ]
