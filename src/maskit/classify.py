"""Graded discreteness classification of points of the z-slice.

classify_point decides, with explicit certainty grades, whether the
parameter z lies in the upper (InsidePlus) or lower (InsideMinus) component
of the slice, is certifiably outside, or is undetermined at the configured
search depth.  The test is the trace-tree search over simple-curve slopes:

  * reject (OutsideCertified) as soon as any slope trace has modulus below
    REJECT_THRESHOLD = 2 (such a word is elliptic or the identity, so the
    group cannot be discrete and free);
  * certify inside only when every explored trace has modulus >= 2 + delta
    (delta = INSIDE_MARGIN) AND every unexplored subtree has been pruned by
    a growth argument that guarantees all of its traces stay above that bar;
  * otherwise Undetermined (budget or depth ran out first).

Growth pruning is sound: on an edge with parent traces t_l, t_r and mediant
trace t_m = t_l*t_r - t_d, if |t_l| >= g, |t_r| >= g (g = GROW_THRESHOLD)
and |t_m| >= max(|t_l|, |t_r|), then for either child edge the next mediant
t' = t_m*t_parent - t_other has |t'| >= (g-1)*|t_m|, so the same hypothesis
holds one level down and every trace in the subtree is >= (g-1)*g.  The
invariant 0 < delta < g - 2 keeps that bound above 2 + delta.  The three
thresholds are module constants; only q_max and node_budget are settable,
through ClassifierConfig.

A second prune handles edges pinned at a single low vertex v (those arise
around every vertex whose trace sits in (2, g): the opposite endpoints form
v's neighbor fan, and the two-sided prune above can never fire since one
endpoint never grows).  The fan traces x_k around v obey the linear
recursion x_{k+1} = t_v*x_k - x_{k-1}, so once |t_v| > 2 strictly they gain
a factor of at least mu = |t_v| - 1 > 1 per step after the turn.  Concretely,
on an edge (v, x) with difference d, if |t_v| > 2, |t_x| >= g and
|t_d| <= |t_x|, then |t_m| >= (|t_v|-1)|t_x| > |t_x|, the same condition
holds for the child edge (v, m), and the off-spine child (m, x) satisfies
the two-sided prune (|t_m|(g-1) >= |t_v| because |t_m| >= max(g, (|t_v|-1)g)
and g(g-1) > 2).  Every trace strictly inside the pruned interval is then
>= g.  Consequence of both prunes: enlarging q_max or node_budget never
flips a determined verdict, it can only resolve Undetermined ones.

The integer slopes n/1 seed the search: t_{n/1} = i(z + 2n), so any z with
|z + 2n| < 2 for some integer n is rejected immediately.  The union of those
disks covers the whole strip |Im z| < sqrt(3), which is what makes points
well below the slice boundary cheap to reject.

Points with Im z = 0 are rejected outright (the slice misses the real axis),
with witness None and an explanatory reason.  An Undetermined verdict names
the limit that decided it: "budget", "q_max" or "margin".  Points with
|Re z| > REAL_PART_LIMIT raise ValueError, as non-finite ones do.

RealClassifier.classify_grid gives classify_point's verdicts for whole
arrays of points at once, as uint8 codes: the integer fan is settled in
bulk, then the points it leaves are searched in blocks, a tree level a round,
with CPython's complex arithmetic written out on float arrays, so each trace
is the scalar one bit for bit.  An edge the pinned fan prune would end is
closed where it is born, from the moduli of its ends and difference alone:
its mediant, of modulus at least (|t_v|-1)|t_x| > g, is counted but never
formed, since it can neither reject nor spoil the point, and the edge is
never stored.  Only an edge with |t_l||t_r| < 2^1000, whose float mediant
is finite too, is closed; one past that bound is stored and searched like
any other.  The few points whose verdict could depend on the search order go
to classify_point.
SyntheticSlice.classify_grid does the same for the stand-in slice.  The
rasters and the witness take a classifier's batch function from _grid_of,
which for a classifier with only classify calls it a point at a time under
the same contract.  The membership test built on these verdicts is in
maskit.raster.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .farey import FareySlope


class Verdict(Enum):
    INSIDE_PLUS = "InsidePlus"
    INSIDE_MINUS = "InsideMinus"
    OUTSIDE_CERTIFIED = "OutsideCertified"
    UNDETERMINED = "Undetermined"

    def __str__(self):
        return self.value


# The verdict thresholds (see the module docstring).  The growth prunes
# prove subtrees stay above 2 + INSIDE_MARGIN only while this holds.
GROW_THRESHOLD = 4.0
REJECT_THRESHOLD = 2.0
INSIDE_MARGIN = 1e-3
assert 0.0 < INSIDE_MARGIN < GROW_THRESHOLD - 2.0

# Points past this |Re z| are rejected: far enough past it z + 2.0*n stops
# changing with n and the integer fan's loop would never end.  Up to it
# every z + 2.0*n the fan forms is exact.
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

# classify_grid settles the integer fan _FAN_BLOCK points at a time (its cost
# is mostly per call) and searches the points it leaves _GRID_BLOCK at a
# time.  A search round takes up to some 400 bytes an edge; at 960 points a
# block's frontier stays within 2,880 edges on the 512² render, as the edges
# _closes takes are never stored, and _GRID_EDGES keeps any round below
# about 7 MB.  960 is the largest multiple of 64 at which classify_grid's
# traced peak on the render's largest chunk stays below that of the
# lock-step lanes this search replaced (tests/test_classify.py).
_FAN_BLOCK = 4096
_GRID_BLOCK = 960
_GRID_EDGES = 2**14
# The integer fan lies within this many translates of the nearest one:
# |Re z + 2n0| <= 1, so |z + 2(n0 +- k)| >= 2k - 1 >= GROW_THRESHOLD there.
_FAN_REACH = 3
assert 2 * _FAN_REACH - 1 >= GROW_THRESHOLD

# SyntheticSlice's boundary curve: peak height and valley depth.
_SYNTHETIC_PEAK = 2.0
_SYNTHETIC_DEPTH = 0.25


@dataclass(frozen=True)
class ClassifierConfig:
    q_max: int = 512
    node_budget: int = 20000

    def __post_init__(self):
        if self.q_max < 2:
            raise ValueError("q_max must be >= 2")
        if self.node_budget <= 0:
            raise ValueError("node_budget must be positive")


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


def classify_point(z, cfg: ClassifierConfig | None = None) -> Classification:
    """Graded verdict for z; pure function of (z, cfg), deterministic.

    Raises ValueError for a non-finite z, which no verdict can describe, and
    for |Re z| > REAL_PART_LIMIT.  An Undetermined verdict carries the reason
    "budget" when node_budget stopped the search, else "q_max" when an edge
    was left unexplored at q_max, else "margin": the search finished, but a
    trace lies in [2, 2 + INSIDE_MARGIN).
    """
    if cfg is None:
        cfg = ClassifierConfig()
    z = complex(z)
    _check_point(z)
    if z.imag == 0.0:
        return Classification(
            Verdict.OUTSIDE_CERTIFIED, None, 0, reason="slice misses the real axis"
        )

    g = GROW_THRESHOLD
    reject = REJECT_THRESHOLD
    bar = 2.0 + INSIDE_MARGIN
    budget = cfg.node_budget
    q_max = cfg.q_max

    explored = 0
    all_above_bar = True
    capped = False
    stopped = False

    # Integer fan: expand from the closest even translate until both ends
    # clear the growth threshold; |z + 2n| is convex in n, so every integer
    # trace below g lies inside [lo, hi], and subtrees beyond the window
    # prune without evaluation (both endpoints >= g forces mediant
    # >= g^2 - 2 >= max there).
    lo = hi = round(-z.real / 2.0)
    while abs(z + 2.0 * lo) < g:
        lo -= 1
    while abs(z + 2.0 * hi) < g:
        hi += 1

    fan = {}
    for n in range(lo, hi + 1):
        t = 1j * (z + 2.0 * n)
        explored += 1
        m = abs(t)
        if m < reject:
            return Classification(Verdict.OUTSIDE_CERTIFIED, FareySlope(n, 1), explored)
        if m < bar:
            all_above_bar = False
        fan[n] = t

    # DFS over interval edges; each entry carries (left slope+trace,
    # right slope+trace, difference trace), so the recursion
    # t_mediant = t_l * t_r - t_d needs no lookups.  Left-to-right order,
    # fixed for determinism of the rejection witness.
    two = 2.0 + 0.0j
    stack = [
        (n, 1, fan[n], n + 1, 1, fan[n + 1], two) for n in range(hi - 1, lo - 1, -1)
    ]
    while stack:
        if explored >= budget:
            stopped = True
            break
        lp, lq, tl, rp, rq, tr, td = stack.pop()
        mp = lp + rp
        mq = lq + rq
        tm = tl * tr - td
        explored += 1
        m = abs(tm)
        if m < reject:
            return Classification(Verdict.OUTSIDE_CERTIFIED, FareySlope(mp, mq), explored)
        if m < bar:
            all_above_bar = False
        al = abs(tl)
        ar = abs(tr)
        if al >= g and ar >= g and m >= (al if al >= ar else ar):
            continue  # two-sided growth prune: subtree provably stays above bar
        ad = abs(td)
        if al > 2.0 and ar >= g and ad <= ar:
            continue  # pinned-left fan prune: interior of (l, r) stays >= g
        if ar > 2.0 and al >= g and ad <= al:
            continue  # pinned-right fan prune, mirror image
        if mq >= q_max:
            capped = True
            continue
        stack.append((mp, mq, tm, rp, rq, tr, tl))
        stack.append((lp, lq, tl, mp, mq, tm, tr))

    if stopped or capped or not all_above_bar:
        reason = "budget" if stopped else "q_max" if capped else "margin"
        return Classification(Verdict.UNDETERMINED, None, explored, reason=reason)
    side = Verdict.INSIDE_PLUS if z.imag > 0 else Verdict.INSIDE_MINUS
    return Classification(side, None, explored)


def _fan_trace(re: np.ndarray, im: np.ndarray, two_n: np.ndarray):
    """Re, Im and modulus of the integer-slope trace 1j*(z + 2.0*n), given
    2.0*n, formed as classify_point forms it."""
    a = re + two_n
    b = im + 0.0
    tr = 0.0 * a - 1.0 * b
    ti = 0.0 * b + 1.0 * a
    return tr, ti, np.hypot(tr, ti)


def _reused(store: list, i: int, shape) -> np.ndarray:
    """An uninitialised float array of the given shape in the flat buffer
    store[i], grown as needed.  Fresh arrays of this size each round would
    cost a page fault a page, as malloc gives them back between rounds."""
    size = math.prod(shape)
    if store[i].size < size:
        store[i] = np.empty(size)
    return store[i][:size].reshape(shape)


def _classify_blocks(re: np.ndarray, im: np.ndarray, cfg: ClassifierConfig) -> np.ndarray:
    """classify_point's verdict codes for the points re.flat + i*im.flat.

    The points _settle_fans leaves searching are queued, and searched
    _GRID_BLOCK points at a time, level by level: each round replaces the
    block's frontier, all its live edges, by the children of the edges that
    go on, and counts in explored, without storing, the fan edges and
    children _closes takes.  As those are counted a round early, the budget
    is checked once more after a block's last round.  A point whose frontier
    empties with explored <= node_budget has met classify_point's whole
    tree, so its verdict (inside, or Undetermined if spoiled) does not
    depend on the search order.  classify_point decides
    the rest: a tree past node_budget, a trace below REJECT_THRESHOLD (which
    one the scalar search meets first depends on the order), an infinite
    modulus, and the live points of a frontier that would pass _GRID_EDGES.
    """
    out, first_hi, first_sp, first_spoiled = _settle_fans(re, im, cfg)
    handoff = []
    store = [np.empty(0)] * 2  # the frontier and its children
    queue = np.flatnonzero(first_sp)
    for b in range(0, queue.size, _GRID_BLOCK):
        p = queue[b : b + _GRID_BLOCK]
        sp = first_sp[p].astype(np.intp)
        explored = sp + 1
        spoiled = first_spoiled[p]
        handed = np.zeros(p.size, bool)
        owner, frontier = _fan_edges(re.flat[p], im.flat[p], first_hi[p], sp, explored, store)
        while owner.size:
            if owner.size > _GRID_EDGES:
                handed[owner] = True
                break
            owner, frontier = _next_level(owner, frontier, explored, spoiled, handed, cfg, store)
        handed |= explored > cfg.node_budget  # the edges closed in the last round
        out[p[spoiled]] = CELL_UNDETERMINED
        handoff.extend(p[handed].tolist())
    for p in handoff:
        verdict = classify_point(complex(float(re.flat[p]), float(im.flat[p])), cfg).verdict
        out[p] = _VERDICT_CODE[verdict]
    return out


def _settle_fans(re: np.ndarray, im: np.ndarray, cfg: ClassifierConfig):
    """The integer fan of the points re.flat + i*im.flat, _FAN_BLOCK points
    at a time: the verdict codes it settles, and for each point it leaves
    searching (the others read 0 there) hi, the offset of the fan's right
    end from n0 = round(-Re z / 2); sp, its number of fan edges; and
    whether a fan trace fell below the bar.  The codes of the points left
    searching are their inside side."""
    g = GROW_THRESHOLD
    bar = 2.0 + INSIDE_MARGIN
    size = re.size
    out = np.empty(size, np.uint8)
    first_hi = np.zeros(size, np.int8)
    first_sp = np.zeros(size, np.int8)
    first_spoiled = np.zeros(size, bool)

    # Integer fan, as offsets k from n0: lo and hi step away from 0 while
    # |z + 2.0*n| < g, as in classify_point.  The trace 1j*(z + 2.0*n) has
    # the parts of z + 2.0*n up to order and sign, which hypot ignores, so
    # the same moduli are the fan traces'.  n0 is always in the fan, and
    # most points the fan rejects are rejected there, so the rest of the
    # fan is formed only for the points n0 leaves.  At |k| = _FAN_REACH the
    # modulus is at least g (see _FAN_REACH), above the bar: only
    # |k| < _FAN_REACH can stop lo or hi, reject or spoil.
    ks = np.arange(1 - _FAN_REACH, _FAN_REACH)[:, None]
    for b in range(0, size, _FAN_BLOCK):
        x = re.flat[b : b + _FAN_BLOCK]
        y = im.flat[b : b + _FAN_BLOCK]
        ok = (np.abs(x) <= REAL_PART_LIMIT) & np.isfinite(y)
        if not ok.all():
            i = int(np.argmin(ok))
            _check_point(complex(float(x[i]), float(y[i])))
        two_n0 = 2.0 * np.rint(-x / 2.0)
        rejected = (np.hypot(x + two_n0, y) < REJECT_THRESHOLD) | (y == 0.0)
        codes = np.where(y > 0, CELL_INSIDE_PLUS, CELL_INSIDE_MINUS).astype(np.uint8)
        codes[rejected] = CELL_OUTSIDE
        out[b : b + _FAN_BLOCK] = codes
        p = np.flatnonzero(~rejected)
        x, y, two_n0 = x[p], y[p], two_n0[p]
        p += b
        m = np.hypot(x + (two_n0 + 2.0 * ks), y)
        below = m < g
        lo = -np.logical_and.accumulate(below[_FAN_REACH - 1 :: -1]).sum(0)
        hi = np.logical_and.accumulate(below[_FAN_REACH - 1 :]).sum(0)
        lowest = np.where((lo <= ks) & (ks <= hi), m, np.inf).min(0)
        rejected = lowest < REJECT_THRESHOLD
        out[p[rejected]] = CELL_OUTSIDE
        # No fan edge (sp = 0) leaves one fan trace, of modulus >= g: inside.
        sp = np.where(rejected, 0, hi - lo)
        stop = sp >= max(cfg.node_budget - 1, 1)  # explored = sp + 1 at the budget
        out[p[stop]] = CELL_UNDETERMINED
        first_hi[p] = hi
        first_sp[p] = np.where(stop, 0, sp)
        first_spoiled[p] = lowest < bar
    return out, first_hi, first_sp, first_spoiled


def _pinned(al, ar, ad):
    """Which edges of endpoint moduli al, ar and difference modulus ad the
    pinned fan prune ends, pinned on the left or on the right."""
    g = GROW_THRESHOLD
    return ((al > 2.0) & (ar >= g) & (ad <= ar)) | ((ar > 2.0) & (al >= g) & (ad <= al))


def _closes(al, ar, ad):
    """Which of those edges the search closes where they are born.

    Such an edge's mediant is at least (|t_v| - 1)|t_x| > g (see the module
    docstring), so it can neither reject nor spoil its point: only its node
    is counted.  al*ar < 2**1000 keeps the written-out float mediant finite;
    an edge past it is stored, and its mediant formed, as any other."""
    return _pinned(al, ar, ad) & (al * ar < 2.0**1000)


def _fan_edges(x, y, hi, sp, explored, store):
    """The first frontier of the queued points x + i*y, in store[0], and the
    point each edge belongs to.  A frontier has a column per edge and 11
    rows: the left vertex (q, Re t, Im t, |t|), the right vertex, and the
    difference (Re t, Im t, |t|).  Point i's fan edges (n, n + 1), of
    difference 1/0 and trace 2, join its fan vertices n0 + hi - sp to n0 + hi;
    those _closes takes are counted in explored and left out.
    """
    owner = np.repeat(np.arange(x.size), sp + 1)
    last = np.cumsum(sp + 1) - 1
    k = np.arange(owner.size) + (hi - last)[owner]
    vertex = np.array(_fan_trace(x[owner], y[owner], 2.0 * np.rint(-x / 2.0)[owner] + 2.0 * k))
    is_left = np.ones(owner.size, bool)
    is_left[last] = False
    left = np.flatnonzero(is_left)
    closed = _closes(vertex[2, left], vertex[2, left + 1], 2.0)
    explored += np.bincount(owner[left[closed]], minlength=explored.size)
    left = left[~closed]
    frontier = _reused(store, 0, (11, left.size))
    frontier[0] = frontier[4] = 1.0
    frontier[1:4] = vertex.take(left, axis=1)
    frontier[5:8] = vertex.take(left + 1, axis=1)
    frontier[8:11] = ((2.0,), (0.0,), (2.0,))
    return owner[left], frontier


def _next_level(owner, frontier, explored, spoiled, handed, cfg: ClassifierConfig, store):
    """One search round: the next frontier and the point each edge belongs
    to.  Complex products are written out as CPython forms them and moduli
    are np.hypot, as abs(complex) is, so each comparison is classify_point's
    bit for bit.  Updates explored, spoiled and handed in place."""
    g = GROW_THRESHOLD
    bar = 2.0 + INSIDE_MARGIN
    lq, tlr, tli, al, rq, trr, tri, ar, tdr, tdi, ad = frontier
    mediant = np.empty((4, owner.size))
    mq, tmr, tmi, m = mediant
    np.add(lq, rq, out=mq)
    np.subtract(tlr * trr - tli * tri, tdr, out=tmr)
    np.subtract(tlr * tri + tli * trr, tdi, out=tmi)
    np.hypot(tmr, tmi, out=m)
    explored += np.bincount(owner, minlength=explored.size)
    ends = (al >= g) & (ar >= g) & (m >= np.maximum(al, ar))
    ends |= _pinned(al, ar, ad)  # only edges past _closes' bound are left to it
    # Rare, so dealt with only where they occur: a trace below the bar or
    # REJECT_THRESHOLD, an infinite modulus (abs() raises OverflowError where
    # np.hypot gives inf from finite parts), a q_max cap, a handed point.
    if ((m < max(bar, REJECT_THRESHOLD)) | (m == np.inf)).any():
        spoiled[owner[m < bar]] = True
        handed[owner[(m < REJECT_THRESHOLD) | np.isinf(m)]] = True
    capped = mq >= cfg.q_max
    if capped.any():
        capped &= ~ends
        spoiled[owner[capped]] = True
        ends |= capped
    handed |= explored > cfg.node_budget
    if handed.any():
        ends |= handed[owner]
    # The edge (l, r; d) goes on as (l, m; r) and (m, r; l): each child
    # _closes takes is counted, the others go to the buffer the frontier is
    # not in, which becomes store[0].
    ends_l = ends | _closes(al, m, ar)
    ends_r = ends | _closes(m, ar, al)
    closed = np.concatenate((owner[ends_l & ~ends], owner[ends_r & ~ends]))
    explored += np.bincount(closed, minlength=explored.size)
    a, b = np.flatnonzero(~ends_l), np.flatnonzero(~ends_r)
    s = a.size
    children = _reused(store, 1, (11, s + b.size))
    store[0], store[1] = store[1], store[0]
    children[0:4, :s], children[4:8, :s] = frontier[0:4].take(a, axis=1), mediant.take(a, axis=1)
    children[8:11, :s] = frontier[5:8].take(a, axis=1)
    children[0:4, s:], children[4:8, s:] = mediant.take(b, axis=1), frontier[4:8].take(b, axis=1)
    children[8:11, s:] = frontier[1:4].take(b, axis=1)
    return np.concatenate((owner.take(a), owner.take(b))), children


@dataclass(frozen=True)
class RealClassifier:
    """The honest classifier, packaged as a picklable value for workers."""

    cfg: ClassifierConfig = ClassifierConfig()

    def classify(self, z) -> Classification:
        return classify_point(z, self.cfg)

    def classify_grid(self, re, im) -> np.ndarray:
        """Verdict codes (CELL_*) of classify_point at the points re + i*im.

        re and im are float arrays that broadcast to one shape; the uint8
        result has that shape and equals classify_point's verdicts point by
        point, bit for bit.  Raises ValueError where classify_point would.
        """
        re, im = np.broadcast_arrays(np.asarray(re, np.float64), np.asarray(im, np.float64))
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as with floats
            return _classify_blocks(re, im, self.cfg).reshape(re.shape)

    def describe(self) -> dict:
        return {
            "kind": "real",
            "q_max": self.cfg.q_max,
            "grow_threshold": GROW_THRESHOLD,
            "reject_threshold": REJECT_THRESHOLD,
            "inside_margin": INSIDE_MARGIN,
            "node_budget": self.cfg.node_budget,
        }


@dataclass(frozen=True)
class SyntheticSlice:
    """Stand-in slice with a known boundary curve, for pipeline shakedown.

    Inside-plus is {Im z > h(Re z)} with h(x) = peak - depth*(1 - cos(pi x)),
    peak 2 and depth 1/4: same 2-periodicity, evenness, and peak/valley
    layout as the real slice (peaks at even integers, valleys at odd), but
    with exact verdicts and no Undetermined region, so geometry bugs
    separate from search bugs.
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
        re, im = np.broadcast_arrays(np.asarray(re, np.float64), np.asarray(im, np.float64))
        points = map(complex, re.ravel().tolist(), im.ravel().tolist())
        codes = (_VERDICT_CODE[classifier.classify(z).verdict] for z in points)
        return np.fromiter(codes, np.uint8, re.size).reshape(re.shape)

    return classify_grid
