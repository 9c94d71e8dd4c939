"""Graded discreteness classification on the z-slice and the (z, w) locus.

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
bulk, then a fixed set of lanes runs the same depth-first search, one step
per lane per round, each lane taking a new point as its last one finishes.
The search runs on float arrays with CPython's own complex arithmetic
written out, so each verdict is the scalar one bit for bit.
SyntheticSlice.classify_grid does the same for the stand-in slice.

a_membership layers the two-parameter test on top: w belongs to the locus
of the extended representation at base z exactly when some integer n puts
z - snw in the upper component and z - s(n+1)w in the lower one
(s = sign Im w); the membership verdict is assembled from the two
sub-classifications, conservatively when either is Undetermined.
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


class AVerdict(Enum):
    MEMBER = "Member"
    NON_MEMBER_CERTIFIED = "NonMemberCertified"
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

# classify_grid's lock-step search.  The integer fan is settled _GRID_BLOCK
# input points at a time, and the points it leaves searching are queued.
# The search runs _GRID_BLOCK lanes, each holding one point's stack of up to
# _GRID_DEPTH entries; a lane whose point finishes takes the next queued
# point.  A point whose stack would grow past _GRID_DEPTH goes to
# classify_point, and so do the last _GRID_STRAGGLERS live points once the
# queue is empty.
_GRID_BLOCK = 1024
_GRID_DEPTH = 8
_GRID_STRAGGLERS = 8
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


@dataclass(frozen=True)
class AMembership:
    verdict: AVerdict
    n: int | None
    sub_verdicts: tuple[Classification, Classification] | None
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


def _windows(rows: np.ndarray, count: int) -> np.ndarray:
    """A view of the C-contiguous float array rows, shape (n, 4), whose
    record i is rows i to i + count - 1 as one opaque record.  The records
    overlap; one fancy index reads or writes count consecutive rows."""
    n = max(len(rows) - count + 1, 0)
    return np.ndarray((n,), (np.void, 32 * count), rows, strides=(32,))


def _classify_lanes(re: np.ndarray, im: np.ndarray, cfg: ClassifierConfig) -> np.ndarray:
    """classify_point's verdict codes for the points re.flat + i*im.flat, in lock step.

    The integer fan is settled _GRID_BLOCK points at a time.  Each point it
    leaves searching joins a queue and keeps three small numbers: hi, the
    offset of the fan's right end from n0 = round(-Re z / 2); sp, its first
    stack size; and whether a fan trace fell below the bar.  The search then
    runs _GRID_BLOCK lanes.  In every round each lane pops one stack entry
    of its point, in classify_point's order, so the point's explored count
    and budget cut-off are classify_point's.  Lanes whose points have
    finished take the next queued points, whose first stack entries are
    their fan edges, formed again from z as the fan forms them.  Every
    complex product is written out on float arrays as CPython forms it, and
    every modulus is np.hypot, as abs(complex) is: each trace and each
    comparison is bit for bit the scalar one.  classify_point itself
    finishes the points still live once the queue is empty and at most
    _GRID_STRAGGLERS are, the points whose stack would pass _GRID_DEPTH
    entries, and the points where it would raise OverflowError.  Raises
    ValueError where classify_point would, before any point is searched.
    """
    g = GROW_THRESHOLD
    bar = 2.0 + INSIDE_MARGIN
    size = re.size
    out = np.empty(size, np.uint8)
    first_hi = np.zeros(size, np.int8)
    first_sp = np.zeros(size, np.int8)  # 0 unless the point is queued
    first_spoiled = np.zeros(size, bool)
    handoff = []

    # Integer fan, as offsets k from n0: lo and hi step away from 0 while
    # |z + 2.0*n| < g, as in classify_point.  The trace 1j*(z + 2.0*n) has
    # the parts of z + 2.0*n up to order and sign, which hypot ignores, so
    # the same moduli are the fan traces'.  n0 is always in the fan, and
    # most points the fan rejects are rejected there, so the rest of the
    # fan is formed only for the points n0 leaves.  At |k| = _FAN_REACH the
    # modulus is at least g (see _FAN_REACH), above the bar: only
    # |k| < _FAN_REACH can stop lo or hi, reject or spoil.
    ks = np.arange(1 - _FAN_REACH, _FAN_REACH)[:, None]
    for b in range(0, size, _GRID_BLOCK):
        x = re.flat[b : b + _GRID_BLOCK]
        y = im.flat[b : b + _GRID_BLOCK]
        ok = (np.abs(x) <= REAL_PART_LIMIT) & np.isfinite(y)
        if not ok.all():
            i = int(np.argmin(ok))
            _check_point(complex(float(x[i]), float(y[i])))
        two_n0 = 2.0 * np.rint(-x / 2.0)
        rejected = (np.hypot(x + two_n0, y) < REJECT_THRESHOLD) | (y == 0.0)
        codes = np.where(y > 0, CELL_INSIDE_PLUS, CELL_INSIDE_MINUS).astype(np.uint8)
        codes[rejected] = CELL_OUTSIDE
        out[b : b + _GRID_BLOCK] = codes
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
        # An empty stack (sp = 0) leaves one fan trace, of modulus >= g: inside.
        sp = np.where(rejected, 0, hi - lo)
        stop = sp >= max(cfg.node_budget - 1, 1)  # explored = sp + 1 at the budget
        out[p[stop]] = CELL_UNDETERMINED
        deep = ~stop & (sp > _GRID_DEPTH)
        handoff.extend(p[deep].tolist())
        first_hi[p] = hi
        first_sp[p] = np.where(stop | deep, 0, sp)
        first_spoiled[p] = lowest < bar

    # Lane j's stack is a chain of vertices, each (q, Re t, Im t, |t|):
    # chain[j, 2i] is V_i, chain[j, 2i+1] is D_i, and entry i is the edge
    # (V_{i+1}, V_i) with difference D_i, three vertices in a row
    # (right, difference, left).  Popping the top entry (l, r; d) and
    # pushing (m, r; l), then (l, m; r), writes (l, m, r, l) from d's place,
    # so a chain of span vertices holds _GRID_DEPTH entries and one push.
    queue = np.flatnonzero(first_sp)
    width = min(_GRID_BLOCK, queue.size)
    span = 2 * _GRID_DEPTH + 3
    fan_i = np.arange(min(2 * _FAN_REACH, _GRID_DEPTH) + 1)  # V_0 to V_sp at most
    fan_span = 2 * fan_i.size - 1
    chain = np.empty((width, span, 4))
    vertices = chain.reshape(-1, 4)
    entries = _windows(vertices, 3)
    pushes = _windows(vertices, 4)
    # One column per busy lane: its point, lane number, stack size, the row
    # of its top entry in vertices, explored count, and spoiled flag (a
    # trace below the bar, or an edge capped at q_max).
    busy = np.zeros((6, 0), np.intp)
    free = np.arange(width)
    # Lanes are refilled once an eighth of them are free, as a refill costs
    # about as much as a round, and at most a quarter at once, so that a
    # refill's temporaries stay below a round's.  A new point's chain: V_i
    # is the fan vertex n0 + hi - i and every D_i is 1/0, of trace 2, so
    # entry i is the edge (n, n+1) with n = n0 + hi - 1 - i, and the
    # leftmost edge is on top.  Vertices past V_sp are dead.
    most = -(-width // 4)
    fan = np.empty((most, fan_span, 4))
    fan[:, 0::2, 0] = 1.0
    fan[:, 1::2] = (0.0, 2.0, 0.0, 2.0)
    head = 0
    while head < queue.size or busy.shape[1] > _GRID_STRAGGLERS:
        if free.size * 8 >= width and head < queue.size:
            new = queue[head : head + min(free.size, most)]
            head += new.size
            lanes, free = free[: new.size], free[new.size :]
            new_sp = first_sp[new].astype(np.intp)
            x = re.flat[new][:, None]
            two_n = 2.0 * np.rint(-x / 2.0) + 2.0 * (first_hi[new][:, None] - fan_i)
            v = fan[: new.size, 0::2]
            v[..., 1], v[..., 2], v[..., 3] = _fan_trace(x, im.flat[new][:, None], two_n)
            chain[lanes, :fan_span] = fan[: new.size]
            top = lanes * span + 2 * new_sp - 2
            entered = (new, lanes, new_sp, top, new_sp + 1, first_spoiled[new])
            busy = np.concatenate((busy, entered), axis=1)
        point, lane, sp, top, explored, spoiled = busy

        edge = entries[top].view(np.float64).reshape(-1, 12)
        rq, trr, tri, ar, _, tdr, tdi, ad, lq, tlr, tli, al = edge.T
        # The pushes (l, d, r, l), with the mediant m formed in d's place:
        # both are dead unless sp grows.
        pushed = edge.view((np.void, 32)).take((2, 1, 0, 2), axis=1).view(np.float64)
        mq, tmr, tmi, m = pushed[:, 4:8].T
        np.subtract(tlr * trr - tli * tri, tdr, out=tmr)
        np.subtract(tlr * tri + tli * trr, tdi, out=tmi)
        np.hypot(tmr, tmi, out=m)
        np.add(lq, rq, out=mq)
        pushes[top + 1] = pushed.view(pushes.dtype).ravel()
        explored += 1
        rejected = m < REJECT_THRESHOLD
        spoiled |= m < bar
        big_l = al >= g
        big_r = ar >= g
        pruned = big_l & big_r & (m >= np.where(al >= ar, al, ar))
        pruned |= (al > 2.0) & big_r & (ad <= ar)
        pruned |= (ar > 2.0) & big_l & (ad <= al)
        capped = ~pruned & (mq >= cfg.q_max)
        spoiled |= capped
        step = np.where(pruned | capped, -1, 1)
        sp += step
        top += 2 * step

        # abs() raises OverflowError where np.hypot gives inf from finite
        # parts; classify_point redoes such points and raises as it would.
        escaped = np.isinf(m)
        stop = explored >= cfg.node_budget
        done = rejected | (sp == 0) | stop | (sp > _GRID_DEPTH) | escaped
        if not done.any():
            continue
        handoff.extend(point[escaped].tolist())
        rejected &= ~escaped
        out[point[rejected]] = CELL_OUTSIDE
        settled = ~(escaped | rejected)
        out[point[settled & (sp == 0) & (spoiled != 0)]] = CELL_UNDETERMINED
        going = settled & (sp > 0)
        out[point[going & stop]] = CELL_UNDETERMINED
        handoff.extend(point[going & ~stop & (sp > _GRID_DEPTH)].tolist())
        free = np.concatenate((free, lane[done]))
        busy = busy.compress(~done, axis=1)

    for p in handoff + busy[0].tolist():
        verdict = classify_point(complex(float(re.flat[p]), float(im.flat[p])), cfg).verdict
        out[p] = _VERDICT_CODE[verdict]
    return out


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
            return _classify_lanes(re, im, self.cfg).reshape(re.shape)

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
    Raises ValueError for a non-finite z or w.
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
