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
with witness None and an explanatory reason.

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


def classify_point(z, cfg: ClassifierConfig | None = None) -> Classification:
    """Graded verdict for z; pure function of (z, cfg), deterministic.

    Raises ValueError for a non-finite z, which no verdict can describe.
    """
    if cfg is None:
        cfg = ClassifierConfig()
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"cannot classify the non-finite point {z}")
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
    frontier_open = False

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
            frontier_open = True
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
            frontier_open = True
            continue
        stack.append((mp, mq, tm, rp, rq, tr, tl))
        stack.append((lp, lq, tl, mp, mq, tm, tr))

    if frontier_open or not all_above_bar:
        return Classification(Verdict.UNDETERMINED, None, explored)
    side = Verdict.INSIDE_PLUS if z.imag > 0 else Verdict.INSIDE_MINUS
    return Classification(side, None, explored)


@dataclass(frozen=True)
class RealClassifier:
    """The honest classifier, packaged as a picklable value for workers."""

    cfg: ClassifierConfig = ClassifierConfig()

    def classify(self, z) -> Classification:
        return classify_point(z, self.cfg)

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

    def describe(self) -> dict:
        return {"kind": "synthetic", "peak": _SYNTHETIC_PEAK, "depth": _SYNTHETIC_DEPTH}


def check_base_point(classifier, z) -> None:
    """Raise ValueError unless the classifier certifies the base point z InsidePlus."""
    if classifier.classify(z).verdict is not Verdict.INSIDE_PLUS:
        raise ValueError("base point not certified in M+")


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
    if w.imag == 0.0:
        return AMembership(
            AVerdict.NON_MEMBER_CERTIFIED, None, None, reason="Im w = 0"
        )
    s = 1.0 if w.imag > 0 else -1.0
    ratio = z.imag / abs(w.imag)
    n = math.floor(ratio)
    if ratio == n:
        return AMembership(
            AVerdict.NON_MEMBER_CERTIFIED,
            None,
            None,
            reason="Im z is an exact multiple of Im w: a test point lands on the real axis",
        )
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
