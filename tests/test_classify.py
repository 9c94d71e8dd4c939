"""Classifier verdicts, their soundness certificates, and the membership test."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskit.classify import (
    AVerdict,
    ClassifierConfig,
    RealClassifier,
    SyntheticSlice,
    Verdict,
    a_membership,
    classify_point,
    membership_with,
)
from maskit.farey import slope_word
from maskit.moebius import make_sigma_z, trace, word_matrix

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
        t = trace(word_matrix(make_sigma_z(z), slope_word(c.witness)))
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
    assert got.sub_verdicts is not None


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
