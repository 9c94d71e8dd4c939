"""Acceptance gate: one test per shipping criterion, at the stated tolerances.

Each test is numbered and self-contained so a verbose run reads as a
criterion-by-criterion pass/fail report.  Random sampling is seeded, file
outputs go to tmp_path, and every stated runtime cap is asserted.
"""

import json
import math
import random
import time

import pytest

from maskit import (
    AVerdict,
    AxisRectangle,
    RealClassifier,
    TraceCache,
    Verdict,
    a_membership,
    classify_point,
    membership_with,
    normalized_length,
    poly_roots,
    slope,
    slopes_up_to,
    trace_polynomial,
)
from maskit.cli import main
from oracle import commutator, generators, matrix_trace, tr

SQRT3 = math.sqrt(3.0)

# Pinned outputs of the deterministic rectangle search at default settings
# (first verified run); criterion 7 holds future runs to these coordinates.
REAL_Q = AxisRectangle(-1.45, -0.55, 1.7170508075687412, 1.8105146207017615)
REAL_Z = complex(-1.0, 1.7482054119464145)
REAL_R = AxisRectangle(-2.45, -1.55, 3.4341016151374824, 3.5275654282705027)


def _sample_z(rng, lo=-4.0, hi=4.0) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def _close(a: float, b: float, tol: float) -> bool:
    """Mixed absolute/relative comparison: traces here span ~1e15 in size."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_boundary_cusp_fixtures(tmp_path):
    start = time.monotonic()
    out = tmp_path / "cusps.csv"
    assert main(["cusps", "--max-q", "2", "--out", str(out)]) == 0

    rows = {}
    for line in out.read_text().splitlines()[1:]:
        p, q, re, im, resid = line.split(",")
        rows[(int(p), int(q))] = complex(float(re), float(im))

    z01 = rows[(0, 1)]
    z12 = rows[(1, 2)]
    assert abs(z01 - 2j) < 1e-9
    assert abs(z12 - complex(-1.0, SQRT3)) < 1e-9
    for s, z in ((slope(0, 1), z01), (slope(1, 2), z12)):
        t = TraceCache(z).trace(s)
        assert abs(t * t - 4.0) < 1e-9

    expected_roots = {0.0 + 0.0j, -2.0 + 0.0j, complex(-1.0, SQRT3), complex(-1.0, -SQRT3)}
    poly = trace_polynomial(slope(1, 2))
    got = poly_roots(poly, 2) + poly_roots(poly, -2)
    assert len(got) == 4
    for want in expected_roots:
        matches = [r for r in got if abs(r - want) < 1e-9]
        assert len(matches) == 1, f"root {want} missing from {got}"
        got.remove(matches[0])

    assert time.monotonic() - start < 1.0


def test_criterion_2_parabolic_commutator():
    start = time.monotonic()
    rng = random.Random(20260814)
    for _ in range(1000):
        t = tr(commutator(*generators(_sample_z(rng))))
        assert abs(t - (-2.0)) < 1e-10
    assert time.monotonic() - start < 1.0


def test_criterion_3_recursion_matches_matrices():
    start = time.monotonic()
    rng = random.Random(314159)
    slopes = slopes_up_to(20, -1.0, 1.0)
    for _ in range(100):
        z = _sample_z(rng)
        cache = TraceCache(z)
        for s in slopes:
            t_rec = cache.trace(s)
            t_mat = matrix_trace(z, s)
            assert _close(abs(t_rec), abs(t_mat), 1e-8), (z, s)
    assert time.monotonic() - start < 30.0


def test_criterion_4_symmetry_suite():
    # Trace-level identities at 1e-9 over q <= 20 and 100 random z.
    rng = random.Random(271828)
    slopes = slopes_up_to(20, -1.0, 1.0)
    for _ in range(100):
        z = _sample_z(rng)
        caches = {
            "z": TraceCache(z),
            "z+2": TraceCache(z + 2.0),
            "-z": TraceCache(-z),
            "conj": TraceCache(z.conjugate()),
        }
        for s in slopes:
            base = abs(caches["z"].trace(s))
            shifted = slope(s.p + s.q, s.q)
            neg = slope(-s.p, s.q)
            assert _close(
                abs(caches["z+2"].trace(s)),
                abs(caches["z"].trace(shifted)),
                1e-9,
            )
            assert _close(abs(caches["-z"].trace(neg)), base, 1e-9)
            assert _close(abs(caches["conj"].trace(s)), base, 1e-9)

    # Verdict equality under z -> z+2 and z -> -conj(z) on a 64^2 grid,
    # compared wherever both verdicts are determined.
    determined = 0
    total = 0
    for i in range(64):
        y = 0.075 + 0.05 * i
        for j in range(64):
            x = -2.96875 + 0.0625 * j
            z = complex(x, y)
            v = classify_point(z).verdict
            for image in (z + 2.0, -z.conjugate()):
                total += 1
                v2 = classify_point(image).verdict
                if Verdict.UNDETERMINED in (v, v2):
                    continue
                determined += 1
                assert v is v2, (z, image, v, v2)
    assert determined >= total // 2  # the grid must actually exercise the claim


def test_criterion_5_membership_fixtures_and_periodicity():
    rec = a_membership(4j, 8j)
    assert rec.verdict is AVerdict.MEMBER
    assert rec.n == 0

    rng = random.Random(602214)
    clf = RealClassifier()
    for zbase in (4j, complex(-1.0, 1.75)):
        assert classify_point(zbase).verdict is Verdict.INSIDE_PLUS
        for _ in range(10):
            w = complex(rng.uniform(-6.0, 6.0), 0.0)
            got = membership_with(clf, zbase, w)
            assert got.verdict is AVerdict.NON_MEMBER_CERTIFIED
            assert got.reason == "Im w = 0"

    checked = 0
    attempts = 0
    while checked < 128:
        attempts += 1
        assert attempts < 3000, "could not collect 128 determined samples"
        w = complex(rng.uniform(-4.0, 4.0), rng.uniform(0.05, 6.0))
        a = membership_with(clf, 4j, w).verdict
        b = membership_with(clf, 4j, w + 2.0).verdict
        if AVerdict.UNDETERMINED in (a, b):
            continue
        checked += 1
        assert a is b, (w, a, b)


def test_criterion_6_witness_pipeline_synthetic(tmp_path):
    start = time.monotonic()
    prefix = tmp_path / "wsynth"
    code = main(
        ["witness", "--synthetic", "-k", "5", "--out", str(prefix), "--no-timestamp"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "wsynth.json").read_text())
    assert doc["all_certified"] is True
    assert doc["interior_verdict"]["verdict"] == "Member"
    assert doc["components"]["found"] >= 5
    assert doc["components"]["counting_ok"] is True
    assert doc["components"]["straddlers"] == []
    translates = doc["components"]["per_translate"]
    assert len(translates) == 5
    assert all(t["ok"] for t in translates)
    owners = [tuple(t["components"]) for t in translates]
    assert all(owners[i] != owners[j] for i in range(5) for j in range(i + 1, 5))
    assert time.monotonic() - start < 10.0


def test_criterion_7_witness_pipeline_real(tmp_path):
    start = time.monotonic()
    prefix = tmp_path / "wreal"
    code = main(["witness", "-k", "5", "--out", str(prefix), "--no-timestamp"])
    assert code == 0
    doc = json.loads((tmp_path / "wreal.json").read_text())
    assert doc["all_certified"] is True
    assert doc["components"]["counting_ok"] is True
    assert doc["components"]["found"] >= 5

    # Regression-pinned coordinates from the first verified run.
    q, z, r = doc["q"], doc["z"], doc["r"]
    assert q["re_min"] == REAL_Q.re_min and q["re_max"] == REAL_Q.re_max
    assert q["im_min"] == pytest.approx(REAL_Q.im_min, abs=1e-12)
    assert q["im_max"] == pytest.approx(REAL_Q.im_max, abs=1e-12)
    assert z[0] == REAL_Z.real
    assert z[1] == pytest.approx(REAL_Z.imag, abs=1e-12)
    assert r["re_min"] == pytest.approx(REAL_R.re_min, abs=1e-12)
    assert r["re_max"] == pytest.approx(REAL_R.re_max, abs=1e-12)
    assert r["im_min"] == pytest.approx(REAL_R.im_min, abs=1e-12)
    assert r["im_max"] == pytest.approx(REAL_R.im_max, abs=1e-12)
    assert time.monotonic() - start < 600.0


def test_criterion_8_worker_count_determinism(tmp_path):
    def run(tag: str, workers: str) -> dict[str, bytes]:
        base = tmp_path / tag
        base.mkdir()
        cusps_csv = base / "cusps.csv"
        render_ppm = base / "maskit.ppm"
        wsyn = base / "wsynth"
        wreal = base / "wreal"
        assert main(["cusps", "--max-q", "2", "--out", str(cusps_csv)]) == 0
        assert (
            main(
                [
                    "render-maskit",
                    "--window", "-3", "3", "0", "3",
                    "--res", "64x16",
                    "--workers", workers,
                    "--out", str(render_ppm),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "witness", "--synthetic", "-k", "5",
                    "--workers", workers,
                    "--out", str(wsyn),
                    "--no-timestamp",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "witness", "-k", "5",
                    "--workers", workers,
                    "--out", str(wreal),
                    "--no-timestamp",
                ]
            )
            == 0
        )
        return {
            p.name: p.read_bytes()
            for p in sorted(base.iterdir())
            if p.is_file()
        }

    one = run("w1", "1")
    eight = run("w8", "8")
    assert one.keys() == eight.keys()
    for name in one:
        assert one[name] == eight[name], f"{name} differs between worker counts"


def test_criterion_9_normalized_length_fixtures():
    assert abs(normalized_length(2j) - 1.0) < 1e-12
    assert abs(normalized_length(2.0 + 2j) - math.sqrt(2.0)) < 1e-12
    assert abs(normalized_length(8j) - 2.0) < 1e-12
