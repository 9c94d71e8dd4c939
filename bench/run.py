"""maskit benchmark: three CLI workloads, a correctness gate and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload slice_render --seed 0 --seconds 35 --trace 0

Workloads (the reasons are in BENCHMARK.json):

  slice_render      render-maskit --res 512x512 --workers 1 on the window
                    (-3, 3, 0, 3); seed s != 0 moves the window by 2k plus
                    a sub-pixel offset (the slice has period 2)
  witness_pipeline  witness -k 5, then witness -k 5 --synthetic, at the
                    1024x64 default with --workers 2; the same for every seed
  cusp_table        cusps --max-q 10 --seed s

Each timed repetition runs every CLI invocation of the workload in a fresh
interpreter (bench/child.py), so it pays import and cold-cache costs as a
user does.  Repetitions run one at a time, for --seconds and at least
MIN_REPS times.  The load is closed: one invocation at a time, with at
most the 2 pool workers of witness_pipeline besides it.

--trace 0 reports BENCHMARK.json's end-to-end metrics: wall_s, the mean
duration of main() over the repetitions, summed over the workload's
invocations; setup_s, the median over all interpreters started of the time
from interpreter start to maskit.cli imported; the median over the
repetitions of peak_rss_mib; and ok_ratio, the share of rendered rasters,
certified witnesses and resolved cusp rows among those attempted
(1 - ok_ratio is the fail ratio).

wall_s and setup_s are given in reference seconds.  On a shared 2-vCPU
host each vCPU was seen to switch between a fast state and one up to 1.6x
slower within a second, and to drift over minutes, slowing a fixed
pure-Python loop as much as maskit; raw times of the same code spread
20-40% between runs there.  Each child therefore times a reference loop
that runs no maskit code next to every main() (child.py), and both times
are scaled by REFERENCE_S over the run's mean reference-loop time: they
read as seconds at the host speed at which that loop takes REFERENCE_S.
The raw times are printed too.

--trace 1 ignores --seconds: it runs each invocation once untraced at
--workers 1 and 2, then once traced at --workers 1, and reports
BENCHMARK.json's per-layer metrics (layers.py says which end-to-end metric
each should move).

Both modes check the outputs: exit codes, one sha256 per output file for
every run (printed, so two commits can show that no byte changed),
--workers 1 against --workers 2, spot-checked pixels against
classify_point, certified witnesses, and the cusp fixtures 0/1 -> 2i and
1/2 -> -1+i*sqrt(3) with every resolved residual within 1e-9.  Cusp rows
the program reports as failed are counted in ok_ratio, never dropped.

Standard output ends with one JSON line: correct, attempted and failed
count CLI invocations (an invocation fails on a non-zero exit or a failed
check), and metrics holds every metric of the chosen mode.  Exit status is
2, with no JSON line, when the checkout has no maskit sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

from layers import LAYER_MAP, ROOT_QS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

WORKLOADS = ("slice_render", "witness_pipeline", "cusp_table")
# (workers for the timed repetitions, workers for the determinism gate)
WORKERS = {"slice_render": (1, 2), "witness_pipeline": (2, 1), "cusp_table": (None, None)}
RENDER_WINDOW = (-3.0, 3.0, 0.0, 3.0)
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
SPOT_CHECKS = 256
REFERENCE_S = 0.002  # the reference loop's time on the host's fast state
CUSP_FIXTURES = {(0, 1): 2j, (1, 2): complex(-1.0, 3.0**0.5)}
CUSP_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    render_res: tuple[int, int] = (512, 512)
    witness_k: int = 5
    witness_res: str | None = None  # None keeps the CLI default, 1024x64
    cusp_max_q: int = 10
    trace_fill_q: int = 40


FULL = Sizes()


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    # check(workdir) -> (items ok, items attempted, problems)
    check: Callable[[Path], tuple[int, int, list[str]]]


def render_window(seed: int, cols: int) -> tuple[float, float, float, float]:
    if seed == 0:
        return RENDER_WINDOW
    rng = random.Random(seed)
    re_min, re_max, im_min, im_max = RENDER_WINDOW
    shift = 2.0 * rng.randint(-3, 3) + rng.random() * (re_max - re_min) / cols
    return (re_min + shift, re_max + shift, im_min, im_max)


def check_render(window, cols: int, rows: int, seed: int):
    from maskit import CELL_INSIDE_MINUS, CELL_INSIDE_PLUS, CELL_OUTSIDE, CELL_UNDETERMINED
    from maskit import Verdict, Window, classify_point
    from maskit.raster import PALETTE

    cell = {
        Verdict.INSIDE_PLUS: CELL_INSIDE_PLUS,
        Verdict.INSIDE_MINUS: CELL_INSIDE_MINUS,
        Verdict.OUTSIDE_CERTIFIED: CELL_OUTSIDE,
        Verdict.UNDETERMINED: CELL_UNDETERMINED,
    }
    win = Window.from_bounds(*window, cols, rows)
    rng = random.Random(seed)
    spots = [(rng.randrange(rows), rng.randrange(cols)) for _ in range(SPOT_CHECKS)]
    want = {(i, j): bytes(PALETTE[cell[classify_point(win.pixel_center(i, j)).verdict]]) for i, j in spots}
    header = f"P6\n{cols} {rows}\n255\n".encode("ascii")

    def check(workdir: Path):
        data = (workdir / "render.ppm").read_bytes()
        if not data.startswith(header) or len(data) != len(header) + 3 * cols * rows:
            return 0, 1, ["render.ppm: wrong header or size"]
        px = data[len(header) :]
        bad = [(i, j) for (i, j), rgb in want.items() if px[3 * (i * cols + j) : 3 * (i * cols + j) + 3] != rgb]
        if bad:
            return 0, 1, [f"render.ppm: {len(bad)} of {len(want)} spot-checked pixels disagree with classify_point, first {bad[0]}"]
        return 1, 1, []

    return check


def check_witness(prefix: str, k: int):
    def check(workdir: Path):
        doc = json.loads((workdir / f"{prefix}.json").read_text(encoding="utf-8"))
        comps = doc["components"]
        if doc["all_certified"] and comps["counting_ok"] and comps["found"] >= k:
            return 1, 1, []
        return 0, 1, [f"{prefix}.json: witness not certified ({comps['found']} components, wanted {k})"]

    return check


def check_cusps(max_q: int):
    from maskit import slopes_up_to

    expected = sorted(((s.p, s.q) for s in slopes_up_to(max_q, 0.0, 1.0)), key=lambda pq: (pq[1], pq[0]))

    def check(workdir: Path):
        lines = (workdir / "cusps.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",", 4) for line in lines[1:]]
        if lines[:1] != ["p,q,re,im,residual"] or [(int(r[0]), int(r[1])) for r in rows] != expected:
            return 0, len(expected), [f"cusps.csv: want a header and the {len(expected)} slopes of q <= {max_q}"]
        problems = []
        resolved = {}
        for p, q, re, im, residual in rows:
            if residual.startswith("failed"):
                continue
            resolved[(int(p), int(q))] = complex(float(re), float(im))
            if not float(residual) <= CUSP_TOL:
                problems.append(f"cusps.csv: {p}/{q} residual {residual} above {CUSP_TOL}")
        for (p, q), z in CUSP_FIXTURES.items():
            got = resolved.get((p, q))
            if got is None or abs(got - z) > CUSP_TOL:
                problems.append(f"cusps.csv: {p}/{q} gave {got}, want {z} within {CUSP_TOL}")
        return len(resolved), len(rows), problems

    return check


def invocations(workload: str, seed: int, workers: int | None, sizes: Sizes) -> list[Invocation]:
    if workload == "slice_render":
        cols, rows = sizes.render_res
        window = render_window(seed, cols)
        bounds = [repr(x) for x in window]
        assert not any("e" in b for b in bounds), bounds  # argparse would read "-1e-05" as a flag
        argv = ("render-maskit", "--window", *bounds, "--res", f"{cols}x{rows}",
                "--workers", str(workers), "--out", "render.ppm", "--no-timestamp")
        return [Invocation("render", argv, ("render.ppm",), check_render(window, cols, rows, seed))]
    if workload == "witness_pipeline":
        common = ("witness", "-k", str(sizes.witness_k), "--workers", str(workers), "--no-timestamp")
        if sizes.witness_res:
            common += ("--res", sizes.witness_res)
        return [
            Invocation("honest", (*common, "--out", "honest"), ("honest.json", "honest.ppm"),
                       check_witness("honest", sizes.witness_k)),
            Invocation("synthetic", (*common, "--synthetic", "--out", "synthetic"),
                       ("synthetic.json", "synthetic.ppm"), check_witness("synthetic", sizes.witness_k)),
        ]
    if workload == "cusp_table":
        argv = ("cusps", "--max-q", str(sizes.cusp_max_q), "--seed", str(seed), "--out", "cusps.csv", "--no-timestamp")
        return [Invocation("cusps", argv, ("cusps.csv",), check_cusps(sizes.cusp_max_q))]
    raise ValueError(f"unknown workload {workload!r}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spawn(inv: Invocation, workdir: Path, mode: str, probes=()) -> dict:
    """Run one invocation in a fresh interpreter; its result, or {"error": ...}."""
    result_path = workdir / f"{inv.label}.result.json"
    result_path.unlink(missing_ok=True)
    spec = json.dumps({"argv": list(inv.argv), "mode": mode, "probes": list(probes), "result": str(result_path)})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), spec, str(spawn_ns)],
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,  # its own process group, so pool workers die with it
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
        raise
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {err.decode(errors='replace')[-1500:]}"}
    res = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(res["maskit_file"]).resolve().is_relative_to(SRC.resolve()):
        return {"error": f"imported maskit from {res['maskit_file']}, not from {SRC}"}
    res["digests"] = {name: sha256_file(workdir / name) for name in inv.outputs if (workdir / name).exists()}
    return res


class Tally:
    """Invocations attempted and failed, result items, and output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.items_ok = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, inv: Invocation, res: dict, workdir: Path) -> None:
        self.attempted += 1
        problems = []
        if "error" in res:
            problems.append(f"{inv.label}: {res['error']}")
        elif res["rc"] != 0:
            problems.append(f"{inv.label}: maskit {inv.argv[0]} exited {res['rc']}")
        ok, n, found = inv.check(workdir) if not problems else (0, 1, [])
        problems += found
        for name, digest in res.get("digests", {}).items():
            ref = self.digests.setdefault(name, digest)
            if digest != ref:
                problems.append(f"{name}: sha256 {digest} differs from {ref}")
        if problems:
            self.failed += 1
            self.problems += problems
            ok = 0
        self.items += n
        self.items_ok += ok


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    env = {"cpus": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}
    for dist in ("numpy", "mpmath"):
        env[dist] = metadata.version(dist)
    return env


def run_timed(workload, seed, seconds, sizes, workdir, tally, say) -> dict:
    timed_workers, gate_workers = WORKERS[workload]
    setups = []
    refs = []
    if gate_workers is not None:
        # determinism gate, once per run and outside the timing: the other
        # worker count must give the same bytes
        for inv in invocations(workload, seed, gate_workers, sizes):
            res = spawn(inv, workdir, "plain")
            tally.record(inv, res, workdir)
            if "error" not in res:
                setups.append(res["setup_s"])
                refs += res["ref_s"]
    invs = invocations(workload, seed, timed_workers, sizes)
    walls = {inv.label: [] for inv in invs}
    rss = []
    start = time.perf_counter()
    while len(rss) < MIN_REPS or time.perf_counter() - start < seconds:
        results = [spawn(inv, workdir, "plain") for inv in invs]
        for inv, res in zip(invs, results):
            tally.record(inv, res, workdir)
        if any("error" in res for res in results):
            break
        # a repetition whose outputs fail a check is still timed; the
        # failure shows in correct, failed and ok_ratio
        for inv, res in zip(invs, results):
            walls[inv.label].append(res["wall_s"])
            setups.append(res["setup_s"])
            refs += res["ref_s"]
        rss.append(max(res["rss_mib"] for res in results))
    if not rss:
        raise RuntimeError("no repetition ran: " + "; ".join(tally.problems[:5]))
    scale = REFERENCE_S / statistics.mean(refs)
    say(f"timed: {len(rss)} repetitions in {time.perf_counter() - start:.1f} s; "
        f"raw setup_s median {statistics.median(setups):.4f} of {len(setups)}")
    say(f"reference loop: mean {statistics.mean(refs) * 1e3:.3f} ms over {len(refs)} samples, "
        f"min {min(refs) * 1e3:.3f}, max {max(refs) * 1e3:.3f}; times scaled by {scale:.4f}")
    for label, w in walls.items():
        say(f"raw wall_s {label}: mean {statistics.mean(w):.4f}, min {min(w):.4f}, "
            f"median {statistics.median(w):.4f}, max {max(w):.4f}; "
            "per repetition " + " ".join(f"{x:.4f}" for x in w))
    ok_ratio = tally.items_ok / tally.items
    say(f"fail_ratio {1.0 - ok_ratio:.6f} ({tally.items - tally.items_ok} of {tally.items} items failed)")
    return {
        # means, not medians or minima: the host's slow and fast states
        # mix within one repetition, and the mean of the reference loop
        # over the same run cancels the mix only when the wall times are
        # averaged the same way
        "wall_s": sum(statistics.mean(w) for w in walls.values()) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mib": statistics.median(rss),
        "ok_ratio": ok_ratio,
    }


def run_traced(workload, seed, sizes, workdir, tally, say) -> dict:
    probes = {
        "slice_render": [{"name": "components_on_render"}],
        "cusp_table": [
            {"name": "roots_by_q", "qs": list(ROOT_QS)},
            {"name": "trace_fill", "q_max": sizes.trace_fill_q, "repeats": 31},
        ],
    }.get(workload, [])
    if WORKERS[workload][0] is None:
        plan = [("w1", None, "coarse"), ("traced", None, "traced")]
    else:
        plan = [("w1", 1, "coarse"), ("w2", 2, "coarse"), ("traced", 1, "traced")]
    runs = {}
    for key, workers, mode in plan:
        runs[key] = {}
        for inv in invocations(workload, seed, workers, sizes):
            res = spawn(inv, workdir, mode, probes if mode == "traced" else ())
            tally.record(inv, res, workdir)
            if "error" in res:
                raise RuntimeError(res["error"])
            runs[key][inv.label] = res
    docs = {
        label: json.loads((workdir / f"{label}.json").read_text(encoding="utf-8"))
        for label in runs["traced"]
        if label in ("honest", "synthetic")
    }
    values = layer_metrics(runs["traced"], runs["w1"], runs.get("w2", {}), docs)
    for name, value in values.items():
        moves, where = LAYER_MAP[name]
        say(f"{name} = {value:.6g}" + (f"  -> {moves} on {', '.join(where)}" if where else ""))
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: int, sizes: Sizes = FULL, say=print) -> dict:
    """One benchmark run; returns the result object of the last output line."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = bench["per_layer" if trace else "end_to_end"]
    say("env " + json.dumps(environment()))
    say(f"workload {workload}, seed {seed}, trace {trace}")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work"))
    tally = Tally()
    try:
        if trace:
            values = run_traced(workload, seed, sizes, workdir, tally, say)
        else:
            values = run_timed(workload, seed, seconds, sizes, workdir, tally, say)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, digest in sorted(tally.digests.items()):
        say(f"sha256 {name} {digest}")
    for problem in tally.problems:
        say(f"CHECK FAILED: {problem}")
    names = [m["name"] for m in section]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "maskit" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no maskit sources at {SRC} or no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through spawn's cleanup
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
