"""One maskit CLI invocation in a fresh interpreter, timed and optionally traced.

    python3 bench/child.py SPEC_JSON SPAWN_NS

SPEC_JSON holds ``argv`` (passed to ``maskit.cli.main``), ``mode``,
``probes`` and ``result`` (the path the result JSON is written to).
SPAWN_NS is the parent's ``time.monotonic_ns()`` taken just before it
started this interpreter; CLOCK_MONOTONIC is shared by all processes, so
``setup_s`` runs from interpreter start to ``maskit.cli`` imported.

Modes:
  plain   no wrappers; the timed repetitions use this.
  coarse  spans around the raster, components and pool-start calls only,
          a handful per run, so timings stay those of an untraced run.
  traced  coarse plus spans around every classifier call, membership
          test, witness stage, cusp solve, root solve and trace
          polynomial.  Spans are rebound on the modules' own names from
          here; nothing under src/ knows about them.

Around main() the child also times a short pure-Python reference loop,
REFERENCE_SAMPLES times before and as many after; bench/run.py uses these
to put its times on a fixed host speed.

Spans are kept in memory as columns and written with the result at the
end.  Each span is closed in ``finally``, so calls that raise (root
solves that do not converge) are still attributed.
"""

import json
import multiprocessing
import resource
import sys
import time
from array import array
from time import perf_counter, perf_counter_ns

COLUMNS = ("name", "t0", "t1", "parent", "val", "flag", "err")
REFERENCE_SAMPLES = 5


class Tracer:
    """Spans with name, start, end, parent and two integer attributes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in COLUMNS}
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, attrs=None):
        """fn wrapped in a span; attrs(args, out) -> (val, flag) on return."""
        nid = self.intern(name)
        c = self.cols
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(c["name"])
            c["name"].append(nid)
            c["parent"].append(stack[-1] if stack else -1)
            c["t1"].append(0)
            c["val"].append(0)
            c["flag"].append(0)
            c["err"].append(-1)
            stack.append(i)
            c["t0"].append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                c["err"][i] = self.intern(type(exc).__name__)
                raise
            finally:
                c["t1"][i] = perf_counter_ns()
                stack.pop()
            if attrs is not None:
                c["val"][i], c["flag"][i] = attrs(args, out)
            return out

        return traced

    def dump(self) -> dict:
        out = {c: col.tolist() for c, col in self.cols.items()}
        out["names"] = self.names
        return out


class TracedClassifier:
    """The injected classifier object, with every classify call in a span."""

    def __init__(self, inner, classify):
        self.inner = inner
        self.classify = classify

    def describe(self):
        return self.inner.describe()


def _verdict_attrs(args, out):
    return out.explored, int(out.verdict.value == "Undetermined")


def _raster_px(args, out):
    return out.cells.size, 0


def _input_px(args, out):
    return args[0].cells.size, 0


def _flagged(args, out):
    return 0, int(out.flagged)


class _PoolModule:
    """Stands in for the multiprocessing module inside maskit.raster."""

    def __init__(self, tracer):
        self.Pool = tracer.wrap("raster.pool_start", multiprocessing.Pool)


def install(tracer: Tracer, mode: str, last: dict) -> None:
    import maskit.cli as cli
    import maskit.cusps as cusps
    import maskit.raster as raster
    import maskit.witness as witness

    def keep_raster(args, out):
        last["raster"] = out
        return _raster_px(args, out)

    cli.rasterize_maskit = tracer.wrap("raster.maskit", cli.rasterize_maskit, keep_raster)
    raster_a = tracer.wrap("raster.a_slice", witness.rasterize_a_slice, _raster_px)
    cli.rasterize_a_slice = witness.rasterize_a_slice = raster_a
    comps = tracer.wrap("raster.components", witness.components, _input_px)
    cli.components = witness.components = comps
    raster.multiprocessing = _PoolModule(tracer)
    if mode == "coarse":
        return

    def traced_classifier(cls, name):
        def make(*args, **kwargs):
            inner = cls(*args, **kwargs)
            return TracedClassifier(inner, tracer.wrap(name, inner.classify, _verdict_attrs))

        return make

    cli.RealClassifier = traced_classifier(cli.RealClassifier, "classify")
    raster.RealClassifier = traced_classifier(raster.RealClassifier, "classify")
    cli.SyntheticSlice = traced_classifier(cli.SyntheticSlice, "classify.synthetic")
    member = tracer.wrap("membership", raster.membership_with)
    raster.membership_with = witness.membership_with = member
    cli.find_rectangle = tracer.wrap("witness.find", cli.find_rectangle)
    cli.verify_witness = tracer.wrap("witness.verify", cli.verify_witness)
    cli.components_near_infinity = tracer.wrap("witness.count", cli.components_near_infinity)
    cli.cusp_point = tracer.wrap("cusps.point", cli.cusp_point, _flagged)
    cusps.classify_point = tracer.wrap("classify", cusps.classify_point, _verdict_attrs)
    cusps.poly_roots = tracer.wrap("cusps.roots", cusps.poly_roots)
    cusps.trace_polynomial = tracer.wrap("farey.poly", cusps.trace_polynomial)


def probe_roots_by_q(tracer, qs, poly_roots, trace_polynomial) -> None:
    """Both root solves of slope 1/q, one span per q; a raise is recorded, not fatal."""
    from maskit.cusps import RootSolveError
    from maskit.farey import slope

    for q in qs:
        poly = trace_polynomial(slope(1, q))

        def solve(poly=poly):
            return poly_roots(poly, 2) + poly_roots(poly, -2)

        try:
            tracer.wrap(f"probe.roots_q{q}", solve)()
        except RootSolveError:
            pass


def probe_trace_fill(q_max: int, repeats: int) -> float:
    """Median ns per TraceCache node over fills of every slope p/q in [0, 1], q <= q_max."""
    from maskit.farey import TraceCache, slopes_up_to

    slopes = slopes_up_to(q_max, 0.0, 1.0)
    per_node = []
    for _ in range(repeats):
        cache = TraceCache(3j)
        seeded = len(cache.table)
        t0 = perf_counter_ns()
        for s in slopes:
            cache.trace(s)
        per_node.append((perf_counter_ns() - t0) / (len(cache.table) - seeded))
    per_node.sort()
    return per_node[len(per_node) // 2]


def reference_loop() -> float:
    """Seconds for a fixed complex-arithmetic loop (about 2-3 ms) that runs no maskit code."""
    t0 = perf_counter()
    z = 0j
    c = complex(-0.5, 0.3)
    for _ in range(20000):
        z = z * z + c
        if abs(z) > 2.0:
            z = 0j
    return perf_counter() - t0


def main() -> None:
    spec = json.loads(sys.argv[1])
    spawn_ns = int(sys.argv[2])
    import maskit.cli

    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    import maskit.cusps
    import maskit.witness

    mode = spec["mode"]
    tracer = Tracer()
    last: dict = {}
    poly_roots, trace_polynomial = maskit.cusps.poly_roots, maskit.cusps.trace_polynomial
    if mode != "plain":
        install(tracer, mode, last)
    ref_s = [reference_loop() for _ in range(REFERENCE_SAMPLES)]
    t0 = perf_counter()
    rc = maskit.cli.main(spec["argv"])
    wall_s = perf_counter() - t0
    ref_s += [reference_loop() for _ in range(REFERENCE_SAMPLES)]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = {}
    for probe in spec["probes"]:
        if probe["name"] == "components_on_render":
            # render-maskit never labels components; time them on its grid
            maskit.witness.components(last["raster"])
        elif probe["name"] == "roots_by_q":
            probe_roots_by_q(tracer, probe["qs"], poly_roots, trace_polynomial)
        elif probe["name"] == "trace_fill":
            probes["trace_ns_per_node"] = probe_trace_fill(probe["q_max"], probe["repeats"])
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "ref_s": ref_s,
        "rss_mib": rss_mib,
        "maskit_file": maskit.cli.__file__,
        "spans": tracer.dump() if mode != "plain" else None,
        "probes": probes,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
