"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

A layer metric reads 0 on a workload that never enters that layer: the
prediction for a change to that layer on that workload is no change.
"""

from __future__ import annotations

import math

# metric -> (end-to-end metric it should move, workloads on which it does)
LAYER_MAP = {
    "classify.calls": ("wall_s", ("slice_render", "witness_pipeline")),
    "classify.self_s": ("wall_s", ("slice_render", "witness_pipeline")),
    "classify.us_per_call": ("wall_s", ("slice_render", "witness_pipeline")),
    "classify.ns_per_node": ("wall_s", ("slice_render", "witness_pipeline")),
    "classify.nodes_mean": ("wall_s", ("slice_render", "witness_pipeline")),
    "classify.nodes_p99": ("wall_s", ("slice_render", "witness_pipeline")),
    "classify.undetermined_ratio": ("wall_s", ("slice_render", "witness_pipeline")),
    "classify.membership_calls": ("wall_s", ("witness_pipeline",)),
    "classify.membership_self_s": ("wall_s", ("witness_pipeline",)),
    "raster.px": ("wall_s", ("slice_render", "witness_pipeline")),
    "raster.self_s": ("wall_s", ("slice_render", "witness_pipeline")),
    "raster.px_per_s_w1": ("wall_s", ("slice_render",)),
    "raster.px_per_s_w2": ("wall_s", ("witness_pipeline",)),
    "raster.pool_start_s": ("wall_s", ("witness_pipeline",)),
    # render-maskit never calls components(); slice_render times it on the
    # rendered grid outside main(), so only witness_pipeline's wall_s moves.
    "raster.components_s_per_mpx": ("wall_s", ("witness_pipeline",)),
    # the cost of tracing itself: traced minus untraced wall_s at --workers 1
    "trace.overhead_s": ("none", ()),
    "farey.poly_s": ("wall_s", ("cusp_table",)),
    # no CLI path fills a TraceCache today, so nothing should move; cusp
    # solves that run through TraceCache would make this move cusp_table
    "farey.trace_ns_per_node": ("none", ()),
}
for _stage in ("find", "verify", "count"):
    for _prefix in ("witness.", "witness.synthetic."):
        LAYER_MAP[f"{_prefix}{_stage}_s"] = ("wall_s", ("witness_pipeline",))
        LAYER_MAP[f"{_prefix}{_stage}_calls"] = ("wall_s", ("witness_pipeline",))
for _prefix in ("witness.", "witness.synthetic."):
    LAYER_MAP[f"{_prefix}components_found"] = ("ok_ratio", ("witness_pipeline",))
    LAYER_MAP[f"{_prefix}certified"] = ("ok_ratio", ("witness_pipeline",))
for _name in ("point_s", "roots_s", "roots_calls", "probe_s", "probe_calls"):
    LAYER_MAP[f"cusps.{_name}"] = ("wall_s", ("cusp_table",))
for _name in ("root_fail", "probe_fail", "flagged"):
    LAYER_MAP[f"cusps.{_name}"] = ("ok_ratio", ("cusp_table",))
ROOT_QS = (4, 8, 12, 16)
for _q in ROOT_QS:
    LAYER_MAP[f"cusps.roots_s_q{_q}"] = ("wall_s", ("cusp_table",))

WITNESS_STAGES = ("witness.find", "witness.verify", "witness.count")


class Spans:
    """Columns written by child.Tracer, with durations and self times in seconds."""

    def __init__(self, cols: dict):
        names = cols["names"]
        self.name = [names[i] for i in cols["name"]]
        self.parent = cols["parent"]
        self.val = cols["val"]
        self.flag = cols["flag"]
        self.err = [names[e] if e >= 0 else None for e in cols["err"]]
        self.dur = [(b - a) / 1e9 for a, b in zip(cols["t0"], cols["t1"])]
        children = [0.0] * len(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += self.dur[i]
        self.self_s = [d - c for d, c in zip(self.dur, children)]
        # a span opens after its parent, so one forward pass finds each
        # span's enclosing witness stage
        self._by_name: dict[str, list[int]] = {}
        self.stage = []
        for i, name in enumerate(self.name):
            self._by_name.setdefault(name, []).append(i)
            p = self.parent[i]
            self.stage.append(name if name in WITNESS_STAGES else (self.stage[p] if p >= 0 else None))

    def ids(self, *names) -> list[int]:
        return [i for n in names for i in self._by_name.get(n, ())]


def _p99(values: list[int]) -> int:
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, w1: dict, w2: dict, docs: dict) -> dict:
    """Every LAYER_MAP metric from one workload's runs.

    traced, w1 and w2 map an invocation label ("render", "honest",
    "synthetic", "cusps") to its child result: traced at --workers 1, and
    coarse (raster spans only) at --workers 1 and 2; w2 is empty where the
    workload has no worker count.  docs maps witness labels to their JSON
    reports.
    """
    m: dict = {name: 0 for name in LAYER_MAP}
    spans = {label: Spans(res["spans"]) for label, res in traced.items()}
    everything = list(spans.values())

    def total(attr, name, of=everything):
        return sum(getattr(s, attr)[i] for s in of for i in s.ids(name))

    def count(name, of=everything):
        return sum(len(s.ids(name)) for s in of)

    calls = count("classify")
    nodes = [s.val[i] for s in everything for i in s.ids("classify")]
    m["classify.calls"] = calls
    m["classify.self_s"] = total("self_s", "classify")
    m["classify.us_per_call"] = _rate(m["classify.self_s"] * 1e6, calls)
    m["classify.ns_per_node"] = _rate(m["classify.self_s"] * 1e9, sum(nodes))
    m["classify.nodes_mean"] = _rate(sum(nodes), calls)
    m["classify.nodes_p99"] = _p99(nodes) if nodes else 0
    m["classify.undetermined_ratio"] = _rate(total("flag", "classify"), calls)
    m["classify.membership_calls"] = count("membership")
    m["classify.membership_self_s"] = total("self_s", "membership")

    rasters = ("raster.maskit", "raster.a_slice")
    m["raster.px"] = sum(total("val", r) for r in rasters)
    m["raster.self_s"] = sum(total("self_s", r) for r in rasters)
    for key, runs in (("w1", w1), ("w2", w2)):
        coarse = [Spans(res["spans"]) for res in runs.values()]
        px = sum(total("val", r, coarse) for r in rasters)
        m[f"raster.px_per_s_{key}"] = _rate(px, sum(total("dur", r, coarse) for r in rasters))
        if key == "w2":
            m["raster.pool_start_s"] = total("dur", "raster.pool_start", coarse)
    m["raster.components_s_per_mpx"] = _rate(
        total("dur", "raster.components") * 1e6, total("val", "raster.components")
    )
    m["trace.overhead_s"] = sum(r["wall_s"] for r in traced.values()) - sum(
        r["wall_s"] for r in w1.values()
    )

    for label, prefix in (("honest", "witness."), ("synthetic", "witness.synthetic.")):
        if label not in spans:
            continue
        s = spans[label]
        for stage in WITNESS_STAGES:
            short = stage.split(".")[1]
            m[f"{prefix}{short}_s"] = total("dur", stage, [s])
            m[f"{prefix}{short}_calls"] = sum(
                1
                for i in s.ids("classify", "classify.synthetic")
                if s.stage[i] == stage
            )
        doc = docs[label]
        m[f"{prefix}components_found"] = doc["components"]["found"]
        m[f"{prefix}certified"] = int(doc["all_certified"] and doc["components"]["counting_ok"])

    points = [(s, i) for s in everything for i in s.ids("cusps.point")]
    m["cusps.point_s"] = sum(s.dur[i] for s, i in points)
    m["cusps.probe_fail"] = sum(1 for s, i in points if s.err[i] == "BoundaryCuspError")
    m["cusps.flagged"] = sum(s.flag[i] for s, i in points)
    m["cusps.roots_s"] = total("dur", "cusps.roots")
    m["cusps.roots_calls"] = count("cusps.roots")
    m["cusps.root_fail"] = sum(
        1 for s in everything for i in s.ids("cusps.roots") if s.err[i] is not None
    )
    probes = [
        (s, i)
        for s in everything
        for i in s.ids("classify")
        if s.parent[i] >= 0 and s.name[s.parent[i]] == "cusps.point"
    ]
    m["cusps.probe_s"] = sum(s.dur[i] for s, i in probes)
    m["cusps.probe_calls"] = len(probes)
    for q in ROOT_QS:
        m[f"cusps.roots_s_q{q}"] = total("dur", f"probe.roots_q{q}")

    m["farey.poly_s"] = total("dur", "farey.poly")
    m["farey.trace_ns_per_node"] = sum(
        r["probes"].get("trace_ns_per_node", 0.0) for r in traced.values()
    )
    return m
