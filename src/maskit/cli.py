"""Command-line surface: renders, cusp tables, witness pipeline.

Subcommands:
  render-maskit   rasterize the slice over a window -> PPM + stats
  cusps           boundary-cusp table for slopes p/q in (0,1] plus 0/1 -> CSV
  a-slice         rasterize the extension locus for a base point -> PPM + JSON
  witness         find/verify/count the bounded-component witness -> JSON + PPM

Configuration may come from a flat key=value file (--config); explicit flags
override file values.  Identical flags + config produce byte-identical
outputs; timestamps can be suppressed with --no-timestamp for golden-file
comparison.  Exit codes: 0 success, 1 usage, 2 I/O, 3 precondition
violation, 4 witness failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .classify import ClassifierConfig, RealClassifier, SyntheticSlice
from .cusps import BoundaryCuspError, RootSolveError, cusp_point
from .farey import slopes_up_to
from .moebius import normalized_length
from .raster import Window, components, rasterize_a_slice, rasterize_maskit, save_ppm
from .witness import (
    SearchParams,
    WitnessSearchError,
    components_near_infinity,
    find_rectangle,
    verify_witness,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3
EXIT_WITNESS = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2; we use 1
        raise _UsageError(message)


def _read_config_file(path) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"config line not key=value: {raw.strip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _pick(args_value, file_cfg: dict, key: str, default, cast):
    if args_value is not None:
        return args_value
    if key in file_cfg:
        raw = file_cfg[key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"config {key}={raw!r}: {exc}") from None
    return default


def _parse_res(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        cols, rows = int(w), int(h)
    except ValueError:
        raise _UsageError(f"--res wants WxH, got {text!r}") from None
    if cols < 1 or rows < 1:
        raise _UsageError("--res must be at least 1x1")
    return cols, rows


def _parse_window(vals) -> tuple[float, float, float, float]:
    if isinstance(vals, str):
        vals = vals.replace(",", " ").split()
    if len(vals) != 4:
        raise _UsageError("--window wants four numbers: re_min re_max im_min im_max")
    re_min, re_max, im_min, im_max = (float(v) for v in vals)
    if not (re_min < re_max and im_min < im_max):
        raise _UsageError("--window bounds must be increasing")
    return re_min, re_max, im_min, im_max


def _build_cfg(args, file_cfg) -> ClassifierConfig:
    q_max = _pick(getattr(args, "qmax", None), file_cfg, "qmax", 512, int)
    budget = _pick(getattr(args, "budget", None), file_cfg, "budget", 20000, int)
    try:
        return ClassifierConfig(q_max=q_max, node_budget=budget)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _maybe_timestamp(meta: dict, args) -> dict:
    if not args.no_timestamp:
        meta["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return meta


def _write_text(path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_render_maskit(args, file_cfg) -> int:
    cfg = _build_cfg(args, file_cfg)
    window = _parse_window(
        _pick(args.window, file_cfg, "window", (-3.0, 3.0, 0.0, 3.0), _parse_window)
    )
    cols, rows = _parse_res(_pick(args.res, file_cfg, "res", "512x512", str))
    out_path = _pick(args.out, file_cfg, "out", "maskit.ppm", str)
    workers = _pick(args.workers, file_cfg, "workers", 1, int)
    win = Window.from_bounds(*window, cols, rows)
    grid = rasterize_maskit(win, cfg, workers=workers)
    try:
        save_ppm(grid, out_path)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    counts = grid.counts()
    stats = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"wrote {out_path} ({cols}x{rows}): {stats}")
    return EXIT_OK


def cmd_cusps(args, file_cfg) -> int:
    cfg = _build_cfg(args, file_cfg)
    max_q = _pick(args.max_q, file_cfg, "max_q", 8, int)
    if not (1 <= max_q <= 64):
        raise _UsageError("cusp table slope cap must be in 1..64")
    seed = _pick(args.seed, file_cfg, "seed", 0, int)
    out_path = _pick(args.out, file_cfg, "out", "-", str)
    rows = ["p,q,re,im,residual"]
    table = slopes_up_to(max_q, 0.0, 1.0)  # 0/1 plus every p/q in (0, 1]
    table.sort(key=lambda s: (s.q, s.p))
    for s in table:
        try:
            res = cusp_point(s, cfg, seed=seed)
            rows.append(
                f"{s.p},{s.q},{res.z.real!r},{res.z.imag!r},{res.residual:.3e}"
            )
        except (RootSolveError, BoundaryCuspError) as exc:
            rows.append(f"{s.p},{s.q},nan,nan,failed: {exc}")
    text = "\n".join(rows) + "\n"
    try:
        _write_text(out_path, text)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    if out_path != "-":
        print(f"wrote {out_path} ({len(table)} slopes)")
    return EXIT_OK


def cmd_a_slice(args, file_cfg) -> int:
    cfg = _build_cfg(args, file_cfg)
    z = complex(args.z[0], args.z[1])
    window = _parse_window(
        _pick(args.window, file_cfg, "window", (-4.0, 4.0, 0.0, 10.0), _parse_window)
    )
    cols, rows = _parse_res(_pick(args.res, file_cfg, "res", "512x512", str))
    out_path = _pick(args.out, file_cfg, "out", "a_slice.ppm", str)
    json_path = _pick(args.json_out, file_cfg, "json", "a_slice.json", str)
    workers = _pick(args.workers, file_cfg, "workers", 1, int)
    win = Window.from_bounds(*window, cols, rows)
    try:
        grid = rasterize_a_slice(z, win, cfg, workers=workers)
    except ValueError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    rep = components(grid)
    doc = {
        "base_point": [z.real, z.imag],
        "window": win.describe(),
        "count": rep.count,
        "components": rep.describe(),
        "cell_counts": grid.counts(),
        "cfg": RealClassifier(cfg).describe(),
    }
    _maybe_timestamp(doc, args)
    try:
        save_ppm(grid, out_path)
        _write_text(json_path, json.dumps(doc, indent=2) + "\n")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out_path} and {json_path}: {rep.count} components")
    return EXIT_OK


def cmd_witness(args, file_cfg) -> int:
    cfg = _build_cfg(args, file_cfg)
    k = _pick(args.k, file_cfg, "k", 5, int)
    if k < 1:
        raise _UsageError("need k >= 1 translates")
    cols, rows = _parse_res(_pick(args.res, file_cfg, "res", "1024x64", str))
    prefix = _pick(args.out, file_cfg, "out", "witness", str)
    workers = _pick(args.workers, file_cfg, "workers", 1, int)
    synthetic = bool(args.synthetic or file_cfg.get("synthetic") == "1")
    classifier = SyntheticSlice() if synthetic else RealClassifier(cfg)

    try:
        q, z = find_rectangle(cfg, SearchParams(), classifier=classifier)
    except WitnessSearchError as exc:
        print(f"witness search failed: {exc}", file=sys.stderr)
        for row in exc.profile:
            print(
                f"  x={row['x']:+.3f}: outside up to {row['outside_floor']:.6f}, "
                f"inside from {row['inside_floor']:.6f}",
                file=sys.stderr,
            )
        return EXIT_WITNESS

    try:
        report = verify_witness(q, z, cfg, classifier=classifier, raster_rows=rows)
    except ValueError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    counting = components_near_infinity(
        3.0 * z,
        k,
        cfg,
        rectangle=report.R,
        classifier=classifier,
        cols=cols,
        rows=rows,
        workers=workers,
    )
    report = dataclasses.replace(
        report,
        component_count_window=counting.window,
        components_found=counting.components_found,
        per_translate=[t.describe() for t in counting.per_translate],
    )

    doc = report.to_json_dict(cfg_meta=classifier.describe())
    doc["components"]["straddlers"] = list(counting.straddlers)
    doc["components"]["counting_ok"] = counting.ok
    doc["diagnostics"] = {
        "normalized_length_2z": normalized_length(2.0 * z),
        "k": k,
        "synthetic": synthetic,
    }
    _maybe_timestamp(doc, args)

    try:
        _write_text(f"{prefix}.json", json.dumps(doc, indent=2) + "\n")
        save_ppm(counting.raster, f"{prefix}.ppm")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO

    ok = report.all_certified and counting.ok and counting.components_found >= k
    print(
        f"witness {'CERTIFIED' if ok else 'NOT certified'}: "
        f"Q=[{q.re_min:.6f},{q.re_max:.6f}]x[{q.im_min:.6f},{q.im_max:.6f}], "
        f"z={z.real:.6f}{z.imag:+.6f}i, components={counting.components_found} "
        f"(wanted {k}); outputs {prefix}.json, {prefix}.ppm"
    )
    if not ok:
        if report.offending_samples:
            print(
                f"  {len(report.offending_samples)} boundary sample(s) failed certification",
                file=sys.stderr,
            )
        if counting.straddlers:
            print(f"  straddling components: {counting.straddlers}", file=sys.stderr)
        for t in counting.per_translate:
            if not t.ok:
                print(
                    f"  translate {t.index}: components={t.component_labels}, "
                    f"member_point_ok={t.member_point_ok}",
                    file=sys.stderr,
                )
        return EXIT_WITNESS
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="maskit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, res_default, out_help):
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--window", nargs=4, metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
        p.add_argument("--res", help=f"resolution WxH (default {res_default})")
        p.add_argument("--qmax", type=int, help="classifier slope-denominator cap (default 512)")
        p.add_argument("--budget", type=int, help="classifier node budget (default 20000)")
        p.add_argument("--out", help=out_help)
        p.add_argument("--workers", type=int, help="worker processes (default 1)")
        p.add_argument("--seed", type=int, help="root-solver seed (default 0)")
        p.add_argument("--no-timestamp", action="store_true", help="omit timestamps from outputs")

    p = sub.add_parser("render-maskit", help="rasterize the slice to a PPM image")
    common(p, res_default="512x512", out_help="output PPM path (default maskit.ppm)")

    p = sub.add_parser("cusps", help="boundary-cusp table as CSV")
    common(p, res_default="-", out_help="output CSV path or - for stdout (default -)")
    p.add_argument("--max-q", dest="max_q", type=int, help="largest slope denominator (default 8, cap 64)")

    p = sub.add_parser("a-slice", help="rasterize the extension locus of a base point")
    common(p, res_default="512x512", out_help="output PPM path (default a_slice.ppm)")
    p.add_argument("--z", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("--json", dest="json_out", help="component-report JSON path (default a_slice.json)")

    p = sub.add_parser("witness", help="find, verify, and count the bounded-component witness")
    common(p, res_default="1024x64", out_help="output file prefix (default witness)")
    p.add_argument("-k", type=int, help="number of translates to certify (default 5)")
    p.add_argument("--synthetic", action="store_true", help="use the synthetic boundary classifier")

    return parser


_DISPATCH = {
    "render-maskit": cmd_render_maskit,
    "cusps": cmd_cusps,
    "a-slice": cmd_a_slice,
    "witness": cmd_witness,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = _read_config_file(args.config) if args.config else {}
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return _DISPATCH[args.command](args, file_cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
