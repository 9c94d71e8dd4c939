"""Command-line surface: renders, cusp tables, witness pipeline.

Subcommands:
  render-maskit   rasterize the slice over a window -> PPM
  cusps           boundary-cusp table for slopes p/q in (0,1] plus 0/1 -> CSV
  a-slice         rasterize the extension locus for a base point -> PPM + JSON
  witness         find/verify/count the bounded-component witness -> JSON + PPM,
                  and its boundary samples -> .samples.json

Each subcommand takes only the flags it reads; `maskit CMD --help` lists
them.  --config FILE reads more of them from a file, split as a shell splits
a command line (quotes work, # starts a comment); flags given on the
command line override the file.  Identical flags produce byte-identical
outputs; --no-timestamp suppresses the JSON timestamp for golden-file
comparison.  Exit codes: 0 success, 1 usage (non-finite numbers and
--workers < 1 included), 2 I/O, 3 precondition violation, 4 witness failure.

Every JSON document is the text of one json.dumps call, with indent=2 but
for the witness's boundary samples, whose columns are written compact.
Each command writes its files to temporary siblings and renames them only
once all are written, so a write that fails leaves no partial file and no
temporary, and a rename that fails leaves the files already renamed whole;
cusps --out - and a-slice --json - print to stdout (a-slice then reports on
stderr, so stdout is the JSON document alone); a PPM goes to a file only, so
render-maskit and a-slice refuse --out - as a usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import re
import shlex
import sys
import time
from dataclasses import asdict

from .classify import REAL_PART_LIMIT, RealClassifier, SyntheticSlice
from .cusps import BoundaryCuspError, cusp_point
from .farey import SYMBOLIC_Q_CAP, FareySlope, slopes_up_to

# The names the image commands take from raster and witness, which import
# numpy; cusps and --help load neither.  Each is bound on first use, from the
# package, which knows its home: when read as an attribute of this module
# (PEP 562), and before any command but cusps runs.  A name bound already,
# as a test or a tracer rebinds it, keeps that binding.
_LAZY = (
    "Window",
    "components",
    "rasterize_a_slice",
    "rasterize_maskit",
    "to_ppm_bytes",
    "WitnessSearchError",
    "components_near_infinity",
    "find_rectangle",
    "verify_witness",
)


def _bind_lazy() -> None:
    package = sys.modules[__package__]
    for name in _LAZY:
        globals().setdefault(name, getattr(package, name))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_lazy()
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3
EXIT_WITNESS = 4

# The witness's R lies in -3 < Re w < -1, so the counting window over
# R + 2j, j < k, stays within |Re| <= REAL_PART_LIMIT up to this k.
_MAX_TRANSLATES = int(REAL_PART_LIMIT) // 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern (^-\d+$|^-\d*\.\d+$ through Python 3.13.0)
        # reads -1e-3 as a flag.  No flag here starts with a digit, so a
        # leading - then a digit or .digit is a number.  add_subparsers
        # builds the subcommand parsers with this class too.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse default exits with code 2; we use 1
        raise _UsageError(message)


def _res(text: str) -> tuple[int, int]:
    """argparse type of --res: WxH, both at least 1."""
    try:
        cols, rows = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--res wants WxH, got {text!r}") from None
    if cols < 1 or rows < 1:
        raise argparse.ArgumentTypeError("--res must be at least 1x1")
    return cols, rows


def positive_int(text: str) -> int:
    """argparse type of --workers: an integer of at least 1.

    argparse names the function in its message for a bad value
    ("invalid positive_int value: '-3'"), hence the plain name.
    """
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


def _window(args) -> Window:
    try:
        return Window.from_bounds(*args.window, *args.res)
    except ValueError as exc:
        raise _UsageError(f"--window: {exc}") from None


def _maybe_timestamp(meta: dict, args) -> dict:
    if not args.no_timestamp:
        meta["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return meta


def _write_files(files) -> int:
    """Write each (path, str or bytes) of files, whole; return the exit code.

    Each is written to a temporary sibling first, and the temporaries
    replace their paths, in order, only once every one is written.  An
    OSError prints "cannot write PATH: ERROR", naming the path that failed,
    and gives EXIT_IO; any other exception propagates.  Either way the
    temporaries not yet renamed are removed: a path is never left partial,
    and one already replaced keeps its new contents.
    """
    staged = []
    try:
        for i, (path, data) in enumerate(files):
            head, tail = os.path.split(os.fspath(path))
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{i}.tmp")
            text = not isinstance(data, bytes)
            with open(tmp, "x" if text else "xb", encoding="utf-8" if text else None) as fh:
                staged.append(tmp)
                fh.write(data)
        for path, _ in files:
            os.replace(staged[0], path)
            del staged[0]
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        for leftover in staged:
            try:
                os.remove(leftover)
            except OSError:
                pass
    return EXIT_OK


def _no_stdout_image(args) -> None:
    if args.out == "-":
        raise _UsageError("--out - is not supported: the PPM image is written to a file only")


def cmd_render_maskit(args) -> int:
    _no_stdout_image(args)
    classifier = RealClassifier()
    win = _window(args)
    grid = rasterize_maskit(win, classifier)
    if rc := _write_files([(args.out, to_ppm_bytes(grid))]):
        return rc
    counts = grid.counts()
    stats = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"wrote {args.out} ({win.cols}x{win.rows}): {stats}")
    return EXIT_OK


def cmd_cusps(args) -> int:
    if not (1 <= args.max_q <= SYMBOLIC_Q_CAP):
        raise _UsageError(f"cusp table slope cap must be in 1..{SYMBOLIC_Q_CAP}")
    rows = ["p,q,re,im,residual"]
    table = slopes_up_to(args.max_q, 0.0, 1.0)  # 0/1 plus every p/q in (0, 1]
    done = {}  # each p/q > 1/2 reflects the cusp of (q-p)/q, earlier in (q, p) order
    for s in table:
        try:
            res = done[s] = cusp_point(s, done.get(FareySlope(s.q - s.p, s.q)))
            rows.append(
                f"{s.p},{s.q},{res.z.real!r},{res.z.imag!r},{res.residual:.3e}"
            )
        except BoundaryCuspError as exc:
            rows.append(f"{s.p},{s.q},nan,nan,failed: {exc}")
    text = "\n".join(rows) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    if rc := _write_files([(args.out, text)]):
        return rc
    print(f"wrote {args.out} ({len(table)} slopes)")
    return EXIT_OK


def cmd_a_slice(args) -> int:
    classifier = RealClassifier()
    if args.z is None:
        raise _UsageError("a-slice needs --z RE IM")
    _no_stdout_image(args)
    z = complex(*args.z)
    if not cmath.isfinite(z):
        raise _UsageError(f"--z must be finite, got {z}")
    if args.json_out != "-" and os.path.realpath(args.out) == os.path.realpath(args.json_out):
        raise _UsageError(f"--out and --json name the same file: {args.out}")
    win = _window(args)
    try:
        grid = rasterize_a_slice(z, win, classifier)
    except ValueError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    comps = components(grid)
    doc = {
        "base_point": [z.real, z.imag],
        "window": asdict(win),
        "count": len(comps),
        "components": [asdict(c) for c in comps],
        "cell_counts": grid.counts(),
        "cfg": classifier.describe(),
    }
    _maybe_timestamp(doc, args)
    text = json.dumps(doc, indent=2) + "\n"
    files = [(args.out, to_ppm_bytes(grid))]
    if args.json_out != "-":
        files.append((args.json_out, text))
    if rc := _write_files(files):
        return rc
    status = sys.stdout
    if args.json_out == "-":
        sys.stdout.write(text)
        status = sys.stderr  # stdout holds the JSON document alone
    print(f"wrote {args.out} and {args.json_out}: {len(comps)} components", file=status)
    return EXIT_OK


def _json_columns(columns: dict) -> str:
    """json.dumps(columns) + "\n", encoded a column at a time.  json.dumps
    keeps the text of every item until it joins them, so the whole dict at
    once peaks at twice the memory (witness samples: 1.2 against 0.6 MiB)."""
    items = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in columns.items())
    return "".join(["{", items, "}\n"])


def cmd_witness(args) -> int:
    k = args.k
    if k < 1:
        raise _UsageError("need k >= 1 translates")
    if k > _MAX_TRANSLATES:
        raise _UsageError(
            f"-k must be at most {_MAX_TRANSLATES}, so that the counting window "
            f"satisfies |Re| <= {REAL_PART_LIMIT:g}"
        )
    cols, rows = args.res
    if k > cols:
        # R is narrower than the period 2, so a translate owns a component
        # only through columns that no other translate owns
        raise _UsageError(
            f"-k must be at most the --res width, {cols}: each translate needs columns of its own"
        )
    prefix = args.out
    classifier = SyntheticSlice() if args.synthetic else RealClassifier()

    try:
        q, z = find_rectangle(classifier)
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
        report = verify_witness(q, z, classifier, raster_rows=rows)
    except ValueError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    counting = components_near_infinity(report, k, classifier, cols=cols)
    doc = _maybe_timestamp(report.to_json_dict(counting, classifier.describe()), args)
    files = [
        (f"{prefix}.json", json.dumps(doc, indent=2) + "\n"),
        (f"{prefix}.ppm", to_ppm_bytes(counting.raster)),
        (f"{prefix}.samples.json", _json_columns(report.samples_json_dict())),
    ]
    if rc := _write_files(files):
        return rc

    ok = report.all_certified and counting.ok
    print(
        f"witness {'CERTIFIED' if ok else 'NOT certified'}: "
        f"Q=[{q.re_min:.6f},{q.re_max:.6f}]x[{q.im_min:.6f},{q.im_max:.6f}], "
        f"z={z.real:.6f}{z.imag:+.6f}i, components={counting.components_found} "
        f"(wanted {k}); outputs {prefix}.json, {prefix}.ppm, {prefix}.samples.json"
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
                    f"  translate {t.translate}: components={t.components}, "
                    f"member_point_ok={t.member_point_ok}",
                    file=sys.stderr,
                )
        return EXIT_WITNESS
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="maskit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *, out, out_help):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", metavar="FILE",
                       help="read more of these flags from FILE; flags given here override it")
        p.add_argument("--out", default=out, help=f"{out_help} (default %(default)s)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from JSON output (render-maskit and cusps "
                       "write none; they accept the flag so scripts can pass it to all)")
        return p

    def raster(p, *, res, window=None):
        if window is not None:
            p.add_argument("--window", nargs=4, type=float, default=window,
                           metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
                           help="plane window, finite and increasing (default %(default)s)")
        p.add_argument("--res", type=_res, default=res, help="resolution WxH (default %(default)s)")
        p.add_argument("--workers", type=positive_int, default=1,
                       help="accepted for compatibility; has no effect (rasters run in process)")

    p = command("render-maskit", "rasterize the slice to a PPM image",
                out="maskit.ppm", out_help="output PPM path")
    raster(p, res="512x512", window=(-3.0, 3.0, 0.0, 3.0))

    p = command("cusps", "boundary-cusp table as CSV",
                out="-", out_help="output CSV path or - for stdout")
    p.add_argument("--max-q", dest="max_q", type=int, default=8,
                   help=f"largest slope denominator, at most {SYMBOLIC_Q_CAP} "
                   "(default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; has no effect (no seeded solver runs)")

    p = command("a-slice", "rasterize the extension locus of a base point",
                out="a_slice.ppm", out_help="output PPM path")
    raster(p, res="512x512", window=(-4.0, 4.0, 0.0, 10.0))
    p.add_argument("--z", nargs=2, type=float, metavar=("RE", "IM"),
                   help="base point, finite and certified InsidePlus (required)")
    p.add_argument("--json", dest="json_out", default="a_slice.json",
                   help="component-report JSON path (default %(default)s)")

    p = command("witness", "find, verify, and count the bounded-component witness",
                out="witness", out_help="output file prefix")
    raster(p, res="1024x64")
    p.add_argument("-k", type=int, default=5,
                   help="number of translates to certify (default %(default)s)")
    p.add_argument("--synthetic", action="store_true", help="use the synthetic boundary classifier")

    return parser


_DISPATCH = {
    "render-maskit": cmd_render_maskit,
    "cusps": cmd_cusps,
    "a-slice": cmd_a_slice,
    "witness": cmd_witness,
}


def _config_flags(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return shlex.split(text, comments=True)
    except ValueError as exc:
        raise _UsageError(f"config {path}: {exc}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            try:
                file_flags = _config_flags(args.config)
            except OSError as exc:
                print(f"cannot read config: {exc}", file=sys.stderr)
                return EXIT_IO
            if parser.parse_args([args.command, *file_flags]).config is not None:
                raise _UsageError(f"config {args.config}: --config cannot be nested")
            # The file's flags go first, so the command line's win.
            args = parser.parse_args([args.command, *file_flags, *argv[1:]])
        if args.command != "cusps":
            _bind_lazy()
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
