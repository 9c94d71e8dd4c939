"""Tests for the command-line interface: exit codes, goldens, config layering."""

import errno
import hashlib
import json
import math
import pathlib
import time
from collections import Counter

import pytest

import maskit.cli
import maskit.cusps
from maskit.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_WITNESS,
    _json_columns,
    _write_files,
    main,
)
from maskit.farey import slopes_up_to

# sha256sum's format: the digest of cusps --max-q 64 and the file name
CUSPS_Q64_SHA256 = pathlib.Path(__file__).with_name("cusps_q64.sha256")

GOLDEN_CUSPS_Q2 = (
    "p,q,re,im,residual\n"
    "0,1,0.0,2.0,0.000e+00\n"
    "1,1,-2.0,2.0,0.000e+00\n"
    "1,2,-1.0,1.7320508075688772,1.391e-15\n"
)

# cusps --max-q 8 --seed 0, byte for byte: any change to the cusp
# continuation or its exact last step that moves a digit shows here.  Each
# value is the correctly rounded root of t_{p/q} = +-2 at the end of the
# pleating ray (checked against an 80-digit solve).
GOLDEN_CUSPS_Q8 = GOLDEN_CUSPS_Q2 + (
    "1,3,-0.5812034746095592,1.6938972023080991,1.676e-15\n"
    "2,3,-1.4187965253904407,1.6938972023080991,3.174e-15\n"
    "1,4,-0.3522011287389576,1.7214332372471368,4.271e-15\n"
    "3,4,-1.6477988712610423,1.7214332372471368,5.887e-15\n"
    "1,5,-0.22010520457497712,1.766741704326582,2.841e-15\n"
    "2,5,-0.7665884174654594,1.642138768653476,4.307e-15\n"
    "3,5,-1.2334115825345406,1.642138768653476,4.307e-15\n"
    "4,5,-1.7798947954250228,1.766741704326582,5.322e-15\n"
    "1,6,-0.14273344492531798,1.8102913200282882,3.959e-16\n"
    "5,6,-1.857266555074682,1.8102913200282882,6.087e-15\n"
    "1,7,-0.09627581223684989,1.8462756129020557,3.386e-15\n"
    "2,7,-0.44805899810588956,1.670800639707134,5.442e-15\n"
    "3,7,-0.8633931441588972,1.639957948476096,1.144e-14\n"
    "4,7,-1.1366068558411029,1.639957948476096,1.192e-14\n"
    "5,7,-1.5519410018941104,1.670800639707134,5.442e-15\n"
    "6,7,-1.90372418776315,1.8462756129020557,3.386e-15\n"
    "1,8,-0.06739303289260615,1.8745196269835906,2.662e-14\n"
    "3,8,-0.6805515402643237,1.6331702409152375,1.703e-14\n"
    "5,8,-1.3194484597356764,1.6331702409152375,1.760e-14\n"
    "7,8,-1.9326069671073938,1.8745196269835906,3.414e-14\n"
)

# cusps --max-q 12 --seed 0, byte for byte; 3/10, 7/10, 5/12 and 7/12 are
# slopes where t_{p/q} - 2 has a repeated root, below Im z = 1.
GOLDEN_CUSPS_Q12 = GOLDEN_CUSPS_Q8 + (
    "1,9,-0.04875301289865067,1.8964072509492094,2.250e-14\n"
    "2,9,-0.2709919038926503,1.7248549573555543,9.834e-15\n"
    "4,9,-0.9180177802610666,1.6527480272893618,6.454e-15\n"
    "5,9,-1.0819822197389335,1.6527480272893618,1.797e-14\n"
    "7,9,-1.7290080961073497,1.7248549573555543,1.432e-14\n"
    "8,9,-1.9512469871013494,1.8964072509492094,2.483e-14\n"
    "1,10,-0.03628807752254287,1.9134232958668245,1.253e-14\n"
    "3,10,-0.5,1.6583123951777,4.153e-15\n"
    "7,10,-1.5,1.6583123951777,4.153e-15\n"
    "9,10,-1.963711922477457,1.9134232958668245,2.872e-14\n"
    "1,11,-0.027680583888511252,1.926780321415754,1.396e-14\n"
    "2,11,-0.17022412246606383,1.7785491494136503,2.902e-14\n"
    "3,11,-0.3999692885689628,1.6763498373538286,3.982e-15\n"
    "4,11,-0.6365980718156448,1.6404978924304032,2.314e-14\n"
    "5,11,-0.9489637681698291,1.6676791796904682,2.587e-14\n"
    "6,11,-1.051036231830171,1.6676791796904682,2.587e-14\n"
    "7,11,-1.3634019281843552,1.6404978924304032,2.314e-14\n"
    "8,11,-1.6000307114310373,1.6763498373538286,1.044e-14\n"
    "9,11,-1.8297758775339361,1.7785491494136503,3.238e-14\n"
    "10,11,-1.9723194161114888,1.926780321415754,1.464e-14\n"
    "1,12,-0.02156558503837789,1.9373911207239045,5.161e-14\n"
    "5,12,-0.8208725079312134,1.6240268820524242,5.391e-15\n"
    "7,12,-1.1791274920687866,1.6240268820524242,5.391e-15\n"
    "11,12,-1.9784344149616222,1.9373911207239045,8.546e-14\n"
)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["cusps", "--help"])
    assert exc.value.code == 0


def test_bad_res_is_usage_error(capsys):
    code = main(["render-maskit", "--res", "512"])
    assert code == EXIT_USAGE
    assert "--res wants WxH" in capsys.readouterr().err


def test_zero_res_is_usage_error():
    assert main(["render-maskit", "--res", "0x4"]) == EXIT_USAGE


def test_bad_window_is_usage_error():
    assert main(["render-maskit", "--window", "3", "-3", "0", "3"]) == EXIT_USAGE


@pytest.mark.parametrize("command", [["render-maskit"], ["a-slice", "--z", "0", "4"]])
def test_window_past_the_real_part_limit_is_usage_error(command, tmp_path, capsys):
    # |Re| beyond 2^50, where the classifier's integer translates stop being exact
    out = ["--out", str(tmp_path / "x.ppm"), "--res", "2x2"]
    if command[0] == "a-slice":
        out += ["--json", str(tmp_path / "x.json")]
    assert main([*command, "--window", "3e15", "4e15", "0", "1", *out]) == EXIT_USAGE
    assert "|Re|" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_witness_k_zero_is_usage_error(capsys):
    assert main(["witness", "-k", "0", "--synthetic"]) == EXIT_USAGE
    assert "k >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["1000000000000000", str(2**49 + 1)])
def test_witness_oversized_k_is_usage_error(k, tmp_path, monkeypatch, capsys):
    # The counting window over R + 2j, j < k, would pass |Re| <= 2^50.
    monkeypatch.setattr(maskit.cli, "find_rectangle", lambda clf: pytest.fail("search ran"))
    assert main(["witness", "-k", k, "--synthetic", "--out", str(tmp_path / "w")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: -k must be at most 562949953421312") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_witness_k_above_the_width_is_usage_error(tmp_path, monkeypatch, capsys):
    # A translate owns a component only through columns of its own, so
    # k > cols can never certify.
    monkeypatch.setattr(maskit.cli, "find_rectangle", lambda clf: pytest.fail("search ran"))
    argv = ["witness", "-k", "129", "--synthetic", "--res", "128x16", "--out", str(tmp_path / "w")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: -k must be at most the --res width, 128")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["render-maskit", "--res", "4x3", "--out", "-"],
        ["a-slice", "--z", "-3", "5.244615", "--res", "4x3", "--out", "-", "--json", "-"],
        ["a-slice", "--z", "-3", "5.244615", "--res", "4x3", "--out", "-", "--json", "a.json"],
    ],
    ids=["render-maskit", "a-slice-json-stdout", "a-slice-json-file"],
)
def test_ppm_to_stdout_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # cusps --out - and a-slice --json - mean stdout, but a PPM goes to a
    # file only: never to one named "-"
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: --out - is not supported")
    assert list(tmp_path.iterdir()) == []


def test_cusps_cap_is_enforced():
    assert main(["cusps", "--max-q", "0"]) == EXIT_USAGE
    assert main(["cusps", "--max-q", "65"]) == EXIT_USAGE


def test_a_slice_requires_z():
    assert main(["a-slice"]) == EXIT_USAGE


def test_a_slice_uncertified_base_is_precondition_error(capsys):
    code = main(["a-slice", "--z", "0", "1", "--res", "2x2"])
    assert code == EXIT_PRECONDITION
    assert "precondition" in capsys.readouterr().err


def test_a_slice_subnormal_im_w_is_precondition_error(tmp_path, capsys):
    # At Im w near 1e-310, Im z / |Im w| overflows: no test point exists.
    argv = [
        "a-slice", "--z", "0", "4",
        "--window", "-1", "1", "0", "1e-310",
        "--res", "2x2",
        "--out", str(tmp_path / "a.ppm"),
        "--json", str(tmp_path / "a.json"),
    ]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition: ") and "overflows" in err
    assert err.count("\n") == 1


def test_unwritable_output_is_io_error(tmp_path, capsys):
    code = main(
        [
            "render-maskit",
            "--window", "-0.2", "0.2", "0.05", "0.15",
            "--res", "4x2",
            "--out", str(tmp_path / "no-such-dir" / "x.ppm"),
        ]
    )
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {tmp_path / 'no-such-dir' / 'x.ppm'}: ")


def test_missing_config_file_is_io_error(capsys):
    assert main(["cusps", "--config", "/no/such/config"]) == EXIT_IO
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_config_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a flag\n")
    assert main(["cusps", "--config", str(cfg)]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cusps", "--workers", "2"],
        ["cusps", "--window", "-1", "1", "1", "2"],
        ["cusps", "--res", "4x4"],
        ["cusps", "--qmax", "16"],
        ["cusps", "--budget", "1000"],
        ["render-maskit", "--seed", "1"],
        ["a-slice", "--z", "0", "4", "--seed", "1"],
        ["witness", "--seed", "1"],
        ["witness", "--window", "-1", "1", "1", "2"],
        # the classifier has no settings: its search cap and budget are gone
        ["render-maskit", "--qmax", "512"],
        ["render-maskit", "--budget", "20000"],
        ["a-slice", "--z", "0", "4", "--qmax", "512"],
        ["a-slice", "--z", "0", "4", "--budget", "20000"],
        ["witness", "--qmax", "512"],
        ["witness", "--budget", "20000"],
    ],
)
def test_subcommand_rejects_flags_it_does_not_read(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_file_flag_of_another_subcommand_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "render.cfg"
    cfg.write_text("--max-q 2\n")
    assert main(["render-maskit", "--config", str(cfg)]) == EXIT_USAGE
    assert "unrecognized arguments: --max-q 2" in capsys.readouterr().err


def test_nested_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "outer.cfg"
    cfg.write_text("--max-q 1\n--config inner.cfg\n")
    assert main(["cusps", "--config", str(cfg)]) == EXIT_USAGE
    assert "--config cannot be nested" in capsys.readouterr().err


def test_config_unclosed_quote_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text('--out "cusps.csv\n')
    assert main(["cusps", "--config", str(cfg)]) == EXIT_USAGE
    assert "closing quotation" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_workers_below_one_is_usage_error(workers, capsys):
    assert main(["render-maskit", "--res", "2x2", "--workers", workers]) == EXIT_USAGE
    assert "invalid positive_int value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["render-maskit", "--window", "0", "1", "0", "inf", "--res", "2x2"],
        ["render-maskit", "--window", "nan", "1", "0", "1", "--res", "2x2"],
        ["a-slice", "--z", "0", "inf", "--res", "2x2"],
        ["a-slice", "--z", "nan", "4", "--res", "2x2"],
        ["a-slice", "--z", "0", "4", "--window", "0", "inf", "1", "2", "--res", "2x2"],
    ],
)
def test_non_finite_input_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _render_bytes(tmp_path, name, argv):
    out = tmp_path / name
    assert main(["render-maskit", "--res", "16x8", "--out", str(out), *argv]) == EXIT_OK
    return out.read_bytes()


def test_negative_numbers_in_exponent_form_are_values(tmp_path):
    # argparse's own pattern reads -3e0 as a flag ("expected 4 arguments")
    want = _render_bytes(tmp_path, "plain.ppm", ["--window", "-3", "3", "0", "3"])
    assert _render_bytes(tmp_path, "exp.ppm", ["--window", "-3e0", "3e0", "0", "3e0"]) == want
    assert _render_bytes(tmp_path, "dot.ppm", ["--window", "-.3e1", "3", "0", "3"]) == want
    cfg = tmp_path / "window.cfg"
    cfg.write_text("--window -3e0 3 0 3\n")
    assert _render_bytes(tmp_path, "cfg.ppm", ["--config", str(cfg)]) == want


def test_a_slice_reads_a_base_point_in_exponent_form(tmp_path):
    docs = []
    for re_z in ("-3", "-3e0"):
        ppm, doc = tmp_path / f"a{re_z}.ppm", tmp_path / f"a{re_z}.json"
        argv = ["a-slice", "--z", re_z, "5.244615", "--res", "16x8", "--no-timestamp"]
        assert main([*argv, "--out", str(ppm), "--json", str(doc)]) == EXIT_OK
        docs.append((ppm.read_bytes(), doc.read_bytes()))
    assert docs[0] == docs[1]


def test_negative_infinity_is_still_read_as_a_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["render-maskit", "--window", "-inf", "3", "0", "3", "--res", "2x2"]) == EXIT_USAGE
    assert "expected 4 arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Cusp table
# ---------------------------------------------------------------------------


def test_cusps_golden_csv(tmp_path):
    out = tmp_path / "cusps.csv"
    assert main(["cusps", "--max-q", "2", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == GOLDEN_CUSPS_Q2


def test_cusp_table_bytes_are_pinned(capsys):
    assert main(["cusps", "--max-q", "8", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_CUSPS_Q8


def test_cusp_table_through_q12_is_pinned(capsys):
    assert main(["cusps", "--max-q", "12", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_CUSPS_Q12


def test_every_cusp_through_q64_resolves(tmp_path):
    start = time.monotonic()
    out = tmp_path / "c64.csv"
    assert main(["cusps", "--max-q", "64", "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(int(p), int(q)) for p, q, *_ in rows] == [
        (s.p, s.q) for s in slopes_up_to(64, 0.0, 1.0)
    ]
    assert [row for row in rows if row[4].startswith("failed")] == []
    assert max(float(row[4]) for row in rows) <= 1e-9
    assert time.monotonic() - start < 10.0
    # --max-q is capped at 64 and every smaller table is a prefix of this
    # one, so this digest pins every table the command can print
    digest, name = CUSPS_Q64_SHA256.read_text().split()
    assert name == out.name
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cusp_table_runs_one_ray_per_mirror_pair(monkeypatch, capsys):
    # of the 33 slopes with q <= 10, the 17 with p/q <= 1/2 run a ray;
    # each p/q > 1/2 reflects the cusp of (q-p)/q
    rays = []
    ray = maskit.cusps.pleating_ray

    def counting_ray(s):
        rays.append(s)
        return ray(s)

    monkeypatch.setattr(maskit.cusps, "pleating_ray", counting_ray)
    assert main(["cusps", "--max-q", "10"]) == EXIT_OK
    assert len(rays) == 17
    assert all(2 * s.p <= s.q for s in rays)
    assert capsys.readouterr().out == GOLDEN_CUSPS_Q12[: GOLDEN_CUSPS_Q12.index("1,11,")]


def test_cusps_stdout_default(capsys):
    assert main(["cusps", "--max-q", "2"]) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_CUSPS_Q2


def test_cusps_seed_does_not_change_values(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["cusps", "--max-q", "2", "--seed", "0", "--out", str(a)]) == EXIT_OK
    assert main(["cusps", "--max-q", "2", "--seed", "7", "--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()


# ---------------------------------------------------------------------------
# Config layering
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path):
    out = tmp_path / "cusps.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# cusp table settings\n"
        "--max-q 2  # the 0/1, 1/1 and 1/2 rows\n"
        f"--out '{out}'\n"
    )
    assert main(["cusps", "--config", str(cfg)]) == EXIT_OK
    assert out.read_text() == GOLDEN_CUSPS_Q2


def test_flags_override_config_file(tmp_path):
    out = tmp_path / "cusps.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"--max-q 2\n--out '{out}'\n")
    assert main(["cusps", "--config", str(cfg), "--max-q", "1"]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 0/1 + 1/1 only
    assert lines[0] == "p,q,re,im,residual"
    assert lines[1].startswith("0,1,")
    assert lines[2].startswith("1,1,")


def test_config_bad_int_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("--max-q banana\n")
    assert main(["cusps", "--config", str(cfg)]) == EXIT_USAGE
    assert "banana" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Render
# ---------------------------------------------------------------------------


def test_render_maskit_golden_white_sliver(tmp_path, capsys):
    out = tmp_path / "white.ppm"
    code = main(
        [
            "render-maskit",
            "--window", "-0.2", "0.2", "0.05", "0.15",
            "--res", "4x2",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert out.read_bytes() == b"P6\n4 2\n255\n" + b"\xff\xff\xff" * 8
    assert "wrote" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Extension-locus slice
# ---------------------------------------------------------------------------


def test_a_slice_writes_image_and_component_json(tmp_path):
    ppm = tmp_path / "a.ppm"
    doc_path = tmp_path / "a.json"
    code = main(
        [
            "a-slice",
            "--z", "0", "4",
            "--window", "-0.5", "0.5", "7.5", "8.5",
            "--res", "2x1",
            "--out", str(ppm),
            "--json", str(doc_path),
            "--no-timestamp",
        ]
    )
    assert code == EXIT_OK
    assert ppm.read_bytes().startswith(b"P6\n2 1\n255\n")
    doc = json.loads(doc_path.read_text())
    assert doc["base_point"] == [0.0, 4.0]
    assert doc["count"] == 1
    assert doc["cell_counts"] == {"Member": 2}
    assert doc["cfg"] == {"kind": "real", "reject_threshold": 2.0, "inside_margin": 0.001}
    assert "generated_at" not in doc


# sha256 of a-slice --z -3 5.244615 --window -4 4 0 10 --no-timestamp at
# two resolutions: the JSON writer and the component labelling may not move a
# byte of the document.  At 512x256 the locus has six components, some
# touching the window's edge and some not; at 64x64 it has one.
A_SLICE_SHA256 = {
    "64x64": {
        ".json": "2fb86a5d14c337ee3f00714ef11066abe78ef604bb81854ab5bceaf99a7e8532",
        ".ppm": "86180df62966b748929559ab7e702e5042b71c184305d89c80ff1b1c5feeb092",
    },
    "512x256": {
        ".json": "955a524423858a083f4ffc1b1015d80f5e428915708e76f3bc252a7e4993ee9a",
        ".ppm": "fac5f3ccce15b020372101e2aa22ecfe32855229940d6984eaf8c2ae7a8afc0a",
    },
}


@pytest.mark.parametrize("res", ["64x64", "512x256"])
def test_a_slice_64_artifacts_are_pinned(tmp_path, res):
    argv = [
        "a-slice",
        "--z", "-3", "5.244615",
        "--window", "-4", "4", "0", "10",
        "--res", res,
        "--no-timestamp",
        "--out", str(tmp_path / "a.ppm"),
        "--json", str(tmp_path / "a.json"),
    ]
    assert main(argv) == EXIT_OK
    for ext in (".json", ".ppm"):
        digest = hashlib.sha256((tmp_path / ("a" + ext)).read_bytes()).hexdigest()
        assert digest == A_SLICE_SHA256[res][ext], ext


def test_a_slice_unwritable_json_writes_no_ppm(tmp_path, capsys):
    ppm = tmp_path / "a.ppm"
    argv = [
        "a-slice",
        "--z", "0", "4",
        "--res", "2x2",
        "--out", str(ppm),
        "--json", str(tmp_path / "no-such-dir" / "e.json"),
    ]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {tmp_path / 'no-such-dir' / 'e.json'}: ")
    assert not ppm.exists()
    assert list(tmp_path.iterdir()) == []  # no temporary left behind


def test_a_slice_unwritable_ppm_writes_no_json(tmp_path, capsys):
    doc_path = tmp_path / "e.json"
    argv = [
        "a-slice",
        "--z", "0", "4",
        "--res", "2x2",
        "--out", str(tmp_path / "no-such-dir" / "a.ppm"),
        "--json", str(doc_path),
    ]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {tmp_path / 'no-such-dir' / 'a.ppm'}: ")
    assert list(tmp_path.iterdir()) == []  # no e.json and no temporary


def test_a_slice_json_to_stdout(tmp_path, capsys):
    ppm = tmp_path / "a.ppm"
    argv = ["a-slice", "--z", "0", "4", "--res", "2x2", "--out", str(ppm), "--json", "-"]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out)["count"] >= 0  # stdout is the document alone
    assert err.startswith(f"wrote {ppm} and -: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ppm"]


def test_a_slice_json_echoes_the_window(tmp_path, capsys):
    argv = ["a-slice", "--z", "0", "4", "--window", "0.1", "0.7", "1.6", "1.75", "--res", "4x2"]
    assert main(argv + ["--out", str(tmp_path / "a.ppm"), "--json", "-"]) == EXIT_OK
    window = json.loads(capsys.readouterr().out)["window"]
    assert window == {
        "re_min": 0.1, "re_max": 0.7, "im_min": 1.6, "im_max": 1.75, "cols": 4, "rows": 2
    }


@pytest.mark.parametrize(
    "out, json_out", [("same.x", "same.x"), ("./same.x", "same.x"), ("same.x", "./same.x")]
)
def test_a_slice_same_path_for_both_outputs_is_usage_error(
    out, json_out, tmp_path, monkeypatch, capsys
):
    # The JSON would replace the PPM just written; refused before classifying.
    monkeypatch.chdir(tmp_path)

    def no_raster(*args, **kwargs):
        raise AssertionError("classified before the paths were checked")

    monkeypatch.setattr(maskit.cli, "rasterize_a_slice", no_raster)
    argv = ["a-slice", "--z", "0", "4", "--res", "8x8", "--out", out, "--json", json_out]
    assert main(argv) == EXIT_USAGE
    assert "--out and --json name the same file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# sha256 of render-maskit --window -3 3 0 3 --res 512x512: neither the batch
# kernel nor --workers may move a byte of the render.
RENDER_512_SHA256 = "6d5aa4240eddafa9a44db75dabaf9b35303306c0a769b5003840ed14bfcbd88b"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_render_512_is_pinned(workers, tmp_path):
    out = tmp_path / "r.ppm"
    argv = ["render-maskit", "--window", "-3", "3", "0", "3", "--res", "512x512"]
    assert main(argv + ["--workers", workers, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RENDER_512_SHA256


# ---------------------------------------------------------------------------
# Witness pipeline
# ---------------------------------------------------------------------------


def _run_witness(tmp_path, name, extra):
    prefix = tmp_path / name
    argv = [
        "witness",
        "--synthetic",
        "-k", "2",
        "--res", "256x32",
        "--out", str(prefix),
        "--no-timestamp",
    ] + extra
    return main(argv), prefix


def test_witness_synthetic_certifies(tmp_path, capsys):
    code, prefix = _run_witness(tmp_path, "w", [])
    assert code == EXIT_OK
    assert "CERTIFIED" in capsys.readouterr().out
    doc = json.loads((prefix.parent / (prefix.name + ".json")).read_text())
    assert set(doc) == {
        "q",
        "z",
        "r",
        "interior_verdict",
        "boundary_samples",
        "components",
        "all_certified",
        "cfg",
        "diagnostics",
    }
    assert doc["all_certified"] is True
    assert doc["components"]["counting_ok"] is True
    assert doc["components"]["found"] >= 2
    assert doc["components"]["straddlers"] == []
    assert doc["diagnostics"]["synthetic"] is True
    assert doc["diagnostics"]["k"] == 2
    assert doc["cfg"]["kind"] == "synthetic"
    assert "generated_at" not in doc
    header = (prefix.parent / (prefix.name + ".ppm")).read_bytes()
    assert header.startswith(b"P6\n")


def test_witness_unwritable_ppm_exits_2_and_keeps_the_json(tmp_path, capsys):
    # A directory where the PPM should go: the JSON's rename comes first and
    # holds, the PPM's fails, and no temporary is left.
    (tmp_path / "w.ppm").mkdir()
    (tmp_path / "w.json").write_text("old")
    code, prefix = _run_witness(tmp_path, "w", [])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith(f"cannot write {prefix}.ppm: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json", "w.ppm"]
    assert json.loads((tmp_path / "w.json").read_text())["all_certified"] is True
    assert list((tmp_path / "w.ppm").iterdir()) == []


def test_witness_worker_count_byte_identical(tmp_path):
    code1, p1 = _run_witness(tmp_path, "w1", ["--workers", "1"])
    code2, p2 = _run_witness(tmp_path, "w2", ["--workers", "2"])
    assert code1 == code2 == EXIT_OK
    for ext in (".json", ".ppm", ".samples.json"):
        b1 = (p1.parent / (p1.name + ext)).read_bytes()
        b2 = (p2.parent / (p2.name + ext)).read_bytes()
        assert b1 == b2


# sha256 of witness -k 5 --no-timestamp at the default 1024x64: whichever
# path (batch or per point) classifies, no byte of the artifacts may move.
WITNESS_K5_SHA256 = {
    ("honest", ".json"): "abe774e75611b2412f336555accf886faddb983aafc5f698bb27ca9f5f381970",
    ("honest", ".ppm"): "a680fbfe10bd0254c694ba265ec58d216a2ffacab92e3b25d066c920dc3883ee",
    ("honest", ".samples.json"): "abed86136bf752fc34aec5c615a483a3097709984b69f473ed26756bbaf92e1a",
    ("synthetic", ".json"): "d948de19cf8971389e0105e209761dbe4287fbfe5caa31c3382560b52e0744c4",
    ("synthetic", ".ppm"): "ba2b6bab8d0d0bdc586a18a79e80b1db0db8cdeb0d520cd965e2fc43daecd001",
    ("synthetic", ".samples.json"): "c1da2b641441c49f9e2b6fa039ccd6be4f9f385c0ce319239d7a12066854fe10",
}


@pytest.mark.parametrize("kind", ["honest", "synthetic"])
def test_witness_k5_artifacts_are_pinned(kind, tmp_path):
    prefix = tmp_path / kind
    argv = ["witness", "-k", "5", "--no-timestamp", "--out", str(prefix)]
    assert main(argv + (["--synthetic"] if kind == "synthetic" else [])) == EXIT_OK
    for ext in (".json", ".ppm", ".samples.json"):
        digest = hashlib.sha256((tmp_path / (kind + ext)).read_bytes()).hexdigest()
        assert digest == WITNESS_K5_SHA256[kind, ext], ext


# witness -k 5 --synthetic --res 64x3 --no-timestamp: three raster rows are
# too coarse for R's boundary, so the witness fails with exit code 4.
WITNESS_UNCERTIFIED_STDERR = "  7 boundary sample(s) failed certification\n" + "".join(
    f"  translate {i}: components=(), member_point_ok=False\n" for i in range(5)
)
WITNESS_UNCERTIFIED_SHA256 = {
    ".json": "48c820dd3b542da9ebad8d0529ed924397d02df40a488ec7e564c088869b9aa5",
    ".ppm": "e3715a542e73d42979b4a0be0be43b8cec99ad8628569767d14142e285273f62",
    ".samples.json": "6e7b9d1c1799f6e08cfd3934b8c0c1affcb5af57e944aee720af11971123eaa3",
}


def test_uncertified_witness_exits_4_and_writes_both_files(tmp_path, capsys):
    prefix = tmp_path / "w"
    argv = ["witness", "-k", "5", "--synthetic", "--res", "64x3", "--no-timestamp"]
    assert main(argv + ["--out", str(prefix)]) == EXIT_WITNESS
    out, err = capsys.readouterr()
    assert out.startswith("witness NOT certified: ")
    assert err == WITNESS_UNCERTIFIED_STDERR
    for ext in (".json", ".ppm", ".samples.json"):
        digest = hashlib.sha256((tmp_path / ("w" + ext)).read_bytes()).hexdigest()
        assert digest == WITNESS_UNCERTIFIED_SHA256[ext], ext


@pytest.mark.parametrize(
    "extra", [[], ["-k", "5", "--res", "64x3"]], ids=["certified", "uncertified"]
)
def test_witness_samples_file_agrees_with_the_document(extra, tmp_path):
    # The document counts the samples that the samples file lists.
    code, prefix = _run_witness(tmp_path, "w", extra)
    assert code == (EXIT_WITNESS if extra else EXIT_OK)
    summary = json.loads((tmp_path / "w.json").read_text())["boundary_samples"]
    samples = json.loads((tmp_path / "w.samples.json").read_text())
    assert list(samples) == ["re", "im", "verdict", "n"]
    assert all(len(column) == summary["count"] for column in samples.values())
    # the tally, in order of first appearance
    assert list(summary["verdicts"].items()) == list(Counter(samples["verdict"]).items())
    points = set(zip(samples["re"], samples["im"]))
    assert all(tuple(w) in points for w in summary["offending"])
    assert bool(summary["offending"]) == bool(extra)


def test_json_columns_is_json_dumps_of_the_whole_dict():
    columns = {
        "re": [0.1, -0.0, 1e-300, math.nan, math.inf],
        "verdict": ["Member", "NonMemberCertified"],
        "n": [None, 3, -1],
        "\u00e9": [],
        "nested": [[1.5, "\u2192"], {"k": None}],
    }
    assert _json_columns(columns) == json.dumps(columns) + "\n"
    assert _json_columns({}) == "{}\n"


def test_witness_timestamp_toggle(tmp_path):
    prefix = tmp_path / "t"
    argv = ["witness", "--synthetic", "-k", "1", "--res", "128x32", "--out", str(prefix)]
    assert main(argv) == EXIT_OK
    doc = json.loads((prefix.parent / "t.json").read_text())
    assert "generated_at" in doc
    assert main(argv + ["--no-timestamp"]) == EXIT_OK
    doc = json.loads((prefix.parent / "t.json").read_text())
    assert "generated_at" not in doc


def test_witness_config_file_drives_run(tmp_path):
    prefix = tmp_path / "cfgrun"
    cfg = tmp_path / "w.cfg"
    cfg.write_text(
        "--synthetic\n"
        "-k 2\n"
        "--res 256x32\n"
        f"--out '{prefix}'\n"
    )
    assert main(["witness", "--config", str(cfg), "--no-timestamp"]) == EXIT_OK
    doc = json.loads((prefix.parent / "cfgrun.json").read_text())
    assert doc["diagnostics"]["k"] == 2
    assert doc["diagnostics"]["synthetic"] is True


# ---------------------------------------------------------------------------
# The file writer
# ---------------------------------------------------------------------------


def test_write_files_removes_its_temporary_on_any_error(tmp_path):
    target = tmp_path / "t.json"
    target.write_text("old")
    # The text file takes str alone: writing a list raises once it is open.
    with pytest.raises(TypeError):
        _write_files([(target, ["new"])])
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_write_files_keeps_a_replaced_file_when_a_later_rename_fails(tmp_path, capsys):
    (tmp_path / "w.json").write_text("old")
    (tmp_path / "w.ppm").mkdir()
    assert _write_files([(tmp_path / "w.json", "new"), (tmp_path / "w.ppm", b"P6")]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"cannot write {tmp_path / 'w.ppm'}: [Errno 21] ")
    assert (tmp_path / "w.json").read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json", "w.ppm"]
    assert list((tmp_path / "w.ppm").iterdir()) == []


class _FullDisk:
    """A file that takes its first three bytes, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:3])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize(
    "argv",
    [
        ["render-maskit", "--window", "-0.2", "0.2", "0.05", "0.15", "--res", "4x2"],
        ["cusps", "--max-q", "2"],
    ],
)
def test_failed_write_keeps_the_old_file(argv, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"the old bytes")
    monkeypatch.setattr(maskit.cli, "open", lambda *a, **k: _FullDisk(open(*a, **k)), raising=False)
    assert main(argv + ["--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == f"cannot write {out}: [Errno 28] No space left on device\n"
    assert out.read_bytes() == b"the old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
