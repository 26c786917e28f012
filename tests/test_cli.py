"""Command-line surface: schemas, manifests, exit codes, determinism."""
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gausszonoids
from gausszonoids import cli
from gausszonoids.cli import COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_binfty_schema_and_refinement(capsys):
    # bisected to adjacent floats: no tolerance to set or to print
    payload = run_json(capsys, "binfty")
    assert payload == {"b_infinity": 0.9103459107945124, "t_star": 0.6104408432345669}
    code, captured = _exit(capsys, ["binfty", "--tol", "1e-10"])
    assert code == 2 and captured.out == "" and "--tol" in captured.err


def test_binfty_check_flag(capsys):
    code, out = run(capsys, "binfty", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"]["agrees"] is True
    assert abs(payload["check"]["grid_value"] - payload["b_infinity"]) < 1e-8


def test_zonoid_volume_ball_case(capsys):
    payload = run_json(capsys, "zonoid", "volume", "--m", "2", "--s", "0")
    # G(0) is the ball of radius (2 pi)^(-1/2)
    assert payload["volume"] == pytest.approx(0.5, rel=1e-12)
    # at s = 0 the volume meets the upper bound exactly, give roundoff room
    assert payload["bounds"]["lower"] <= payload["volume"]
    assert payload["volume"] <= payload["bounds"]["upper"] * (1 + 1e-12)


def test_zonoid_support_limit_kind(capsys):
    x = z = 1 / math.sqrt(2)
    payload = run_json(
        capsys, "zonoid", "support", "--kind", "limit", "--x", str(x), "--yr", str(z)
    )
    assert payload["support"] == pytest.approx(0.9209640610618379, rel=1e-12)


def test_zonoid_profile_csv_single_level(capsys):
    code, out = run(capsys, "zonoid", "profile", "--m", "2", "--s", "0", "--n", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,axial,radial"
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    # s = 0 profile is a circle of radius 1/sqrt(2 pi)
    radii = np.hypot(rows[:, 1], rows[:, 2])
    assert np.allclose(radii, 1 / math.sqrt(2 * math.pi), rtol=1e-12)


def test_zonoid_profile_csv_multi_level(capsys):
    code, out = run(capsys, "zonoid", "profile", "--m", "2", "--s", "0,2", "--n", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "s,theta,axial,radial"
    levels = {ln.split(",")[0] for ln in lines[1:]}
    assert levels == {"0.0", "2.0"}


def test_zonoid_inclusion_passes(capsys):
    code, out = run(
        capsys,
        "zonoid", "inclusion", "--m", "3", "--s", "1", "--n", "2000", "--seed", "11",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["verdict"] == "PASS"
    assert payload["min_ratio_lower"] >= payload["limit_inradius"] - 1e-12
    assert payload["max_ratio_upper"] <= 1 + 1e-12


def test_zonoid_support_and_profile_take_m(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"m": 3}))
    for action, args in (("support", ("--s", "1", "--x", "0.6", "--yr", "0.8")),
                         ("profile", ("--s", "1", "--n", "5"))):
        code, out = run(capsys, "zonoid", action, "--m", "3", *args)
        assert code == 0
        assert run(capsys, "zonoid", action, "--manifest", str(manifest), *args) == (0, out)
        # supports are computed in reduced coordinates, so m does not show
        assert run(capsys, "zonoid", action, *args) == (0, out)
        assert run(capsys, "zonoid", action, "--m", "0", *args)[0] == 2


def test_det_mc_via_manifest_columns(capsys, tmp_path):
    manifest = tmp_path / "frame.json"
    manifest.write_text(json.dumps({
        "m": 2,
        "columns": [
            {"M": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0]},
            {"M": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0]},
        ],
        "samples": 50000,
        "seed": 3,
    }))
    payload = run_json(capsys, "det", "mc", "--manifest", str(manifest))
    assert payload["m"] == 2 and payload["k"] == 2
    assert abs(payload["mean"] - 1.0) < 4 * payload["std_error"]


def test_det_check_and_self_test(capsys, tmp_path):
    args = ["det", "check", "--m", "2", "--k", "2", "--s", "1", "--samples", "50000", "--seed", "4"]
    code, out = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"
    code, corrupted = run(capsys, *args, "--self-test")
    assert code == 1
    assert json.loads(corrupted)["verdict"] == "FAIL"
    # a manifest switch is JSON true or false, and an integer key takes an
    # integral number
    path = tmp_path / "check.json"
    for switch, want in ((False, (0, out)), (True, (1, corrupted))):
        path.write_text(json.dumps({"m": 2.0, "k": 2, "s": 1, "samples": 5e4, "self_test": switch}))
        assert run(capsys, "det", "check", "--manifest", str(path), "--seed", "4") == want


@pytest.mark.parametrize("m, k", [(2, 2), (5, 3)])
def test_det_bounds_prints_the_check_bracket(capsys, m, k):
    args = ["--m", str(m), "--k", str(k), "--s", "1", "--samples", "20000", "--seed", "1"]
    bounds = run_json(capsys, "det", "bounds", *args)
    check = run_json(capsys, "det", "check", *args)
    assert bounds["coeff"] == check["coeff"]
    assert bounds["mixed_volume"] == check["mixed_volume"]
    for side in ("lower", "upper"):
        assert bounds["bounds"][side] == check["bounds"][side]


def test_det_bounds_iid_square_needs_equal_columns(capsys, tmp_path):
    # centered columns with different matrices: the exact upper bound (the
    # mixed area) meets the determinant estimate
    manifest = tmp_path / "frame.json"
    manifest.write_text(json.dumps({
        "m": 2, "columns": [{"M": [[1, 0], [0, 1]], "c": [0, 0]},
                            {"M": [[2, 0], [0, 2]], "c": [0, 0]}],
    }))
    bounds = run_json(capsys, "det", "bounds", "--manifest", str(manifest))
    assert "iid_square" not in bounds
    mc = run_json(capsys, "det", "mc", "--manifest", str(manifest), "--samples", "100000")
    assert abs(mc["mean"] - bounds["bounds"]["upper"]) < 4 * mc["std_error"]
    # centered iid columns: the upper bound is the exact mean m! vol G(0)
    iid = run_json(capsys, "det", "bounds", "--m", "3")
    assert "iid_square" not in iid
    exact = math.factorial(3) * gausszonoids.gaussian_volume(3, 0.0)
    assert iid["bounds"]["upper"] == pytest.approx(exact, rel=1e-15, abs=0)


@pytest.mark.parametrize("argv, manifest", [
    (("det", "mc"), {"m": 2, "columns": 5}),
    (("det", "mc"), {"m": [3], "k": 1}),
    (("det", "mc"), {"m": 2, "samples": [5]}),
    (("zonoid", "volume"), {"s": [1, 2], "m": 2}),
    (("binfty",), {"check": "no"}),
    # a switch is JSON true or false: "false" would run the corrupting self-test
    (("det", "check"), {"m": 2, "samples": 1000, "self_test": "false"}),
    (("det", "check"), {"m": 2, "samples": 1000, "self_test": 0}),
    # an integer key refuses a fraction and a boolean, which int() would take
    (("det", "mc"), {"m": 2.7, "samples": 1000}),
    (("det", "mc"), {"m": True, "samples": 1000}),
    (("grf", "mc"), {"taus": [0.1], "samples": 1000.5}),
    # a float key refuses a boolean, which float() would take as 0 or 1
    (("zonoid", "volume"), {"m": 3, "s": True}),
    (("grf", "coarea"), {"taus": [True], "alpha": 0.5}),
    # nor does an entry of a column's mean or matrix
    (("det", "mc"), {"m": 2, "columns": [{"c": [True, False]}, {"c": [0, 1]}]}),
    (("det", "mc"), {"m": 2, "columns": [{"M": [[True, 0], [0, 1]]}, {"c": [0, 1]}]}),
    # a manifest that is not an object, columns that do not fit, a kind that is none
    (("det", "mc"), [1, 2]),
    (("det", "mc"), {"m": 3, "k": 2, "columns": [{"c": [1, 0, 0]}]}),
    (("det", "mc"), {"m": 2, "columns": [{"c": [0, 1], "mean": [0, 1]}]}),
    (("zonoid", "volume"), {"kind": "cube", "m": 3, "s": 1}),
])
def test_manifest_value_of_the_wrong_type_exits_2(capsys, tmp_path, argv, manifest):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(manifest))
    code, out = run(capsys, *argv, "--manifest", str(path))
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv, unread", [
    (("det", "mc", "--m", "2", "--samples", "1000"), ("--self-test",)),
    (("grf", "coarea", "--taus", "0.1"), ("--samples", "5")),
    (("grf", "coarea", "--taus", "0.1"), ("--resolution", "64")),
    (("grf", "coarea", "--taus", "0.1"), ("--seed", "3")),
    (("zonoid", "volume", "--m", "3", "--s", "1"), ("--n", "7")),
    (("grf", "integral", "--taus", "0.1"), ("--seed", "3")),
])
def test_flag_the_action_does_not_read_exits_2(capsys, argv, unread):
    assert run(capsys, *argv)[0] == 0
    code = main([*argv, *unread])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and unread[0] in captured.err


@pytest.mark.parametrize("argv", [
    ("zonoid", "inclusion", "--m", "3"),
    ("grf", "integral", "--taus", ","),
    ("grf", "coarea", "--field", "cos2", "--taus", "0.1"),
    ("zonoid", "profile", "--s", ","),
])
def test_flags_without_a_usable_value_exit_2(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


def test_manifest_rejects_unknown_key(capsys, tmp_path):
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"m": 1, "k": 1, "cheese": 9}))
    code, out = run(capsys, "det", "mc", "--manifest", str(manifest))
    assert code == 2


def test_manifest_rejects_command_mismatch(capsys, tmp_path):
    manifest = tmp_path / "mis.json"
    manifest.write_text(json.dumps({"command": "grf mc", "m": 1, "k": 1}))
    code, out = run(capsys, "det", "mc", "--manifest", str(manifest))
    assert code == 2


def test_manifest_rejects_broken_json(capsys, tmp_path):
    manifest = tmp_path / "broken.json"
    manifest.write_text("{not json")
    code, out = run(capsys, "det", "mc", "--manifest", str(manifest))
    assert code == 2


def test_flag_overrides_manifest(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"m": 1, "alpha": 1.0, "volz0": 4.0}))
    payload = run_json(capsys, "grf", "limit", "--manifest", str(manifest), "--alpha", "2")
    assert payload["alpha"] == 2.0


def test_grf_limit_value(capsys):
    payload = run_json(capsys, "grf", "limit", "--m", "1", "--alpha", "1", "--volz0", "4")
    assert payload["limit"] == pytest.approx(2.730757968548344, rel=1e-12)


def test_grf_sweep_csv_header(capsys):
    code, out = run(capsys, "grf", "coarea", "--taus", "0.1,0.03", "--alpha", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau,r,n_integral,n_coarea,n_mc,se,limit,rel_err"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.1"
    assert first[2] == "" and first[4] == "" and first[5] == ""  # other routes blank
    assert float(first[3]) == pytest.approx(float(first[6]), rel=1e-10)


def test_grf_mc_reruns_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["grf", "mc", "--taus", "0.3", "--r", "0.4", "--samples", "200", "--seed", "9"]
    code, _ = run(capsys, *args, "--out", str(a))
    assert code == 0
    code, _ = run(capsys, *args, "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"tau,r,n_integral,n_coarea,n_mc,se,limit,rel_err\n")


def test_grf_sandwich_passes(capsys):
    code, out = run(capsys, "grf", "sandwich", "--tau", "0.05", "--resolution", "512")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["min_ratio"] == pytest.approx(1.0, abs=1e-10)


def test_grid_resolution_error_exits_2(capsys):
    code, out = run(capsys, "grf", "integral", "--taus", "1e-5", "--r", "1e-4",
                    "--resolution", "64")
    assert code == 2


def test_resolution_past_the_grid_cap_exits_2(capsys):
    # 2^45 cells would not fit in memory; refuse before allocating
    code, out = run(capsys, "grf", "integral", "--taus", "0.1", "--resolution", "35184372088832")
    assert code == 2 and out == ""


def test_integral_sizes_2d_grid(capsys):
    code, out = run(capsys, "grf", "integral", "--field", "sin2-2d", "--taus", "0.05")
    assert code == 0
    n_int = float(out.strip().split("\n")[1].split(",")[2])
    code, out = run(capsys, "grf", "coarea", "--field", "sin2-2d", "--taus", "0.05")
    assert code == 0
    n_coa = float(out.strip().split("\n")[1].split(",")[3])
    assert n_int == pytest.approx(n_coa, rel=1e-3)


def test_integral_2d_tiny_tube_exits_2(capsys):
    # the tube would need 2^19 cells per axis; refuse before allocating
    code, _ = run(capsys, "grf", "integral", "--field", "sin2-2d", "--taus", "1e-4")
    assert code == 2


def test_sandwich_sizes_2d_grid(capsys):
    sw = run_json(capsys, "grf", "sandwich", "--field", "sin2-2d", "--tau", "0.05",
                  "--r", "0.05")
    assert sw["n_points"] == 1024**2
    coarea = run_json(capsys, "grf", "coarea", "--field", "sin2-2d", "--taus", "0.05",
                      "--r", "0.05", "--format", "json")
    assert sw["count"] == pytest.approx(coarea["rows"][0]["n_coarea"], rel=1e-9)


@pytest.mark.parametrize("argv", [
    ("sandwich", "--m", "2", "--tau", "0.05"),
    ("integral", "--field", "sin2-2d", "--m", "1", "--taus", "0.05"),
    ("coarea", "--m", "2", "--taus", "0.05"),
    ("mc", "--m", "2", "--taus", "0.5", "--samples", "10"),
    ("sandwich", "--m", "1", "--tau", "0.05"),
    ("coarea", "--field", "sin2-2d", "--m", "2", "--taus", "0.05"),
])
def test_grf_m_contradicting_the_field_exits_2(capsys, argv):
    # the field fixes the dimension: only grf limit reads --m, even one that agrees
    code = main(["grf", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "does not read --m" in captured.err


@pytest.mark.parametrize("argv, message", [
    # tau^2 is not a normal float below 1.49e-154
    (("coarea", "--taus", "1e-300"), "at least 1.49e-154"),
    (("coarea", "--taus", "1e-160"), "at least 1.49e-154"),
    (("integral", "--taus", "1e-160"), "at least 1.49e-154"),
    (("sandwich", "--tau", "1e-300"), "at least 1.49e-154"),
    # 1.9e8 scan cells
    (("mc", "--taus", "1e-6", "--samples", "10"), "scan cells"),
])
def test_tiny_tau_exits_2(capsys, argv, message):
    code = main(["grf", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and message in captured.err


def test_cli_import_skips_quadrature_modules():
    src = os.path.dirname(os.path.dirname(gausszonoids.__file__))
    code = (
        "import sys, gausszonoids.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.interpolate', "
        "'scipy.optimize') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_unknown_choice_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zonoid", "shrink"])
    assert exc.value.code == 2


def test_out_file_json_ends_with_newline(capsys, tmp_path):
    out_path = tmp_path / "b.json"
    code, _ = run(capsys, "binfty", "--out", str(out_path))
    assert code == 0
    raw = out_path.read_bytes()
    assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
    json.loads(raw)


@pytest.mark.parametrize("argv", [
    ("--s", "0,1,2,3", "--n", "20000"),  # 80000 rows: twenty batches
    ("--s", "1.5", "--n", "9001"),  # one curve: no s column
])
def test_profile_file_is_its_stdout(capsys, tmp_path, argv):
    # the table is written batch by batch; the bytes are those of the rows
    # of boundary_profile, one line each
    code, out = run(capsys, "zonoid", "profile", *argv)
    assert code == 0
    path = tmp_path / "profile.csv"
    assert main(["zonoid", "profile", *argv, "--out", str(path)]) == 0
    assert path.read_text() == out
    svals = [float(v) for v in argv[1].split(",")]
    n = int(argv[3])
    lines = ["s,theta,axial,radial" if len(svals) > 1 else "theta,axial,radial"]
    for s in svals:
        prof = gausszonoids.boundary_profile(gausszonoids.RevolutionBody("gaussian", 2, s), n)
        prefix = [s] if len(svals) > 1 else []
        lines += [",".join(repr(v) for v in prefix + row) for row in prof.tolist()]
    assert out == "\n".join(lines) + "\n"


def _readme_block(lang: str) -> str:
    """The first ``lang`` code block of README's CLI section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    # every documented command runs; --self-test corrupts its bounds and fails
    monkeypatch.chdir(tmp_path)
    (tmp_path / "frame.json").write_text(_readme_block("json"))
    lines = [ln.split("#")[0].strip() for ln in _readme_block("sh").splitlines()]
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("gausszonoids ")]
    assert len(commands) == 14
    for argv in commands:
        code, _ = run(capsys, *argv)
        assert code == (1 if "--self-test" in argv else 0), argv


def test_readme_manifest_key_table():
    # each row of README's key table names exactly its commands' schema keys;
    # "the `X` keys" starts from an earlier row, and "except" removes names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## CLI\n", 1)[1].split("| command | keys |\n", 1)[1].split("\n\n", 1)[0]
    rows = [ln.split("|")[1:3] for ln in table.splitlines() if ln.startswith("| `")]
    documented = {}
    for names, keys in rows:
        words = keys.split("`")[1::2]
        if keys.strip().startswith("the "):
            base, words = set(documented[words[0]]), words[1:]
            keys_of_row = base - set(words) if "except" in keys else base | set(words)
        else:
            keys_of_row = set(words)
        for name in names.split("`")[1::2]:
            documented[name] = keys_of_row
    assert documented == {
        name: set(schema) - {"out", "format"} for name, (schema, _) in COMMANDS.items()
    }


def test_negative_seed_exits_2(capsys):
    code = main(["zonoid", "inclusion", "--m", "3", "--s", "1", "--n", "100", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "seed must be nonnegative" in captured.err


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "b.json"
    code = main(["binfty", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not target.exists()
    assert captured.err.startswith("error: cannot write")


@pytest.mark.parametrize("argv", [
    ("zonoid", "support", "--kind", "limit", "--s", "5"),
    ("zonoid", "volume", "--kind", "limit", "--m", "3", "--s", "5"),
    ("zonoid", "profile", "--kind", "limit", "--s", "1,2"),
])
def test_limit_body_with_an_offset_exits_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "limit body takes no mean offset" in captured.err


def test_zonoid_profile_defaults_per_kind(capsys):
    # without --s: one curve for the limit body, s = 0,1,2,3 for the gaussian
    # and ellipsoid bodies
    code, out = run(capsys, "zonoid", "profile", "--kind", "limit", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,axial,radial" and len(lines) == 4
    code, out = run(capsys, "zonoid", "profile", "--n", "3")
    assert code == 0
    assert out == run(capsys, "zonoid", "profile", "--s", "0,1,2,3", "--n", "3")[1]
    assert {ln.split(",")[0] for ln in out.strip().split("\n")[1:]} == {"0.0", "1.0", "2.0", "3.0"}
    # the normalized body needs s > 0: s = 1,2,3
    code, out = run(capsys, "zonoid", "profile", "--kind", "normalized", "--n", "3")
    assert code == 0
    assert out == run(capsys, "zonoid", "profile", "--kind", "normalized", "--s", "1,2,3",
                      "--n", "3")[1]


@pytest.mark.parametrize("argv, manifest", [
    (("det", "mc"), {"m": 2, "samples": 1000, "chunk": 100}),
    (("zonoid", "inclusion"), {"m": 3, "s": 1, "n": 100, "chunk": 10}),
    (("grf", "mc"), {"taus": [0.3], "samples": 100, "chunk": 10}),
    (("zonoid", "inclusion"), {"m": 3, "s": 1, "n": 100, "slack": 0.1}),
    (("grf", "sandwich"), {"tau": 0.05, "resolution": 512, "slack": 0.1}),
    (("grf", "mc"), {"taus": [0.3], "samples": 100, "spacing": 0.001}),
    (("grf", "coarea"), {"taus": [0.3], "m": 1}),
    (("grf", "sandwich"), {"tau": 0.05, "resolution": 512, "m": 1}),
    (("grf", "coarea"), {"taus": [0.3], "r_coef": 1.0, "r_power": 0.5}),
])
def test_removed_manifest_keys_exit_2(capsys, tmp_path, argv, manifest):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code = main([*argv, "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "unknown manifest key" in captured.err


@pytest.mark.parametrize("action", ["integral", "coarea", "mc"])
def test_sweeps_take_taus_only(capsys, action):
    code = main(["grf", action, "--tau", "0.3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "--tau" in captured.err


def _exit(capsys, argv):
    """Exit code and captured output of one run; a flag that no action of
    the group declares is argparse's usage error, SystemExit(2)."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr()


_TABLES = {"zonoid profile", "grf integral", "grf coarea", "grf mc"}


def test_format_is_in_the_table_schemas_only():
    assert {name for name, (schema, _) in COMMANDS.items() if "format" in schema} == _TABLES


@pytest.mark.parametrize("argv", [
    ("binfty",),
    ("zonoid", "support"),
    ("zonoid", "volume", "--m", "2"),
    ("zonoid", "inclusion", "--m", "2", "--s", "1", "--n", "100"),
    ("det", "mc", "--m", "2", "--samples", "100"),
    ("det", "bounds", "--m", "2"),
    ("det", "check", "--m", "2", "--samples", "100"),
    ("grf", "limit", "--alpha", "1", "--volz0", "1"),
    ("grf", "sandwich", "--tau", "0.05", "--resolution", "512"),
])
def test_format_on_a_command_without_a_table_exits_2(capsys, argv):
    code, captured = _exit(capsys, [*argv, "--format", "csv"])
    assert code == 2 and captured.out == "" and "--format" in captured.err


@pytest.mark.parametrize("action", ["integral", "coarea", "mc"])
@pytest.mark.parametrize("flag", [("--r-coef", "1"), ("--r-power", "0.5")])
def test_tube_rule_flags_are_gone(capsys, action, flag):
    code, captured = _exit(capsys, ["grf", action, "--taus", "0.1", *flag])
    assert code == 2 and captured.out == "" and flag[0] in captured.err


@pytest.mark.parametrize("argv", [
    ("zonoid", "profile", "--s", "1", "--n", "9"),
    ("zonoid", "profile", "--n", "9"),
    ("zonoid", "profile", "--kind", "limit", "--n", "9"),
    ("grf", "integral", "--taus", "0.1,0.03"),
    ("grf", "integral", "--field", "sin2-2d", "--taus", "0.2"),
    ("grf", "coarea", "--taus", "0.1,0.03"),
    ("grf", "mc", "--taus", "0.1", "--samples", "2000"),
])
def test_table_cells_are_plain_floats(capsys, argv):
    # the CSV writer prints repr(v): a numpy scalar would print as np.float64(...)
    code, out = run(capsys, *argv)
    assert code == 0
    header, *rows = out.strip().split("\n")
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        for cell in filter(None, cells):
            assert "np." not in cell
            float(cell)


def test_columns_print_as_their_rows():
    # equal values with other reprs (0.0 and -0.0, 1 and 1.0, two NaN objects)
    # are cells of their own; only one object repeated takes one repr
    nan, one = float("nan"), 1.0
    columns = [
        [0.0, -0.0, 0.0],
        [1, 1.0, True],
        [nan, float("nan"), nan],
        [None, 2.5, None],
        [None, None, None],
        [one, one, one],
        [-0.0, -0.0, -0.0],
    ]
    rows = list(zip(*columns))
    want = "".join(",".join("" if v is None else repr(v) for v in row) + "\n" for row in rows)
    text = "".join(cli._text((("a", "b", "c", "d", "e", "f", "g"), [columns])))
    assert text == "a,b,c,d,e,f,g\n" + want


@pytest.mark.parametrize("argv", [
    ("det", "bounds", "--m", "171", "--k", "1"),
    ("det", "bounds", "--m", "200"),
    ("det", "check", "--m", "171", "--k", "1", "--samples", "1000"),
    ("grf", "limit", "--m", "200", "--alpha", "1", "--volz0", "1"),
])
def test_dimension_whose_factorial_overflows_exits_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "overflows a float (170! is the largest that fits)" in captured.err


@pytest.mark.parametrize("m, k", [("0", None), ("-1", None), ("2", "0")])
def test_frame_without_columns_exits_2(capsys, m, k):
    # the --m/--k/--s frame builds its one vector before it counts columns
    argv = ["det", "mc", "--m", m, "--samples", "1000"] + (["--k", k] if k else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "error:" in captured.err


def _finite_numbers(out):
    """Every number printed, as JSON or CSV, is finite."""
    try:
        stack = [json.loads(out)]
    except json.JSONDecodeError:
        stack = [float(v) for line in out.strip().split("\n")[1:] for v in line.split(",")]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            assert math.isfinite(item), out
        elif isinstance(item, str):
            assert item.lower() not in ("inf", "-inf", "nan"), out


# offsets whose square overflows: every body stays finite and warns of nothing
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("zonoid", "volume", "--m", "1", "--s", "1e155"),
    ("zonoid", "volume", "--m", "2", "--s", "1e155"),
    ("zonoid", "support", "--s", "1e155"),
    ("zonoid", "support", "--kind", "normalized", "--s", "1e155"),
    ("zonoid", "inclusion", "--m", "3", "--s", "1e155"),
    ("zonoid", "profile", "--kind", "ellipsoid", "--s", "1e155", "--n", "8"),
    ("det", "mc", "--m", "2", "--k", "2", "--s", "1e155", "--samples", "2000", "--seed", "1"),
    ("det", "mc", "--m", "10", "--k", "10", "--s", "1e155", "--samples", "2000", "--seed", "1"),
    ("det", "mc", "--m", "3", "--k", "1", "--s", "1e306", "--samples", "1000", "--seed", "1"),
    ("det", "mc", "--m", "1", "--k", "1", "--s", "1.7e308", "--samples", "1000", "--seed", "1"),
    ("det", "bounds", "--m", "2", "--k", "2", "--s", "1e155"),
    ("det", "bounds", "--m", "3", "--k", "2", "--s", "1e155"),
    # the stretched volumes and the ellipsoid's radial coordinate, whose
    # plain products overflow although the results are finite
    ("zonoid", "volume", "--m", "3", "--s", "1.43e308"),
    ("zonoid", "volume", "--m", "2", "--s", "8e307"),
    ("zonoid", "volume", "--m", "1", "--s", "1e308"),
    ("zonoid", "profile", "--kind", "ellipsoid", "--s", "1e308", "--n", "8"),
])
def test_huge_offsets_stay_finite(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    _finite_numbers(out)


# E|det| is about 9.2e308 at m = k = 10, s = 1e306: past the largest float.
# No overflow warning comes first, so -W error exits 2 as well
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("det", "mc", "--m", "10", "--k", "10", "--s", "1e306", "--samples", "1000"),
    ("det", "bounds", "--m", "10", "--k", "10", "--s", "1e306"),
])
def test_determinant_past_the_largest_float_exits_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "exceeds the float range" in captured.err


# from s = 1.43e308 on, axial_stretch(s) (the outer ellipsoid's axis) exceeds
# the largest float; no overflow warning comes first, so -W error exits 2 as well
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("zonoid", "inclusion", "--m", "3", "--s", "1.7e308"),
    ("zonoid", "volume", "--m", "3", "--s", "1.7e308"),
    ("zonoid", "support", "--s", "1.7e308"),
    ("zonoid", "support", "--kind", "normalized", "--s", "1.7e308"),
    ("zonoid", "profile", "--kind", "ellipsoid", "--s", "1.7e308", "--n", "8"),
    # the outer ellipsoid of a determinant's column
    ("det", "bounds", "--m", "2", "--k", "2", "--s", "1.7e308"),
    ("det", "check", "--m", "2", "--k", "1", "--s", "1.7e308"),
    ("det", "bounds", "--m", "3", "--k", "3", "--s", "1.7e308"),
])
def test_offset_past_the_largest_stretch_exits_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "past the largest float" in captured.err


def test_huge_offsets_keep_their_values(capsys):
    # the ellipsoid's pole is at s/2 (axial_stretch(s)/sqrt(2 pi) -> s/2)
    code, out = run(capsys, "zonoid", "profile", "--kind", "ellipsoid", "--s", "1e155", "--n", "8")
    assert code == 0
    first = out.strip().split("\n")[1].split(",")
    assert float(first[1]) == pytest.approx(5e154, rel=1e-15)
    # |det| scales with s exactly, so its standard error does too
    big, small = (
        run_json(capsys, "det", "mc", "--m", "2", "--k", "2", "--s", s, "--samples", "2000",
                 "--seed", "1")
        for s in ("1e155", "1e100")
    )
    assert big["std_error"] / big["mean"] == pytest.approx(
        small["std_error"] / small["mean"], rel=1e-12
    )
    assert big["std_error"] * 1e-55 == pytest.approx(small["std_error"], rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_largest_offsets_keep_their_volumes(capsys):
    # in one dimension both bodies are the segment [-s/2, s/2], up to
    # e^(-s^2/2) (axial_stretch(s)/sqrt(2 pi) -> s/2)
    report = run_json(capsys, "zonoid", "volume", "--m", "1", "--s", "1e308")
    assert report["volume"] == report["bounds"]["upper"] == pytest.approx(1e308, rel=1e-15)
    # lower_sharp is the limit disc's area 2 sqrt(2), stretched by
    # lam = sqrt(pi/2) s and scaled by 1/(2 pi): s/sqrt(pi)
    report = run_json(capsys, "zonoid", "volume", "--m", "2", "--s", "8e307")
    assert report["bounds"]["lower_sharp"] == pytest.approx(8e307 / math.sqrt(math.pi), rel=1e-15)


@pytest.mark.parametrize("m", [1, 3])
def test_one_column_error_survives_rounding(capsys, m):
    # c + xi rounds to c at s = 1e17, but the deviation |c + xi| - s does not:
    # its variance is 1 + O(1/s^2), so the error is 1/sqrt(n)
    report = run_json(capsys, "det", "mc", "--m", str(m), "--k", "1", "--s", "1e17",
                      "--samples", "1000")
    assert report["mean"] == 1e17
    assert report["std_error"] == pytest.approx(1000**-0.5, rel=0.1, abs=0)


def test_one_by_one_frame_keeps_its_numbers(capsys):
    # a 1x1 frame draws z alone from each chunk's stream: the value is frozen
    # at chunks of 2^14 samples
    report = run_json(capsys, "det", "mc", "--m", "1", "--k", "1", "--s", "3",
                      "--samples", "200000", "--seed", "5")
    assert report["mean"] == 3.0026967065869603
    assert report["std_error"] == 0.0022330237443756664
    # E|3 + z| = 3 erf(3/sqrt(2)) + sqrt(2/pi) e^(-9/2)
    exact = 3 * math.erf(3 / math.sqrt(2)) + math.sqrt(2 / math.pi) * math.exp(-4.5)
    assert abs(report["mean"] - exact) <= 4 * report["std_error"]


@pytest.mark.filterwarnings("error")
def test_planar_bracket_is_exact_at_large_offsets(capsys):
    # the planar frame's two outer ellipses coincide, so MV is their area
    # pi * lam, exact at any axis ratio lam
    for s in (1000.0, 1e155):
        report = run_json(capsys, "det", "bounds", "--m", "2", "--k", "2", "--s", repr(s))
        lam = float(gausszonoids.axial_stretch(s))
        assert report["bounds"]["upper"] == pytest.approx(report["coeff"] * math.pi * lam, rel=1e-15)


@pytest.mark.parametrize("m, k, s", [
    (1, 1, "2"), (2, 1, "1"), (2, 2, "1000"), (3, 2, "1e12"), (5, 3, "1"), (10, 4, "0.5"),
])
def test_det_bounds_of_an_offset_frame_draws_nothing(capsys, m, k, s):
    # at (3, 2, 1e12) the outer ellipsoid is too thin to be the matrix of a
    # GaussianVector, so a drawn mixed volume would exit 2
    report = run_json(capsys, "det", "bounds", "--m", str(m), "--k", str(k), "--s", s)
    assert report["mixed_volume"]["n"] == 0 and report["mixed_volume"]["std_error"] == 0.0
