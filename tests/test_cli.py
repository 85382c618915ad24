import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

from planarinv.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(args):
    return main(args)


def test_analyze_even_shear(tmp_path, capsys):
    out = tmp_path / "a2.json"
    assert run(["analyze", "gallery:A2:1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["map_source"] == "gallery:A2:1"
    assert report["involution"]["passed"] is True
    assert "Theorem A(c)" in report["theorem_verdict"]
    assert report["injectivity"]["status"] == "NoCollisionFound"
    assert report["spectrum_shift_deviation"] == 0.0
    assert report["foliation_kind"] == "radial"
    assert report["orientation"]["kind"] == "preserving"


def test_analyze_identity_expression(tmp_path):
    out = tmp_path / "id.json"
    assert run(["analyze", "(x, y)", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "Theorem A(a)" in report["theorem_verdict"]
    assert report["foliation_kind"] is None
    assert "recentered_at" not in report  # the map fixes the origin


def test_analyze_rotation_blend_pairs_failed_hypothesis_with_collision(tmp_path):
    out = tmp_path / "c.json"
    assert run(["analyze", "gallery:C", "--window", "0,6,0,6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # the failed hypothesis and the demonstrated non-injectivity co-occur
    assert "no hypothesis verified" in report["theorem_verdict"]
    assert report["injectivity"]["status"] == "Collision"
    assert report["injectivity"]["witness_pair"] is not None


def test_analyze_non_involution_reports_and_exits_zero(tmp_path):
    out = tmp_path / "shift.json"
    assert run(["analyze", "(x + 1, y)", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["involution"]["passed"] is False
    assert "not an involution" in report["theorem_verdict"]


def test_analyze_lists_the_same_keys_whether_or_not_the_map_is_an_involution(tmp_path):
    keys = []
    for spec in ("(x + 1, y)", "gallery:A1"):
        out = tmp_path / "report.json"
        assert run(["analyze", spec, "--grid", "9", "--scan", "21", "--out", str(out)]) == 0
        keys.append(list(json.loads(out.read_text())))
    assert keys[0] == keys[1]
    assert "base_point" not in keys[0]


def test_analyze_tags_a_failed_write_of_a_non_involution_report(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run(["analyze", "(x + 1, y)", "--grid", "9", "--scan", "21", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("analyze: [write] ")


def test_analyze_rejects_bad_flags(capsys):
    assert run(["analyze", "(x - , y)"]) == 1
    assert "analyze:" in capsys.readouterr().err
    assert run(["analyze", "gallery:nope"]) == 1
    assert run(["analyze", "(x, y)", "--window", "1,2,3"]) == 1


@pytest.mark.parametrize("command", ["analyze", "foliate"])
def test_a_missing_map_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run([command])
    assert excinfo.value.code == 2
    assert "map_spec" in capsys.readouterr().err


def test_eps_is_not_an_option(capsys):
    # Theorem A(b) on a window needs no eps: it asks that 1 is never an
    # eigenvalue, and the report gives the largest eps that works
    with pytest.raises(SystemExit) as excinfo:
        run(["analyze", "gallery:B", "--eps", "0.1"])
    assert excinfo.value.code == 2
    assert "--eps" in capsys.readouterr().err


def test_analyze_flags_are_grid_tol_and_scan(tmp_path):
    out = tmp_path / "b.json"
    assert run(["analyze", "gallery:B", "--grid", "5", "--scan", "11", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["flags"] == {"grid": 5, "tol": 1e-9, "scan": 11}


def test_analyze_jordan_block_family_gets_real_spectrum(tmp_path):
    # Dphi is a Jordan block at -1 everywhere: its rounded eigenvalues are
    # -1 +- 1e-8 i, so the spectrum is real only as read from trace and det
    out = tmp_path / "jordan.json"
    expr = "(-x + 0.3*((x+y)/2)^2, -y - 0.3*((x+y)/2)^2)"
    assert run(["analyze", expr, "--grid", "15", "--scan", "21", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["theorem_verdict"].startswith("Theorem A(c)")
    assert report["spectrum_shift_deviation"] <= 1e-12


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_analyze_and_foliate_reject_a_tol_that_is_not_positive_and_finite(
        tol, tmp_path, capsys):
    # a NaN tol was written to the report as NaN, which is not JSON
    assert run(["analyze", "gallery:B", "--tol", tol, "--out", str(tmp_path / "b.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"analyze: [setup] bad --tol {float(tol)!r}: " \
        "expected a finite number > 0\n"
    assert not (tmp_path / "b.json").exists()
    assert run(["foliate", "gallery:B", "--tol", tol, "--csv", str(tmp_path / "b.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("foliate: [setup] bad --tol")
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf"])
def test_foliate_rejects_a_step_that_is_not_positive_and_finite(step, tmp_path, capsys):
    # a zero step wrote 840,022 rows of repeated points and still said verified
    assert run(["foliate", "gallery:B", "--step", step, "--csv", str(tmp_path / "b.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"foliate: [setup] bad --step {float(step)!r}: " \
        "expected a finite number > 0\n"
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("leaves", ["0", "-3"])
def test_foliate_rejects_fewer_than_one_leaf(leaves, tmp_path, capsys):
    assert run(["foliate", "gallery:B", "--leaves", leaves,
                "--csv", str(tmp_path / "b.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"foliate: [setup] bad --leaves {int(leaves)!r}: expected at least 1\n"
    assert not (tmp_path / "b.csv").exists()


def test_foliate_accepts_one_leaf(tmp_path, capsys):
    assert run(["foliate", "gallery:B", "--leaves", "1", "--csv", str(tmp_path / "b.csv")]) == 0
    assert "leaves traced: 1 (0 truncated)" in capsys.readouterr().out


@pytest.mark.parametrize("scan", ["1", "0", "-3"])
def test_analyze_rejects_a_scan_under_two_at_setup(scan, capsys):
    assert run(["analyze", "gallery:A1", "--scan", scan]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"analyze: [setup] bad --scan {int(scan)!r}: expected at least 2\n"


def test_analyze_recenters_a_map_that_fixes_another_point(tmp_path):
    out = tmp_path / "shifted.json"
    assert run(["analyze", "(-x + 2, -y)", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["map_source"] == "(-x + 2, -y)"
    assert report["recentered_at"] == [1.0, 0.0]
    assert report["theorem_verdict"].startswith("Theorem A(c)")
    assert report["injectivity"]["status"] == "NoCollisionFound"
    # in the recentered coordinates the one fixed point is the origin
    assert [p["location"] for p in report["fixed_points"]["points"]] == [[0.0, 0.0]]


def test_analyze_recenters_at_a_fixed_point_far_from_the_window(tmp_path):
    # one Newton step from the origin lands on (1e10, 0), however far that is
    out = tmp_path / "far.json"
    assert run(["analyze", "(-x + 2e10, -y)", "--grid", "9", "--scan", "21",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["recentered_at"] == [1e10, 0.0]
    assert report["theorem_verdict"].startswith("Theorem A(c)")


def test_analyze_takes_any_fixed_point_as_the_base(tmp_path):
    # (1, 0) is no FixMinus point: the map reverses orientation
    out = tmp_path / "flip.json"
    assert run(["analyze", "(2 - x, y)", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["recentered_at"] == [1.0, 0.0]
    assert report["theorem_verdict"].startswith("Theorem B")
    assert report["foliation_kind"] == "vertical"


def test_foliate_recenters_a_map_that_fixes_another_point(tmp_path, capsys):
    path = tmp_path / "shifted.csv"
    svg = tmp_path / "shifted.svg"
    assert run(["foliate", "(-x + 2, -y)", "--csv", str(path), "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "recentered at: (1, 0)"
    assert "foliation of (-x + 2, -y), recentered at (1, 0)" in svg.read_text()
    assert "foliation kind: radial" in out
    assert "certificate: verified (Theorem A(c)" in out
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len({r[0] for r in rows[1:]}) == 24


@pytest.mark.parametrize("spec, line", [
    ("gallery:A2:0", "recentered at: (0.5, 0)"),
    ("gallery:A2:1", None),  # fixes the origin: the output is as before
])
def test_foliate_says_where_a_gallery_map_was_recentered(spec, line, tmp_path, capsys):
    svg = tmp_path / "a2.svg"
    assert run(["foliate", spec, "--csv", str(tmp_path / "a2.csv"), "--svg", str(svg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    recentered = [text for text in lines if text.startswith("recentered at")]
    assert recentered == ([] if line is None else [line])
    assert lines[-5].startswith("foliation kind:")
    assert ("recentered at" in svg.read_text()) == (line is not None)


def test_analyze_accepts_negative_window_bounds(tmp_path):
    out = tmp_path / "neg.json"
    assert run(["analyze", "(x + 2*y^3, -y)", "--window", "-3,3,-3,3",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["window"]["x_min"] == -3.0
    assert "Theorem B" in report["theorem_verdict"]


def test_reports_are_deterministic_apart_from_timings(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        assert run(["analyze", "gallery:B", "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    for r in outs:
        r.pop("timings_ms")
    assert json.dumps(outs[0]) == json.dumps(outs[1])


def test_foliate_writes_csv_and_svg(tmp_path):
    svg = tmp_path / "a1.svg"
    out_csv = tmp_path / "a1.csv"
    assert run(["foliate", "gallery:A1:1", "--svg", str(svg), "--csv", str(out_csv)]) == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert text.count("<polyline") >= 20
    assert "viewBox=\"-5 -5 10 10\"" in text

    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["leaf_id", "leaf_parameter", "point_index", "x", "y", "residual"]
    assert len({r[0] for r in rows[1:]}) == 21
    assert all(float(r[5]) <= 1e-6 for r in rows[1:])


def test_foliate_radial_leaf_count(tmp_path, capsys):
    svg = tmp_path / "a2.svg"
    assert run(["foliate", "gallery:A2:1", "--svg", str(svg)]) == 0
    assert "radial" in capsys.readouterr().out
    assert svg.read_text().count("<polyline") == 24


def test_foliate_uncertified_needs_force(tmp_path, capsys):
    svg = tmp_path / "c.svg"
    assert run(["foliate", "gallery:C", "--svg", str(svg)]) == 1
    assert "--force" in capsys.readouterr().err
    assert run(["foliate", "gallery:C", "--svg", str(svg), "--force"]) == 0
    assert "UNCERTIFIED" in capsys.readouterr().out
    assert svg.exists()


def test_foliate_requires_an_output(capsys):
    assert run(["foliate", "gallery:A1:1"]) == 2


def test_gallery_list(capsys):
    assert run(["gallery", "list"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 9
    assert any(line.startswith("A1") for line in lines)


def test_gallery_show(capsys):
    assert run(["gallery", "show", "A3"]) == 0
    out = capsys.readouterr().out
    assert "(-y - ((x+y)/2)^3" in out
    assert "Theorem B" in out


def test_gallery_show_unknown(capsys):
    assert run(["gallery", "show", "D"]) == 1
    assert "unknown gallery entry" in capsys.readouterr().err


def test_analyze_non_finite_samples_fail_in_verify(capsys):
    # every sample is NaN (0 * inf); the involution check used to pass on them
    assert run(["analyze", "(x + 0*y^999, -y)", "--window", "3,5,3,5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analyze: [verify] non-finite map value")


def test_foliate_finds_fixed_points_only_for_the_svg(tmp_path, monkeypatch):
    from planarinv import cli

    calls = []
    original = cli.find_fixed_points

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "find_fixed_points", counting)
    both_csv = tmp_path / "both.csv"
    only_csv = tmp_path / "only.csv"
    assert run(["foliate", "gallery:A1:1", "--csv", str(both_csv),
                "--svg", str(tmp_path / "a1.svg")]) == 0
    assert len(calls) == 1
    assert run(["foliate", "gallery:A1:1", "--csv", str(only_csv)]) == 0
    assert len(calls) == 1
    assert only_csv.read_bytes() == both_csv.read_bytes()


@pytest.mark.parametrize("bound", range(4))
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_analyze_and_foliate_reject_an_infinite_window_bound(bound, value, tmp_path, capsys):
    # an infinite bound made every node coordinate NaN, blamed on the map in
    # [verify]; finiteness is tested before order, so a NaN or an infinite
    # bound on the wrong side is not reported as misordered
    bounds = ["-5", "5", "-5", "5"]
    bounds[bound] = value
    window = ",".join(bounds)
    message = "window bounds must be finite"
    assert run(["analyze", "gallery:B", "--window", window, "--scan", "21"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"analyze: [setup] {message}\n"
    csv_path = tmp_path / "b.csv"
    assert run(["foliate", "gallery:B", "--window", window, "--csv", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"foliate: [setup] {message}\n"
    assert not csv_path.exists()


def test_analyze_compiles_no_point_kernel_of_h(monkeypatch, tmp_path, capsys):
    # the scan runs h on the grid kernel; h's point kernels are compiled only
    # when a standard map first evaluates a point, as foliate's march does
    from planarinv import expr

    calls = []
    original = expr.compile_standard

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(expr, "compile_standard", counting)
    assert run(["analyze", "gallery:B", "--out", str(tmp_path / "b.json")]) == 0
    assert calls == []
    assert run(["foliate", "gallery:B", "--csv", str(tmp_path / "b.csv")]) == 0
    assert len(calls) == 1


def test_analyze_a_window_whose_scan_cells_overflow_fails_in_injectivity(tmp_path, capsys):
    # h = (x, y) near x = 1e303: image / 1e-6 overflows, so no scan cell exists
    args = ["analyze", "(x, -y)", "--grid", "5", "--scan", "11"]
    assert run(args + ["--window", "1e303,1.5e303,-1,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analyze: [injectivity] ")
    assert "no scan cell of side 1e-06" in err
    assert "Traceback" not in err
    assert run(args + ["--window", "1e300,1.5e300,-1,1", "--out", str(tmp_path / "r.json")]) == 0


def test_analyze_names_a_finite_image_where_p_plus_the_image_overflows(capsys):
    # h is the identity and stays finite on this window; the scan cell of
    # its image still overflows, so the run fails in injectivity
    args = ["analyze", "(-x, -y)", "--window", "1.3e308,1.7e308,1.3e308,1.7e308",
            "--grid", "3", "--scan", "5"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("analyze: [injectivity] the image (1.3e+308, 1.3e+308) of node")
    assert "(inf, inf)" not in err


@pytest.mark.parametrize("spec, passed", [
    ("(" + " + ".join(["x"] * 600) + ", y)", False),
    ("(" + " + ".join(["x"] * 2000) + ", y)", False),
    ("(" + "-" * 600 + "x, y)", True),
    ("(" + "(" * 200 + "x" + ")" * 200 + ", y)", True),
], ids=["sum", "sum-2000", "minus", "parentheses"])
def test_analyze_accepts_an_expression_nested_deeply(spec, passed, tmp_path, capsys):
    # each is deeper than a recursive parser or compiler could go from here
    out = tmp_path / "deep.json"
    assert run(["analyze", spec, "--grid", "5", "--scan", "11", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["involution"]["passed"] is passed


def _run_process(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "planarinv.cli"] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _recentered_sum(terms):
    # fixes (1, 0), not the origin: recentering nests the trees two levels deeper
    return "(-x + 2 + 0*(" + " + ".join(["x"] * terms) + "), -y)"


_CHEAP = {"analyze": ["--grid", "5", "--scan", "11"],
          "foliate": ["--grid", "5", "--leaves", "1", "--csv", "leaves.csv"]}


@pytest.mark.parametrize("command", ["analyze", "foliate"])
def test_a_2000_term_recentered_sum_runs(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run([command, _recentered_sum(2000)] + _CHEAP[command]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "recentered" in captured.out


@pytest.mark.parametrize("command", ["analyze", "foliate"])
def test_a_recentered_map_just_under_the_nesting_limit_runs(command, tmp_path):
    # 480 terms sat just under the limit a recursive compiler once had; in a
    # fresh process, as from the shell, since pytest deepens the stack
    proc = _run_process([command, _recentered_sum(480)] + _CHEAP[command], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "recentered" in proc.stdout


def _at_depth(frames, call):
    return call() if frames == 0 else _at_depth(frames - 1, call)


def test_an_outcome_does_not_depend_on_the_stack_under_main(tmp_path, capsys):
    # 450 terms is near the depth a recursive compiler could reach under pytest
    out = tmp_path / "r.json"
    argv = ["analyze", _recentered_sum(450)] + _CHEAP["analyze"] + ["--out", str(out)]
    outcomes = []
    for frames in (0, 300):
        out.unlink(missing_ok=True)
        status = _at_depth(frames, lambda: run(argv))
        report = json.loads(out.read_text()) if out.exists() else None
        if report is not None:
            del report["timings_ms"]
        outcomes.append((status, capsys.readouterr().err, report))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][2]["recentered_at"] == [1.0, 0.0]


@pytest.mark.parametrize("spec, window, extra, verdict", [
    ("(x, -y)", "0,1e-4,0,1e-4", [], "Theorem B"),
    ("(x, y)", "0,1e-7,0,1e-7", ["--grid", "5", "--scan", "11"], "Theorem A(a)"),
], ids=["flip-y", "identity"])
def test_analyze_finds_no_collision_for_an_injective_map_on_a_tiny_window(
        spec, window, extra, verdict, tmp_path):
    # the collision tolerance shrinks with the window, so that neighbouring
    # scan nodes closer than 1e-6 are not taken for a collision
    out = tmp_path / "tiny.json"
    assert run(["analyze", spec, "--window", window, "--out", str(out)] + extra) == 0
    report = json.loads(out.read_text())
    assert verdict in report["theorem_verdict"]
    diameter = float(window.split(",")[1]) * 2 ** 0.5
    assert report["injectivity"]["collision_tol"] == pytest.approx(1e-6 * diameter)
    assert report["injectivity"]["status"] == "NoCollisionFound"


def test_analyze_still_finds_the_collision_of_a_map_constant_on_a_small_window(tmp_path):
    # gallery C's h is constant on this window, so any two nodes collide
    out = tmp_path / "c.json"
    window = "-3.1,-2.9,-3.1,-2.9"
    assert run(["analyze", "gallery:C", f"--window={window}", "--out", str(out)]) == 0
    injectivity = json.loads(out.read_text())["injectivity"]
    assert injectivity["collision_tol"] == pytest.approx(1e-6 * 0.2 * 2 ** 0.5)
    assert injectivity["status"] == "Collision"
