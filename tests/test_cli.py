"""Config parsing, the batch drivers, manifests and the CLI entry point."""

import csv
import json

import numpy as np
import pytest

from semwave import cli
from semwave.fvsource import generate_box_fv, load_fv, save_fv
from semwave.mesh import HexMesh, generate_box_mesh
from semwave.newmark import NewmarkConfig


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_mesh_gen_roundtrip(tmp_path):
    out = tmp_path / "mesh.json"
    code = cli.main([
        "mesh-gen", "--box", "0,1,0,2,0,1", "--div", "2,4,2",
        "--tag", "xmin=inlet", "--out", str(out),
    ])
    assert code == 0
    mesh = HexMesh.load(out)
    assert mesh.num_elements == 16
    assert "inlet" in mesh.tags


def test_config_version_rejected(tmp_path, capsys):
    path = _write_config(tmp_path, {"version": "7"})
    code = cli.main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"


def test_all_problems_reported_at_once(tmp_path, capsys):
    path = _write_config(tmp_path, {"version": "1", "time": {}})
    code = cli.main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    problems = json.loads(capsys.readouterr().err)["problems"]
    joined = " ".join(problems)
    for key in ("rho0", "c0", "mesh", "degree", "dt", "t_final"):
        assert key in joined
    assert len(problems) >= 6


def test_runtime_error_exit_code(tmp_path, capsys):
    """A solver failure mid-run (CG capped at one iteration) exits 1 with its message."""
    cfg = {
        "version": "1", "rho0": 1.0, "c0": 1.0, "degree": 1,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [2, 2, 2]}},
        "time": {"dt": 0.01, "t_final": 0.05, "cg_maxiter": 1, "cg_tol": 1e-14},
        "source": {"type": "monopole", "position": [0.3, 0.4, 0.6], "frequency": 10.0},
    }
    code = cli.main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SolverError" and "CG did not converge" in err["message"]


def test_solve_zero_source_zero_probes(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "version": "1", "rho0": 1.204, "c0": 343.0, "degree": 2,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [2, 2, 2]}},
        "time": {"dt": 1e-4, "t_final": 1e-3},
        "probes": {"mid": [0.5, 0.5, 0.5]},
    }
    code = cli.main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out / "solve_probes.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 1])) == 0.0


def test_solve_unknown_impedance_tag(tmp_path, capsys):
    cfg = {
        "version": "1", "rho0": 1.0, "c0": 1.0, "degree": 1,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [1, 1, 1]}},
        "time": {"dt": 0.01, "t_final": 0.05},
        "impedance": {"lid": 415.0},
    }
    code = cli.main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "lid" in " ".join(json.loads(capsys.readouterr().err)["problems"])


def test_manifest_lists_all_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "version": "1", "rho0": 1.0, "c0": 340.0, "degree": 1,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [2, 2, 2]}},
        "time": {"dt": 1e-4, "t_final": 1e-3},
        "probes": {"a": [0.25, 0.25, 0.25]},
    }
    assert cli.main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "solve_probes.csv" in manifest["outputs"]
    assert len(manifest["outputs"]["solve_probes.csv"]) == 64  # sha256 hex
    assert manifest["config"]["degree"] == 1


def test_solve_manifest_records_metrics(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "version": "1", "rho0": 1.0, "c0": 340.0, "degree": 2,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [2, 1, 1]}},
        "time": {"dt": 1e-4, "t_final": 1e-3},
    }
    assert cli.main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    assert set(metrics) == {"ndof", "nsteps", "setup_wall_s", "march_wall_s"}
    assert (metrics["ndof"], metrics["nsteps"]) == (45, 10)
    assert metrics["setup_wall_s"] > 0 and metrics["march_wall_s"] > 0


def test_monopole_source_loads():
    problems = []

    class _Space:
        ndof = 4

    # point_source_load needs a real space: use the loads builder contract
    # only for the zero-source path here
    loads = cli._build_loads({"source": {"type": "none"}}, _Space(), None, problems)
    assert not problems
    assert np.max(np.abs(loads(7))) == 0.0


def test_projected_source_stride(tmp_path):
    vecs = []
    for i in range(3):
        path = tmp_path / f"v{i}.npy"
        np.save(path, np.full(5, float(i)))
        vecs.append(str(path))
    problems = []
    loads = cli._build_loads(
        {"source": {"type": "projected", "files": vecs, "stride": 4}},
        type("S", (), {"ndof": 5})(), None, problems,
    )
    assert not problems
    # piecewise constant between mappings, clamped at the end
    assert loads(0)[0] == 0.0 and loads(3)[0] == 0.0
    assert loads(4)[0] == 1.0 and loads(7)[0] == 1.0
    assert loads(8)[0] == 2.0 and loads(100)[0] == 2.0


def test_projected_source_wrong_length_is_config_error(tmp_path, capsys):
    files = []
    for i, n in enumerate((27, 10, 28)):
        path = tmp_path / f"load{i}.npy"
        np.save(path, np.zeros(n))
        files.append(str(path))
    cfg = {
        "version": "1", "rho0": 1.0, "c0": 1.0, "degree": 1,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [2, 2, 2]}},
        "time": {"dt": 0.01, "t_final": 0.05},
        "source": {"type": "projected", "files": files + [str(tmp_path / "absent.npy")]},
    }
    code = cli.main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"
    problems = err["problems"]
    assert len(problems) == 3
    assert "load1.npy" in problems[0] and "(10,)" in problems[0] and "(27,)" in problems[0]
    assert "load2.npy" in problems[1] and "(28,)" in problems[1]
    assert "absent.npy" in problems[2] and "does not exist" in problems[2]


_SOLVE_1X1 = {
    "version": "1", "rho0": 1.0, "c0": 1.0, "degree": 1,
    "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [1, 1, 1]}},
    "time": {"dt": 0.01, "t_final": 0.02},
}


def _solve_problems(tmp_path, capsys, **extra):
    """Run `solve` on a one-element cube plus extra config keys; the JSON
    problem list of the expected configuration error."""
    path = _write_config(tmp_path, {**_SOLVE_1X1, **extra})
    code = cli.main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "configuration"
    return err["problems"]


@pytest.mark.parametrize("stride", [0, -1, 1.5, "2", True])
def test_projected_source_bad_stride_is_config_error(tmp_path, capsys, stride):
    files = []
    for i in range(2):
        files.append(str(tmp_path / f"load{i}.npy"))
        np.save(files[-1], np.zeros(8))
    problems = _solve_problems(tmp_path, capsys, source={"type": "projected", "files": files, "stride": stride})
    assert len(problems) == 1
    assert "stride must be a positive integer" in problems[0] and repr(stride) in problems[0]


def test_bad_stride_listed_with_bad_load_files(tmp_path, capsys):
    np.save(tmp_path / "short.npy", np.zeros(3))
    problems = _solve_problems(tmp_path, capsys, source={
        "type": "projected", "files": [str(tmp_path / "short.npy")], "stride": 0})
    assert len(problems) == 2
    assert "stride" in problems[0] and "short.npy" in problems[1]


@pytest.mark.parametrize("initial, expected", [
    ({"type": "gaussian_plane"}, ["missing required key 'axis'", "'center'", "'sigma'"]),
    ({"type": "gaussian_plane", "axis": 5, "center": 0.5, "sigma": 0.1}, ["axis must be 0, 1 or 2, got 5"]),
    ({"type": "gaussian_plane", "axis": 0, "center": "mid", "sigma": 0.0},
     ["center must be a finite number, got 'mid'", "sigma must be positive, got 0.0"]),
    ({"type": "ring"}, ["unknown type 'ring'"]),
    (5, ["must be an object, got 5"]),
])
def test_bad_initial_block_is_config_error(tmp_path, capsys, initial, expected):
    problems = _solve_problems(tmp_path, capsys, initial=initial)
    assert len(problems) == len(expected)
    for problem, text in zip(problems, expected):
        assert problem.startswith("initial") and text in problem


def test_initial_problems_join_source_problems(tmp_path, capsys):
    problems = _solve_problems(tmp_path, capsys, source={"type": "magic"}, initial={"type": "ring"})
    assert problems == ["source: unknown type 'magic'", "initial: unknown type 'ring'"]


@pytest.mark.parametrize("extra, expected", [
    ({"probes": {"p": [0.5]}}, "probe 'p' must be 3 finite numbers, got [0.5]"),
    ({"probes": {"p": [0.5, 0.5]}}, "probe 'p' must be 3 finite numbers, got [0.5, 0.5]"),
    ({"probes": {"p": [0.5, float("nan"), 0.5]}}, "probe 'p' must be 3 finite numbers, got [0.5, nan, 0.5]"),
    ({"probes": {"p": 0.5}}, "probe 'p' must be 3 finite numbers, got 0.5"),
    ({"probes": [[0.5, 0.5, 0.5]]}, "probes: must be an object, got [[0.5, 0.5, 0.5]]"),
    ({"probes": {"p": [1.5, 0.5, 0.5]}}, "probe 'p' at [1.5, 0.5, 0.5] is outside the mesh"),
    ({"source": {"type": "monopole", "position": [0.25], "frequency": 5.0}},
     "source(monopole): position must be 3 finite numbers, got [0.25]"),
    ({"source": {"type": "monopole", "position": [0.5, -0.5, 0.5], "frequency": 5.0}},
     "source(monopole): position at [0.5, -0.5, 0.5] is outside the mesh"),
    ({"source": ["x"]}, "source: must be an object, got ['x']"),
    ({"impedance": {"xmax": -1}}, "impedance: xmax must be a positive finite number, got -1"),
    ({"impedance": {"xmax": "abc"}}, "impedance: xmax must be a positive finite number, got 'abc'"),
    ({"impedance": [415.0]}, "impedance: must be an object, got [415.0]"),
])
def test_bad_point_source_or_impedance_is_config_error(tmp_path, capsys, extra, expected):
    assert _solve_problems(tmp_path, capsys, **extra) == [expected]


@pytest.mark.parametrize("degree", [20, 0, "abc", 2.0, True])
def test_solve_bad_degree_is_config_error(tmp_path, capsys, degree):
    problems = _solve_problems(tmp_path, capsys, degree=degree)
    assert problems == [f"degree must be an integer in [1, 12], got {degree!r}"]


@pytest.mark.parametrize("degree", [20, "abc"])
def test_project_bad_degree_is_config_error(tmp_path, capsys, degree):
    box = [[0, 1], [0, 1], [0, 1]]
    fv_cfg = {"version": "1", "rho0": 1.0, "synthetic": {"box": box, "div": [2, 2, 2], "field": "shear_xy"}}
    fv_out = tmp_path / "fv"
    assert cli.main(["fv-source", "--config", _write_config(tmp_path, fv_cfg, "fv.json"), "--out", str(fv_out)]) == 0
    pr_cfg = {"version": "1", "fv_file": str(fv_out / "fv_source.json"), "degree": degree,
              "mesh": {"generator": {"box": box, "div": [1, 1, 1]}}}
    pr_path = _write_config(tmp_path, pr_cfg, "pr.json")
    code = cli.main(["project", "--config", pr_path, "--out", str(tmp_path / "pr")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["problems"] == [f"degree must be an integer in [1, 12], got {degree!r}"]


@pytest.mark.parametrize("frequency", ["abc", float("inf"), None])
def test_bad_monopole_frequency_is_config_error(tmp_path, capsys, frequency):
    source = {"type": "monopole", "position": [0.5, 0.5, 0.5], "frequency": frequency}
    problems = _solve_problems(tmp_path, capsys, source=source)
    assert problems == [f"source(monopole): frequency must be a finite number, got {frequency!r}"]


@pytest.mark.parametrize("key", ["c0", "rho0"])
@pytest.mark.parametrize("value", ["abc", -1.0, 0, float("inf"), None, True])
def test_solve_bad_c0_or_rho0_is_config_error(tmp_path, capsys, key, value):
    problems = _solve_problems(tmp_path, capsys, **{key: value})
    assert problems == [f"{key} must be a positive finite number, got {value!r}"]


def test_point_problems_listed_together(tmp_path, capsys):
    problems = _solve_problems(
        tmp_path, capsys,
        probes={"in": [0.5, 0.5, 0.5], "short": [0.5, 0.5], "far": [0.5, 0.5, 2.0]},
        source={"type": "monopole", "position": [-1.0, 0.5, 0.5], "frequency": 5.0},
        impedance={"xmax": 0, "zmin": 415.0}, initial={"type": "ring"},
    )
    assert problems == [
        "impedance: xmax must be a positive finite number, got 0",
        "probe 'short' must be 3 finite numbers, got [0.5, 0.5]",
        "probe 'far' at [0.5, 0.5, 2.0] is outside the mesh",
        "source(monopole): position at [-1.0, 0.5, 0.5] is outside the mesh",
        "initial: unknown type 'ring'",
    ]


def test_unknown_source_type():
    problems = []
    out = cli._build_loads({"source": {"type": "magic"}}, type("S", (), {"ndof": 1})(), None, problems)
    assert out is None and problems


def test_mms_report_and_reproducibility(tmp_path):
    cfg = {
        "version": "1",
        "degrees": [1],
        "divisions": [2, 4],
        "time": {"dt": 5e-3, "t_final": 2.5e-2},
    }
    path = _write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["mms", "--config", path, "--out", str(out1), "--seed", "3"]) == 0
    assert cli.main(["mms", "--config", path, "--out", str(out2), "--seed", "3"]) == 0
    rows = list(csv.reader((out1 / "mms_report.csv").open()))
    assert rows[0] == ["degree", "h", "ndof", "E2", "observed_order", "runtime_s"]
    assert len(rows) == 3
    assert float(rows[2][3]) < float(rows[1][3])  # error decreases with h
    # identical config and seed: byte-identical report apart from timings
    strip = lambda r: r[:5]  # noqa: E731
    r1 = [strip(r) for r in csv.reader((out1 / "mms_report.csv").open())]
    r2 = [strip(r) for r in csv.reader((out2 / "mms_report.csv").open())]
    assert r1 == r2
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "mms_report.csv" in manifest["outputs"]


def _mms_problems(tmp_path, capsys, monkeypatch, **extra):
    """Run `mms` with extra config keys and marching stubbed out; the JSON
    problem list of the expected configuration error, raised before any march."""
    marched = []
    monkeypatch.setattr(cli, "mms_single", lambda *args: marched.append(args))
    cfg = {"version": "1", "degrees": [1], "divisions": [2], "time": {"dt": 0.01, "t_final": 0.02}, **extra}
    code = cli.main(["mms", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "configuration" and not marched
    return err["problems"]


@pytest.mark.parametrize("extra, expected", [
    ({"degrees": [1, 20]}, "degrees[1] must be an integer in [1, 12], got 20"),
    ({"degrees": [2.0]}, "degrees[0] must be an integer in [1, 12], got 2.0"),
    ({"degrees": ["2"]}, "degrees[0] must be an integer in [1, 12], got '2'"),
    ({"degrees": []}, "degrees must be a non-empty list, got []"),
    ({"degrees": 2}, "degrees must be a non-empty list, got 2"),
    ({"divisions": [2, 0]}, "divisions[1] must be a positive integer, got 0"),
    ({"divisions": [1.5]}, "divisions[0] must be a positive integer, got 1.5"),
    ({"divisions": [True]}, "divisions[0] must be a positive integer, got True"),
    ({"divisions": "4"}, "divisions must be a non-empty list, got '4'"),
])
def test_mms_bad_degree_or_division_is_config_error(tmp_path, capsys, monkeypatch, extra, expected):
    assert _mms_problems(tmp_path, capsys, monkeypatch, **extra) == [expected]


def test_mms_problems_listed_together(tmp_path, capsys, monkeypatch):
    problems = _mms_problems(tmp_path, capsys, monkeypatch, degrees=[1, 20, 0], divisions=[2, -1], time={"dt": 0.01})
    assert problems == [
        "time: missing required key 't_final'",
        "degrees[1] must be an integer in [1, 12], got 20",
        "degrees[2] must be an integer in [1, 12], got 0",
        "divisions[1] must be a positive integer, got -1",
    ]


def test_mms_load_is_scaled_once_built_load(monkeypatch):
    """The per-step MMS load, sin(pi t) times the load built once, equals
    the volume and Neumann loads rebuilt at t = k dt."""
    from semwave import assembly, manufactured
    from semwave.newmark import run

    captured = []

    def capture(space, ops, loads, cfg, **kw):
        captured.append((space, ops, loads))
        return run(space, ops, loads, cfg, **kw)

    monkeypatch.setattr(cli, "run", capture)
    cfg = NewmarkConfig(dt=0.013, t_final=0.039)
    cli.mms_single(3, 2, cfg)
    space, ops, loads = captured[0]
    for k in (1, 2, 3, 17, 38):
        t = k * cfg.dt
        rebuilt = assembly.volume_load(space, manufactured.forcing, t, mass=ops.mass)
        for tag, n in cli.BOX_NORMALS.items():
            rebuilt += assembly.neumann_load(space, tag, manufactured.neumann(n), t, c0=1.0)
        np.testing.assert_allclose(loads(k), rebuilt, rtol=0, atol=1e-14 * np.abs(rebuilt).max())
    assert np.all(loads(0) == 0.0)


def test_fv_source_synthetic(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "version": "1", "rho0": 2.0,
        "synthetic": {"box": [[0, 1], [0, 1], [0, 1]], "div": [6, 6, 6], "field": "shear_xy"},
    }
    assert cli.main(["fv-source", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    mesh, fields = load_fv(out / "fv_source.json")
    assert mesh.num_cells == 216
    exact = np.stack([mesh.centers[:, 0], mesh.centers[:, 1], np.zeros(216)], axis=1)
    np.testing.assert_allclose(fields[0].values, 2.0 * exact, atol=1e-10)


def test_fv_source_spanwise(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "version": "1", "rho0": 1.0, "spanwise_axis": 2,
        "synthetic": {"box": [[0, 1], [0, 1], [0, 0.2]], "div": [4, 4, 2], "field": "shear_xy"},
    }
    assert cli.main(["fv-source", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    mesh, fields = load_fv(out / "fv_source.json")
    assert mesh.num_cells == 32 and mesh.num_faces == 5 * 4 * 2 + 4 * 5 * 2 + 4 * 4 * 3
    values = fields[0].values.reshape(16, 2, 3)  # the generator numbers cells z fastest
    np.testing.assert_array_equal(values[:, 0], values[:, 1])  # one mean per spanwise column


def test_fv_source_spanwise_then_project(tmp_path):
    """A spanwise-averaged source lives on the FV mesh it came from, so it projects."""
    box = [[0, 1], [0, 1], [0, 0.2]]
    fv_cfg = {"version": "1", "rho0": 1.0, "spanwise_axis": 2,
              "synthetic": {"box": box, "div": [4, 4, 2], "field": "shear_xy"}}
    fv_out, pr_out = tmp_path / "fv", tmp_path / "pr"
    assert cli.main(["fv-source", "--config", _write_config(tmp_path, fv_cfg, "fv.json"), "--out", str(fv_out)]) == 0
    pr_cfg = {"version": "1", "fv_file": str(fv_out / "fv_source.json"), "degree": 1,
              "mesh": {"generator": {"box": box, "div": [2, 2, 1]}}}
    assert cli.main(["project", "--config", _write_config(tmp_path, pr_cfg, "pr.json"), "--out", str(pr_out)]) == 0
    assert np.all(np.isfinite(np.load(pr_out / "load_0000.npy")))


def test_project_facefree_fv_file_is_config_error(tmp_path, capsys):
    fv_path = tmp_path / "cells_only.json"
    fv_path.write_text(json.dumps({"version": "1", "cells": [{"center": [0.5, 0.5, 0.5], "volume": 1.0}],
                                   "faces": [], "fields": []}))
    pr_cfg = {"version": "1", "fv_file": str(fv_path), "degree": 1,
              "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [1, 1, 1]}}}
    assert cli.main(["project", "--config", _write_config(tmp_path, pr_cfg, "pr.json"), "--out", str(tmp_path / "pr")]) == 2
    assert json.loads(capsys.readouterr().err)["problems"] == [f"fv_file {fv_path}: FV mesh has no faces"]


def test_project_fv_face_with_owner_as_neighbor_is_config_error(tmp_path, capsys):
    """Such a face closes any cell; accepted, it gives column sums 33 % off the cell volumes."""
    fv_path = tmp_path / "fv.json"
    save_fv(fv_path, generate_box_fv([[0, 1]] * 3, (2, 2, 2)))
    data = json.loads(fv_path.read_text())
    data["faces"].append({**data["faces"][0], "neighbor": 0})
    fv_path.write_text(json.dumps(data))
    pr_cfg = {"version": "1", "fv_file": str(fv_path), "degree": 1,
              "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [1, 1, 1]}}}
    assert cli.main(["project", "--config", _write_config(tmp_path, pr_cfg, "pr.json"), "--out", str(tmp_path / "pr")]) == 2
    problem = f"fv_file {fv_path}: face 36 neighbor 0 is neither -1 nor another cell"
    assert json.loads(capsys.readouterr().err)["problems"] == [problem]


def test_fv_source_bad_field(tmp_path, capsys):
    cfg = {"version": "1", "rho0": 1.0, "synthetic": {"box": [[0, 1]] * 3, "div": [2, 2, 2], "field": "vortex"}}
    assert cli.main(["fv-source", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "shear_xy" in " ".join(json.loads(capsys.readouterr().err)["problems"])


@pytest.mark.parametrize("rho0", ["abc", -1.0, float("nan"), None])
def test_fv_source_bad_rho0_is_config_error(tmp_path, capsys, rho0):
    cfg = {"version": "1", "rho0": rho0, "synthetic": {"box": [[0, 1]] * 3, "div": [2, 2, 2], "field": "shear_xy"}}
    assert cli.main(["fv-source", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["problems"] == [f"rho0 must be a positive finite number, got {rho0!r}"]


def test_project_pipeline(tmp_path):
    fv_out = tmp_path / "fv"
    fv_cfg = {
        "version": "1", "rho0": 1.0,
        "synthetic": {"box": [[0, 1], [0, 1], [0, 1]], "div": [4, 4, 4], "field": "shear_xy"},
    }
    assert cli.main(["fv-source", "--config", _write_config(tmp_path, fv_cfg, "fv.json"), "--out", str(fv_out)]) == 0

    pr_out = tmp_path / "proj"
    pr_cfg = {
        "version": "1", "fv_file": str(fv_out / "fv_source.json"), "degree": 1,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [2, 2, 2]}},
    }
    assert cli.main(["project", "--config", _write_config(tmp_path, pr_cfg, "pr.json"), "--out", str(pr_out)]) == 0
    report = json.loads((pr_out / "conservation_report.json").read_text())
    assert report["empty_columns"] == 0
    assert report["column_sum_max_rel_error"] < 5e-3
    load = np.load(pr_out / "load_0000.npy")
    assert load.shape == (27,)
    assert np.all(np.isfinite(load))
    for axis in "xyz":
        assert (pr_out / f"projected_0000_{axis}.npy").exists()


def test_curle_driver(tmp_path):
    force_path = tmp_path / "force.csv"
    with open(force_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "fx", "fy", "fz"])
        for k in range(64):
            w.writerow([k * 1e-3, 0.0, 0.0, 1.0])
    out = tmp_path / "out"
    cfg = {
        "version": "1", "c0": 343.0,
        "forces": [{"file": str(force_path)}],
        "observers": {"axial": [0.0, 0.0, 1.0]},
        "psd_segment": 32,
    }
    assert cli.main(["curle", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "curle_axial.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 1], 1.0 / (4.0 * np.pi), atol=1e-12)
    spec_rows = np.loadtxt(out / "curle_axial_psd.csv", delimiter=",", skiprows=1)
    assert spec_rows.shape[1] == 2


def test_curle_missing_force_file(tmp_path, capsys):
    cfg = {
        "version": "1", "c0": 343.0,
        "forces": [{"file": str(tmp_path / "nope.csv")}],
        "observers": {"a": [1.0, 0.0, 0.0]},
    }
    assert cli.main(["curle", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2


def _write_forces(path, times):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "fx", "fy", "fz"])
        for t in times:
            w.writerow([t, 0.0, 0.0, 1.0])
    return str(path)


@pytest.mark.parametrize("c0", ["abc", -343.0, 0, float("inf")])
def test_curle_bad_c0_is_config_error(tmp_path, capsys, c0):
    force = _write_forces(tmp_path / "force.csv", np.arange(10) * 0.01)
    cfg = {"version": "1", "c0": c0, "forces": [{"file": force}], "observers": {"a": [1.0, 0.0, 0.0]}}
    assert cli.main(["curle", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["problems"] == [f"c0 must be a positive finite number, got {c0!r}"]


@pytest.mark.parametrize("case", ["missing", "lengths", "dt"])
def test_curle_force_histories_checked_together(tmp_path, capsys, case):
    """Every bad force history is one problem of one configuration error."""
    base = _write_forces(tmp_path / "base.csv", np.arange(10) * 0.01)
    if case == "missing":
        files = [str(tmp_path / "nope1.csv"), base, str(tmp_path / "nope2.csv")]
        expected = ["nope1.csv", "nope2.csv"]
    elif case == "lengths":
        files = [base, _write_forces(tmp_path / "long.csv", np.arange(12) * 0.01),
                 _write_forces(tmp_path / "one.csv", [0.0])]
        expected = ["long.csv", "one.csv"]
    else:
        files = [base, _write_forces(tmp_path / "coarse.csv", np.arange(10) * 0.02)]
        expected = ["coarse.csv"]
    cfg = {"version": "1", "c0": 343.0, "forces": [{"file": f} for f in files], "observers": {"a": [1.0, 0.0, 0.0]}}
    code = cli.main(["curle", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    problems = json.loads(capsys.readouterr().err)["problems"]
    assert len(problems) == len(expected)
    for name, problem in zip(expected, problems):
        assert name in problem


def test_t_final_not_multiple_of_dt_is_config_error(tmp_path, capsys):
    cfg = {
        "version": "1", "rho0": 1.0, "c0": 1.0, "degree": 1,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [1, 1, 1]}},
        "time": {"dt": 0.002, "t_final": 0.0105},
    }
    code = cli.main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    problems = json.loads(capsys.readouterr().err)["problems"]
    assert len(problems) == 1 and "t_final" in problems[0]


def test_project_projects_each_component_once(tmp_path, monkeypatch):
    """The transferred-mass audit reuses the first snapshot's x projection."""
    from semwave.projection import ProjectionOperator

    fv_cfg = {
        "version": "1", "rho0": 1.0,
        "synthetic": {"box": [[0, 1], [0, 1], [0, 1]], "div": [3, 3, 3], "field": "shear_xy", "times": [0.0, 1.0]},
    }
    assert cli.main(["fv-source", "--config", _write_config(tmp_path, fv_cfg, "fv.json"), "--out", str(tmp_path / "fv")]) == 0
    calls, built = [], []
    project = ProjectionOperator.project
    monkeypatch.setattr(ProjectionOperator, "project", lambda self, q: calls.append(1) or project(self, q))
    build = cli.build_projection
    monkeypatch.setattr(cli, "build_projection", lambda *a, **kw: built.append(build(*a, **kw)) or built[-1])
    pr_cfg = {
        "version": "1", "fv_file": str(tmp_path / "fv" / "fv_source.json"), "degree": 1,
        "mesh": {"generator": {"box": [[0, 1], [0, 1], [0, 1]], "div": [2, 2, 2]}},
    }
    assert cli.main(["project", "--config", _write_config(tmp_path, pr_cfg, "pr.json"), "--out", str(tmp_path / "pr")]) == 0
    assert len(calls) == 2 * 3
    fvmesh, fields = load_fv(tmp_path / "fv" / "fv_source.json")
    expected = built[0].conservation_report(fvmesh, fields[0].values[:, 0])
    assert json.loads((tmp_path / "pr" / "conservation_report.json").read_text()) == expected


def _time_problems(tmp_path, capsys, monkeypatch, command, time, **extra):
    """The problem list of `solve` on a one-element cube, or of `mms` with
    marching stubbed out, whose time block is updated by time."""
    if command == "mms":
        return _mms_problems(tmp_path, capsys, monkeypatch, time={"dt": 0.01, "t_final": 0.02, **time}, **extra)
    return _solve_problems(tmp_path, capsys, time={**_SOLVE_1X1["time"], **time}, **extra)


@pytest.mark.parametrize("command", ["solve", "mms"])
@pytest.mark.parametrize("time, extra, expected", [
    ({"t_final": float("inf")}, {}, "time: t_final must be a positive finite number, got inf"),
    ({"dt": [0.01]}, {}, "time: dt must be a positive finite number, got [0.01]"),
    ({"dt": True}, {}, "time: dt must be a positive finite number, got True"),
    ({"cg_maxiter": 0.5}, {}, "time: cg_maxiter must be a positive integer, got 0.5"),
    ({"beta": "abc"}, {}, "time: beta must be a finite number, got 'abc'"),
    ({}, {"snapshot_stride": -3}, "snapshot_stride must be a non-negative integer, got -3"),
], ids=["t_final-inf", "dt-list", "dt-bool", "cg_maxiter-float", "beta-str", "snapshot_stride-negative"])
def test_bad_time_entry_is_config_error(tmp_path, capsys, monkeypatch, command, time, extra, expected):
    assert _time_problems(tmp_path, capsys, monkeypatch, command, time, **extra) == [expected]


@pytest.mark.parametrize("command", ["solve", "mms"])
def test_time_problems_listed_together(tmp_path, capsys, monkeypatch, command):
    time = {"dt": True, "t_final": float("inf"), "cg_maxiter": 0.5}
    assert _time_problems(tmp_path, capsys, monkeypatch, command, time, snapshot_stride=-3) == [
        "time: dt must be a positive finite number, got True",
        "time: t_final must be a positive finite number, got inf",
        "time: cg_maxiter must be a positive integer, got 0.5",
        "snapshot_stride must be a non-negative integer, got -3",
    ]


def test_time_block_not_an_object_is_config_error(tmp_path, capsys):
    assert _solve_problems(tmp_path, capsys, time=[1]) == ["time: must be an object, got [1]"]


def _mesh_problems(tmp_path, capsys, command, cfg):
    """The problem list of `solve` or `project` on the config cfg, written as JSON."""
    if isinstance(cfg, dict) and command == "project":
        cfg = {"version": "1", "fv_file": str(tmp_path / "fv_source.json"), "degree": 1, "mesh": cfg["mesh"]}
    code = cli.main([command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "configuration"
    return err["problems"]


_GEN = _SOLVE_1X1["mesh"]["generator"]


@pytest.mark.parametrize("command", ["solve", "project"])
@pytest.mark.parametrize("mesh, expected", [
    ([1], "mesh: must be an object, got [1]"),
    ({"generator": [1]}, "mesh.generator: must be an object, got [1]"),
    ({"generator": {**_GEN, "box": [[0, 1]]}},
     "mesh.generator: box must be 3 [lo, hi] pairs of finite numbers, lo < hi, got [[0, 1]]"),
    ({"generator": {**_GEN, "box": [[0, 1], [1, 0], [0, 1]]}},
     "mesh.generator: box must be 3 [lo, hi] pairs of finite numbers, lo < hi, got [[0, 1], [1, 0], [0, 1]]"),
    ({"generator": {**_GEN, "div": [0, 1, 1]}}, "mesh.generator: div must be 3 positive integers, got [0, 1, 1]"),
], ids=["mesh-list", "generator-list", "box-short", "box-reversed", "div-zero"])
def test_bad_mesh_block_is_config_error(tmp_path, capsys, command, mesh, expected):
    assert _mesh_problems(tmp_path, capsys, command, {**_SOLVE_1X1, "mesh": mesh}) == [expected]


@pytest.mark.parametrize("command", ["solve", "project"])
def test_config_not_an_object_is_config_error(tmp_path, capsys, command):
    assert _mesh_problems(tmp_path, capsys, command, [_SOLVE_1X1]) == [
        f"config must be a JSON object, got {[_SOLVE_1X1]!r}"]


def test_newmark_from_config_defaults():
    problems = []
    nm = cli._newmark_from_config({"time": {"dt": 0.1, "t_final": 1.0}}, problems)
    assert isinstance(nm, NewmarkConfig)
    assert nm.beta == 0.25 and nm.gamma == 0.5


def test_gaussian_plane_initial(cube2_space_r2):
    problems = []
    init = cli._initial_from_config(
        {"initial": {"type": "gaussian_plane", "axis": 0, "center": 0.5, "sigma": 0.1}},
        cube2_space_r2, 2.0, problems,
    )
    assert not problems
    rho, vel = init
    peak = np.argmax(rho)
    assert abs(cube2_space_r2.node_coords[peak, 0] - 0.5) < 0.3
    assert np.max(np.abs(vel)) > 0.0


def _stage_problems(tmp_path, capsys, command, cfg):
    """The problem list of `command` on cfg, which must exit 2 with a configuration error."""
    code = cli.main([command, "--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "configuration", err
    return err["problems"]


_FV_SYNTHETIC = {"box": [[0, 1], [0, 1], [0, 1]], "div": [2, 2, 2], "field": "shear_xy"}


def _bad_config(tmp_path, command, change):
    """A config of command that passes every check, then changed by change(cfg, tmp_path)."""
    if command == "solve":
        cfg = json.loads(json.dumps(_SOLVE_1X1))
    elif command == "fv-source":
        cfg = {"version": "1", "rho0": 1.0, "synthetic": dict(_FV_SYNTHETIC)}
    elif command == "project":
        fv_cfg = {"version": "1", "rho0": 1.0, "synthetic": _FV_SYNTHETIC}
        assert cli.main(["fv-source", "--config", _write_config(tmp_path, fv_cfg, "fv.json"),
                         "--out", str(tmp_path / "fv")]) == 0
        cfg = {"version": "1", "fv_file": str(tmp_path / "fv" / "fv_source.json"), "degree": 1,
               "mesh": json.loads(json.dumps(_SOLVE_1X1["mesh"]))}
    else:
        force = _write_forces(tmp_path / "force.csv", np.arange(10) * 0.01)
        cfg = {"version": "1", "c0": 343.0, "forces": [{"file": force}], "observers": {"a": [1.0, 0.0, 0.0]}}
    change(cfg, tmp_path)
    return cfg


def _set(path, value):
    """A change that sets the key at the dotted path to value (a callable value gets tmp_path)."""
    def change(cfg, tmp_path):
        *parents, last = path.split(".")
        for key in parents:
            cfg = cfg[key]
        cfg[last] = value(tmp_path) if callable(value) else value
    return change


_SIDES = "['xmin', 'xmax', 'ymin', 'ymax', 'zmin', 'zmax']"


@pytest.mark.parametrize("command, change, expected", [
    ("project", lambda cfg, tmp_path: cfg.pop("fv_file"), ["config: missing required key 'fv_file'"]),
    ("project", _set("fv_file", lambda tmp_path: "absent.json"),
     ["fv_file must name an existing file, got 'absent.json'"]),
    ("project", _set("points_per_axis", 0), ["points_per_axis must be a positive integer, got 0"]),
    ("project", _set("points_per_axis", "x"), ["points_per_axis must be a positive integer, got 'x'"]),
    ("solve", _set("mesh.generator.tags", ["a"]),
     [f"mesh.generator: tags must map sides of {_SIDES} to tag names, got ['a']"]),
    ("solve", _set("mesh.generator.tags", {"foo": "a"}),
     [f"mesh.generator: tags must map sides of {_SIDES} to tag names, got {{'foo': 'a'}}"]),
    ("solve", _set("mesh", {"file": 5}), ["mesh: file must name an existing file, got 5"]),
    ("solve", _set("mesh", {"file": "absent.json"}), ["mesh: file must name an existing file, got 'absent.json'"]),
    ("fv-source", _set("synthetic", [1]), ["synthetic: must be an object, got [1]"]),
    ("fv-source", _set("synthetic.div", [0, 1, 1]), ["synthetic: div must be 3 positive integers, got [0, 1, 1]"]),
    ("fv-source", _set("synthetic.box", [[1, 0], [0, 1], [0, 1]]),
     ["synthetic: box must be 3 [lo, hi] pairs of finite numbers, lo < hi, got [[1, 0], [0, 1], [0, 1]]"]),
    ("fv-source", _set("synthetic.times", 3), ["synthetic: times must be a non-empty list, got 3"]),
    ("fv-source", _set("synthetic.times", [0.0, "late"]), ["synthetic.times[1] must be a finite number, got 'late'"]),
    ("fv-source", _set("spanwise_axis", 5), ["spanwise_axis must be 0, 1 or 2, got 5"]),
    ("fv-source", _set("fv_file", "absent.json"), ["fv_file must name an existing file, got 'absent.json'"]),
    ("curle", _set("forces", 5), ["forces must be a non-empty list, got 5"]),
    ("curle", _set("forces", [{}]), ["forces[0]: missing required key 'file'"]),
    ("curle", lambda cfg, tmp_path: cfg["forces"].append(7), ["forces[1]: must be an object, got 7"]),
    ("curle", lambda cfg, tmp_path: cfg["forces"][0].update(body_point=[0, 0]),
     ["forces[0]: body_point must be 3 finite numbers, got [0, 0]"]),
    ("curle", _set("observers", [[1, 0, 0]]), ["observers: must be an object, got [[1, 0, 0]]"]),
    ("curle", _set("observers.a", [1, 0]), ["observer 'a' must be 3 finite numbers, got [1, 0]"]),
    ("curle", _set("psd_segment", 0), ["psd_segment must be a positive integer, got 0"]),
    ("curle", _set("psd_segment", 11), ["psd_segment 11 exceeds the 10 samples of the force histories"]),
    ("solve", _set("source", {"type": "projected", "files": "abc"}),
     ["source(projected): files must be a non-empty list, got 'abc'"]),
    ("solve", _set("source", {"type": "monopole"}),
     ["source: missing required key 'position'", "source: missing required key 'frequency'"]),
], ids=[
    "project-no-fv_file", "project-absent-fv_file", "project-points-0", "project-points-str", "solve-tags-list",
    "solve-tags-side", "solve-mesh-file-int", "solve-mesh-file-absent", "fv-synthetic-list", "fv-div-zero",
    "fv-box-reversed", "fv-times-int", "fv-times-entry", "fv-spanwise-axis", "fv-absent-fv_file",
    "curle-forces-int", "curle-force-no-file", "curle-force-not-object", "curle-body-point", "curle-observers-list",
    "curle-observer-short", "curle-psd-0", "curle-psd-long", "solve-files-str", "solve-monopole-empty",
])
def test_bad_key_is_config_error(tmp_path, capsys, monkeypatch, command, change, expected):
    """Each bad key is one exit-2 problem that names it, raised before anything is built."""
    cfg = _bad_config(tmp_path, command, change)
    monkeypatch.chdir(tmp_path)
    assert _stage_problems(tmp_path, capsys, command, cfg) == expected


def test_version_only_mesh_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "version_only.json"
    path.write_text(json.dumps({"version": "1"}))
    problems = _stage_problems(tmp_path, capsys, "solve", {**_SOLVE_1X1, "mesh": {"file": str(path)}})
    assert problems == [f"mesh: file {path}: mesh file missing 'vertices'"]


def test_malformed_fv_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": "1"}))
    problems = _stage_problems(tmp_path, capsys, "fv-source", {"version": "1", "rho0": 1.0, "fv_file": str(bad)})
    assert problems == [f"fv_file {bad}: FV file missing 'cells' array"]


def test_fv_file_checked_once_mesh_and_degree_hold(tmp_path, capsys):
    """project reads its FV file only once the mesh and degree pass, so a bad
    mesh is not joined by a problem about the file."""
    cfg = {"version": "1", "fv_file": "absent.json", "degree": 0, "mesh": _SOLVE_1X1["mesh"]}
    assert _stage_problems(tmp_path, capsys, "project", cfg) == ["degree must be an integer in [1, 12], got 0"]


def test_mesh_gen_unknown_tag_side_is_config_error(tmp_path, capsys):
    code = cli.main(["mesh-gen", "--box", "0,1,0,1,0,1", "--div", "1,1,1", "--tag", "foo=bar",
                     "--out", str(tmp_path / "mesh.json")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and len(err["problems"]) == 1 and "foo" in err["problems"][0]
    assert not (tmp_path / "mesh.json").exists()


@pytest.mark.parametrize("text", [None, "{", "[1, 2"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, text):
    """A config file that is missing or not JSON is one exit-2 problem naming the file."""
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "configuration"
    assert len(err["problems"]) == 1 and err["problems"][0].startswith(f"config file {path}: ")


def test_fv_file_cell_without_center_is_config_error(tmp_path, capsys):
    cfg = _bad_config(tmp_path, "project", lambda cfg, tmp_path: None)
    fv = json.loads(open(cfg["fv_file"]).read())
    del fv["cells"][3]["center"]
    (tmp_path / "fv" / "fv_source.json").write_text(json.dumps(fv))
    assert _stage_problems(tmp_path, capsys, "project", cfg) == [
        f"fv_file {cfg['fv_file']}: FV file entry lacks 'center'"]


def _shorten_centers(fv):
    for cell in fv["cells"]:
        cell["center"] = cell["center"][:2]


def _fractional_owner(fv):
    fv["faces"][3]["owner"] += 0.7  # read as an int, it would be the right owner


def _short_vector_rows(fv):
    for field in fv["fields"]:
        field["values"] = [row[:2] for row in field["values"]]


@pytest.mark.parametrize("change, problem", [
    (_shorten_centers, "cells[0] center must be 3 numbers, got [0.25, 0.25]"),
    (_fractional_owner, "faces[3] owner must be an integer index, got 0.7"),
    (_short_vector_rows, "fields[0] values[0] must be 3 numbers, got [0.25, 0.25]"),
], ids=["center-2-long", "fractional-owner", "vector-rows-2-long"])
def test_misshapen_fv_file_entry_is_config_error(tmp_path, capsys, change, problem):
    """project on an FV file whose entries have the wrong shape or type exits 2
    with one problem naming the entry and key, before anything is projected."""
    cfg = _bad_config(tmp_path, "project", lambda cfg, tmp_path: None)
    fv = json.loads(open(cfg["fv_file"]).read())
    change(fv)
    (tmp_path / "fv" / "fv_source.json").write_text(json.dumps(fv))
    assert _stage_problems(tmp_path, capsys, "project", cfg) == [f"fv_file {cfg['fv_file']}: FV file {problem}"]
    assert not any((tmp_path / "o").glob("*.npy"))


@pytest.mark.parametrize("command", ["fv-source", "project"])
@pytest.mark.parametrize("key", ["cells", "faces", "fields"])
@pytest.mark.parametrize("bad, expected", [
    (1, "{key}[1] is not an object, got int"), ("abc", "'{key}' is not an array, got str"),
])
def test_fv_file_entry_not_an_object_is_config_error(tmp_path, capsys, command, key, bad, expected):
    """An FV file whose cells, faces or fields array is not an array, or holds
    an entry that is not an object, is one problem naming the entry."""
    from semwave.fvsource import FvField, generate_box_fv, save_fv

    fv = generate_box_fv([(0, 1)] * 3, (2, 1, 1))
    path = tmp_path / "fv.json"
    save_fv(path, fv, [FvField(fv, np.ones((2, 3)), time=t) for t in (0.0, 1.0)])
    data = json.loads(path.read_text())
    if bad == 1:
        data[key][1] = bad
    else:
        data[key] = bad
    path.write_text(json.dumps(data))
    cfg = {"version": "1", "fv_file": str(path), "rho0": 1.0, "degree": 1, "mesh": _SOLVE_1X1["mesh"]}
    problems = _stage_problems(tmp_path, capsys, command, cfg)
    assert problems == [f"fv_file {path}: FV file " + expected.format(key=key)]


@pytest.mark.parametrize("points_per_axis", [1, 3])
def test_project_on_sheared_mesh_file_is_conservative(tmp_path, points_per_axis):
    """project on a non-affine sheared slab read from mesh.file, over 5:1 FV
    cells: every cell is sampled, no sample falls outside the mesh and every
    column sums to its cell volume."""
    slab = [[0.0, 1.0], [0.0, 1.0], [0.0, 0.1]]
    box = generate_box_mesh(slab, (4, 4, 2))
    v = box.vertices.copy()
    v[:, 0] += 0.05 * np.sin(np.pi * v[:, 0]) * np.sin(2.0 * np.pi * v[:, 1])
    mesh_path = tmp_path / "sheared.json"
    HexMesh(v, box.elements, box.boundary).save(mesh_path)
    fv_cfg = {"version": "1", "rho0": 1.0, "synthetic": {"box": slab, "div": [4, 4, 2], "field": "shear_xy"}}
    fv_path = _write_config(tmp_path, fv_cfg, "fv.json")
    assert cli.main(["fv-source", "--config", fv_path, "--out", str(tmp_path / "fv")]) == 0
    pr_cfg = {"version": "1", "fv_file": str(tmp_path / "fv" / "fv_source.json"), "degree": 2,
              "mesh": {"file": str(mesh_path)}, "points_per_axis": points_per_axis}
    pr_path = _write_config(tmp_path, pr_cfg, "pr.json")
    assert cli.main(["project", "--config", pr_path, "--out", str(tmp_path / "proj")]) == 0
    report = json.loads((tmp_path / "proj" / "conservation_report.json").read_text())
    assert report["outside_samples"] == report["empty_columns"] == 0
    assert report["column_sum_max_rel_error"] <= 1e-12


@pytest.mark.parametrize("content", [b"not an array", b"", "npz"])
def test_unreadable_projected_load_file_is_config_error(tmp_path, capsys, content):
    """A load file that np.load cannot read as one array is a source(projected) problem."""
    good, bad = tmp_path / "good.npy", tmp_path / "bad.npy"
    np.save(good, np.zeros(8))
    if content == "npz":
        with open(bad, "wb") as fh:
            np.savez(fh, load=np.zeros(8))
    else:
        bad.write_bytes(content)
    problems = _solve_problems(tmp_path, capsys, source={"type": "projected", "files": [str(good), str(bad)]})
    assert len(problems) == 1 and problems[0].startswith(f"source(projected): load file {bad} is not a .npy array")


def test_curle_observer_at_body_point_is_config_error(tmp_path, capsys):
    """An observer on a force's body point is a problem raised before any file is written."""
    cfg = _bad_config(tmp_path, "curle", lambda cfg, tmp_path: None)
    cfg["forces"].append({"file": cfg["forces"][0]["file"], "body_point": [1.0, 0.0, 0.0]})
    cfg["observers"] = {"b": [0.0, 1.0, 0.0], "a": [1, 0, 0], "c": [0.0, 0.0, 0.0]}
    assert _stage_problems(tmp_path, capsys, "curle", cfg) == [
        "observer 'a' coincides with the body_point of forces[1]",
        "observer 'c' coincides with the body_point of forces[0]",
    ]
    assert not list((tmp_path / "o").glob("*.csv"))


def test_check_walks_rows_in_order():
    """One problem per failing or missing key, in row order; '*' covers every
    entry of a list or object; rows under a parent that is absent or not an
    object are skipped; a label names the value."""
    cfg = {"a": {"x": 1, "y": "s"}, "b": [1, -2, 3.5], "c": 5, "d": {"p": [1, 2, 3], "q": [1]}}
    rows = [
        ("a", "object", True), ("a.x", "count", True), ("a.y", "finite", True), ("a.z", "finite", True),
        ("b.*", "count", False), ("c", "object", True), ("c.k", "finite", True), ("e.k", "finite", True),
        ("d.*", "vec3", False, "point {key!r}"),
    ]
    problems = ["earlier"]
    assert not cli.check(cfg, rows, problems)
    assert problems == [
        "earlier",
        "a: y must be a finite number, got 's'",
        "a: missing required key 'z'",
        "b[1] must be a positive integer, got -2",
        "b[2] must be a positive integer, got 3.5",
        "c: must be an object, got 5",
        "point 'q' must be 3 finite numbers, got [1]",
    ]
    assert cli.check(cfg, rows[:2], problems) and len(problems) == 7
