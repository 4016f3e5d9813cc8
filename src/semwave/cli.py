"""Batch front end: `semwave <subcommand> --config file.json --out dir`.

Subcommands: mms, solve, project, fv-source, curle, mesh-gen.  Every run
writes a manifest (config echo plus SHA-256 of each output file); a solve
manifest also holds a ``metrics`` block (ndof, nsteps, set-up and march
wall times).  All
physical constants must be explicit in the config; there are no hidden
defaults for rho0, c0 or Z.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import manufactured
from .assembly import assemble_operators, neumann_load, point_source_load, volume_load
from .curle import CurleError, ForceHistory, curle_pressure, psd
from .fvsource import generate_box_fv, lighthill_divergence, load_fv, sample_velocity, save_fv, spanwise_average
from .gll import MAX_DEGREE
from .mesh import HexMesh, generate_box_mesh
from .newmark import NewmarkConfig, run, write_probe_csv
from .projection import aeroacoustic_load, build_projection
from .space import SpectralField, build_space, interpolate, l2_error

CONFIG_VERSION = "1"


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _require(cfg: dict, keys, problems, where="config"):
    for key in keys:
        if key not in cfg:
            problems.append(f"{where}: missing required key {key!r}")


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError([f"config must be a JSON object, got {cfg!r}"])
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError([f"unsupported config version {cfg.get('version')!r}"])
    return cfg


def _mesh_from_config(spec: dict, problems) -> HexMesh | None:
    if not isinstance(spec, dict):
        problems.append(f"mesh: must be an object, got {spec!r}")
        return None
    if "file" in spec:
        path = Path(spec["file"])
        if not path.exists():
            problems.append(f"mesh file {path} does not exist")
            return None
        return HexMesh.load(path)
    gen = spec.get("generator")
    if gen is None:
        problems.append("mesh: need either 'file' or 'generator'")
        return None
    if not isinstance(gen, dict):
        problems.append(f"mesh.generator: must be an object, got {gen!r}")
        return None
    missing = [k for k in ("box", "div") if k not in gen]
    if missing:
        problems.append(f"mesh.generator: missing {missing}")
        return None
    box, div, before = gen["box"], gen["div"], len(problems)
    if not (isinstance(box, list) and len(box) == 3 and all(
            isinstance(b, list) and len(b) == 2 and all(type(v) in (int, float) and np.isfinite(v) for v in b)
            and b[0] < b[1] for b in box)):
        problems.append(f"mesh.generator: box must be 3 [lo, hi] pairs of finite numbers, lo < hi, got {box!r}")
    if not (isinstance(div, list) and len(div) == 3 and all(type(n) is int and n >= 1 for n in div)):
        problems.append(f"mesh.generator: div must be 3 positive integers, got {div!r}")
    return None if len(problems) > before else generate_box_mesh(box, div, gen.get("tags"))


def _degree_ok(r, where: str, problems) -> bool:
    """Whether r is an integer in the GLL range; else one problem."""
    if type(r) is int and 1 <= r <= MAX_DEGREE:
        return True
    problems.append(f"{where} must be an integer in [1, {MAX_DEGREE}], got {r!r}")
    return False


def _degree_from_config(cfg: dict, problems) -> int | None:
    """cfg["degree"] when it is an integer in the GLL range, else one problem."""
    r = cfg.get("degree")
    return r if _degree_ok(r, "degree", problems) else None


def _positive(value, where: str, problems) -> float | None:
    """value as a float when it is a positive finite number, else one problem."""
    if type(value) in (int, float) and 0 < value < np.inf:
        return float(value)
    problems.append(f"{where} must be a positive finite number, got {value!r}")
    return None


def _finite(value, where: str, problems) -> float | None:
    """value as a float when it is a finite number, else one problem."""
    if type(value) in (int, float) and np.isfinite(value):
        return float(value)
    problems.append(f"{where} must be a finite number, got {value!r}")
    return None


def _count(value, where: str, problems, least: int = 1) -> int | None:
    """value when it is an integer >= least, 1 (positive) or 0 (non-negative), else one problem."""
    if type(value) is int and value >= least:
        return value
    problems.append(f"{where} must be a {'positive' if least else 'non-negative'} integer, got {value!r}")
    return None


def _newmark_from_config(cfg: dict, problems) -> NewmarkConfig | None:
    """The march of cfg's time block and snapshot_stride; each bad entry is one
    problem, and a missing time block is left to the caller's _require."""
    if "time" not in cfg:
        return None
    tc, before = cfg["time"], len(problems)
    if not isinstance(tc, dict):
        problems.append(f"time: must be an object, got {tc!r}")
        return None
    _require(tc, ("dt", "t_final"), problems, "time")
    kw = {k: _positive(tc[k], f"time: {k}", problems) for k in ("dt", "t_final", "cg_tol") if k in tc}
    kw.update({k: _finite(tc[k], f"time: {k}", problems) for k in ("beta", "gamma") if k in tc})
    if "cg_maxiter" in tc:
        kw["cg_maxiter"] = _count(tc["cg_maxiter"], "time: cg_maxiter", problems)
    kw["snapshot_stride"] = _count(cfg.get("snapshot_stride", 0), "snapshot_stride", problems, least=0)
    if len(problems) > before:
        return None
    try:
        return NewmarkConfig(**kw, probes=cfg.get("probes", {}))
    except ValueError as exc:
        problems.append(f"time: {exc}")
        return None


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, cfg: dict, outputs: list[Path], seed=None, metrics: dict | None = None):
    manifest = {
        "config": cfg,
        "seed": seed,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    if metrics:
        manifest["metrics"] = metrics
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


# -- mms ------------------------------------------------------------------

BOX_NORMALS = {
    "xmin": (-1, 0, 0), "xmax": (1, 0, 0),
    "ymin": (0, -1, 0), "ymax": (0, 1, 0),
    "zmin": (0, 0, -1), "zmax": (0, 0, 1),
}


def mms_single(divisions: int, degree: int, cfg: NewmarkConfig, points: int | None = None) -> tuple[float, int]:
    """One manufactured-solution run on the unit cube with c0 = 1.

    Returns (E2 error at the final time, ndof)."""
    mesh = generate_box_mesh([(0, 1), (0, 1), (0, 1)], (divisions,) * 3)
    space = build_space(mesh, degree)
    ops = assemble_operators(space, c0=1.0, rho0=1.0)
    load = volume_load(space, manufactured.forcing, 0.5, mass=ops.mass)
    for tag, n in BOX_NORMALS.items():
        load += neumann_load(space, tag, manufactured.neumann(n), 0.5, c0=1.0)

    def loads(k):
        # forcing and Neumann data are sin(pi t) F(x), and load is F's: built at t = 1/2, where sin = 1 exactly
        return np.sin(np.pi * k * cfg.dt) * load

    rho0 = np.zeros(space.ndof)
    # the manufactured solution starts at u=0 but with nonzero velocity
    v0 = interpolate(space, lambda x, y, z: np.pi * manufactured.spatial(x, y, z)).coeffs
    result = run(space, ops, loads, cfg, initial=(rho0, v0))
    t_final = result.times[-1]
    err = l2_error(
        space,
        SpectralField(space, result.final.rho),
        lambda x, y, z: manufactured.exact(x, y, z, t_final),
        points=points,
    )
    return err, space.ndof


def run_mms(cfg: dict, out_dir: Path) -> Path:
    problems = []
    _require(cfg, ("degrees", "divisions", "time"), problems)
    nm = _newmark_from_config(cfg, problems)
    # every entry is checked before the first march
    for key in (k for k in ("degrees", "divisions") if k in cfg):
        entries = cfg[key]
        if not isinstance(entries, list) or not entries:
            problems.append(f"{key} must be a non-empty list, got {entries!r}")
            continue
        for i, v in enumerate(entries):
            if key == "degrees":
                _degree_ok(v, f"degrees[{i}]", problems)
            else:
                _count(v, f"divisions[{i}]", problems)
    if problems:
        raise ConfigError(problems)

    rows = []
    for r in cfg["degrees"]:
        prev_err = None
        for n in cfg["divisions"]:
            t0 = _time.perf_counter()
            err, ndof = mms_single(n, r, nm)
            elapsed = _time.perf_counter() - t0
            h = 1.0 / n
            order = np.nan if prev_err is None else float(np.log2(prev_err / err))
            rows.append((r, h, ndof, err, order, elapsed))
            prev_err = err
    report = out_dir / "mms_report.csv"
    with open(report, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["degree", "h", "ndof", "E2", "observed_order", "runtime_s"])
        for row in rows:
            w.writerow([row[0], f"{row[1]:.12g}", row[2], f"{row[3]:.12g}", f"{row[4]:.6g}", f"{row[5]:.3f}"])
    return report


# -- solve ----------------------------------------------------------------


def _build_loads(cfg: dict, space, nm: NewmarkConfig, problems):
    src = cfg.get("source", {"type": "none"})
    if not isinstance(src, dict):
        problems.append(f"source: must be an object, got {src!r}")
        return None
    kind = src.get("type", "none")
    if kind == "none":
        zero = np.zeros(space.ndof)
        return lambda k: zero
    if kind == "monopole":
        missing = [k for k in ("position", "frequency") if k not in src]
        if missing:
            problems.append(f"source(monopole): missing {missing}")
            return None
        f0 = _finite(src["frequency"], "source(monopole): frequency", problems)
        if problems:  # the run stops here; a position _check_points rejected would raise below
            return None
        unit = point_source_load(space, src["position"], 1.0)
        return lambda k: unit * np.sin(2.0 * np.pi * f0 * k * nm.dt)
    if kind == "projected":
        files = src.get("files")
        if not files:
            problems.append("source(projected): missing 'files' list of load vectors")
            return None
        vecs, bad = [], []
        stride = _count(src.get("stride", 1), "source(projected): stride", bad)
        for f in files:
            if not Path(f).is_file():
                bad.append(f"source(projected): load file {f} does not exist")
                continue
            vecs.append(np.load(f))
            if vecs[-1].shape != (space.ndof,):
                bad.append(f"source(projected): load file {f} has shape {vecs[-1].shape}, need ({space.ndof},) = ndof")
        if bad:
            problems.extend(bad)
            return None
        # donor loads held piecewise constant between mappings
        return lambda k: vecs[min(k // stride, len(vecs) - 1)]
    problems.append(f"source: unknown type {kind!r}")
    return None


def _impedance_from_config(cfg: dict, mesh: HexMesh, problems) -> dict[str, float]:
    """Wall tag -> impedance Z; an unknown tag, or a Z that is not a positive
    finite number, is one problem each and is left out."""
    imp = cfg.get("impedance", {})
    if not isinstance(imp, dict):
        problems.append(f"impedance: must be an object, got {imp!r}")
        return {}
    unknown = sorted(set(imp) - mesh.tags)
    if unknown:
        problems.append(f"impedance tags {unknown} not present in mesh (has {sorted(mesh.tags)})")
    good = {}
    for tag, z in imp.items():
        z = _positive(z, f"impedance: {tag}", problems)
        if z is not None and tag in mesh.tags:
            good[tag] = z
    return good


def _check_points(cfg: dict, mesh: HexMesh, problems):
    """Each probe, and the position of a monopole source, must be 3 finite
    numbers inside the mesh: one problem per point that is not, the inside
    test made by one locate_points call."""
    probes = cfg.get("probes", {})
    if not isinstance(probes, dict):
        problems.append(f"probes: must be an object, got {probes!r}")
        probes = {}
    points = [(f"probe {name!r}", x) for name, x in probes.items()]
    src = cfg.get("source")
    if isinstance(src, dict) and src.get("type") == "monopole" and "position" in src:
        points.append(("source(monopole): position", src["position"]))
    numeric = []
    for where, x in points:
        if isinstance(x, (list, tuple)) and len(x) == 3 and all(type(c) in (int, float) and np.isfinite(c) for c in x):
            numeric.append((where, x))
        else:
            problems.append(f"{where} must be 3 finite numbers, got {x!r}")
    elem, _ = mesh.locate_points(np.array([x for _, x in numeric], dtype=float).reshape(-1, 3))
    problems.extend(f"{where} at {x} is outside the mesh" for (where, x), e in zip(numeric, elem) if e < 0)


def _initial_from_config(cfg: dict, space, c0: float, problems):
    """Initial (rho, velocity) of a gaussian_plane block; each bad entry of
    the block is one problem, and the result is None when there is one."""
    init = cfg.get("initial")
    if init is None:
        return None
    if not isinstance(init, dict):
        problems.append(f"initial: must be an object, got {init!r}")
        return None
    if init.get("type") != "gaussian_plane":
        problems.append(f"initial: unknown type {init.get('type')!r}")
        return None
    before = len(problems)
    _require(init, ("axis", "center", "sigma"), problems, "initial")
    axis = init.get("axis", 0)
    if type(axis) is not int or not 0 <= axis <= 2:
        problems.append(f"initial: axis must be 0, 1 or 2, got {axis!r}")
    values = {key: init.get(key, 1.0) for key in ("center", "sigma", "direction")}
    for key, value in values.items():
        if _finite(value, f"initial: {key}", problems) is not None and key == "sigma" and value <= 0:
            problems.append(f"initial: sigma must be positive, got {value!r}")
    if len(problems) > before:
        return None
    center, sigma, direction = (float(v) for v in values.values())

    def pulse(x, y, z):
        s = (x, y, z)[axis]
        return np.exp(-(((s - center) / sigma) ** 2))

    def pulse_v(x, y, z):
        s = (x, y, z)[axis]
        return direction * c0 * 2.0 * (s - center) / sigma**2 * np.exp(-(((s - center) / sigma) ** 2))

    # rho = g(s - c t): d/dt = -c g' for a wave moving toward +axis
    rho = interpolate(space, pulse).coeffs
    vel = interpolate(space, pulse_v).coeffs
    return rho, vel


def run_solve(cfg: dict, out_dir: Path, run_name: str = "solve", metrics: dict | None = None):
    """Build the space, operators and loads of cfg and march them.

    metrics, when given, receives ndof, nsteps and the wall times of the
    set-up (config to first step) and of the march, in seconds."""
    t0 = _time.perf_counter()
    problems = []
    _require(cfg, ("rho0", "c0", "mesh", "degree", "time"), problems)
    nm = _newmark_from_config(cfg, problems)
    mesh = _mesh_from_config(cfg["mesh"], problems) if "mesh" in cfg else None
    degree = _degree_from_config(cfg, problems) if "degree" in cfg else None
    c0, rho0 = (_positive(cfg[k], k, problems) if k in cfg else None for k in ("c0", "rho0"))
    if problems:
        raise ConfigError(problems)

    impedance = _impedance_from_config(cfg, mesh, problems)
    _check_points(cfg, mesh, problems)
    space = build_space(mesh, degree)
    ops = assemble_operators(space, c0=c0, rho0=rho0, impedance=impedance)
    loads = _build_loads(cfg, space, nm, problems)
    initial = _initial_from_config(cfg, space, ops.c0, problems)
    if problems:
        raise ConfigError(problems)

    t1 = _time.perf_counter()
    result = run(space, ops, loads, nm, initial=initial, out_dir=out_dir, run_name=run_name)
    if metrics is not None:
        metrics.update(ndof=space.ndof, nsteps=nm.num_steps, setup_wall_s=t1 - t0,
                       march_wall_s=_time.perf_counter() - t1)
    outputs = [Path(p) for p in result.snapshot_files]
    probe_path = out_dir / f"{run_name}_probes.csv"
    write_probe_csv(result, probe_path)
    outputs.append(probe_path)
    return result, outputs


# -- fv-source ------------------------------------------------------------

SYNTHETIC_FIELDS = {
    # u = (x, -y, 0): divergence of u x u is exactly (x, y, 0)
    "shear_xy": lambda x, y, z: (x, -y, np.zeros_like(z)),
    "uniform_x": lambda x, y, z: (np.ones_like(x), np.zeros_like(y), np.zeros_like(z)),
}


def run_fv_source(cfg: dict, out_dir: Path) -> Path:
    problems = []
    _require(cfg, ("rho0",), problems)
    rho0 = _positive(cfg["rho0"], "rho0", problems) if "rho0" in cfg else None
    if "fv_file" in cfg:
        mesh, fields = load_fv(cfg["fv_file"])
        fields = [f for f in fields if f.values.ndim == 2]
        if not fields:
            problems.append("fv_file contains no vector velocity fields")
    elif "synthetic" in cfg:
        syn = cfg["synthetic"]
        _require(syn, ("box", "div", "field"), problems, "synthetic")
        if syn.get("field") not in SYNTHETIC_FIELDS:
            problems.append(f"synthetic.field must be one of {sorted(SYNTHETIC_FIELDS)}")
        if not problems:
            mesh = generate_box_fv(syn["box"], syn["div"])
            times = syn.get("times", [0.0])
            fields = [sample_velocity(mesh, SYNTHETIC_FIELDS[syn["field"]], time=t) for t in times]
    else:
        problems.append("need 'fv_file' or 'synthetic' donor specification")
    if problems:
        raise ConfigError(problems)

    sources = [lighthill_divergence(mesh, f, rho0) for f in fields]
    axis = cfg.get("spanwise_axis")
    if axis is not None:
        averaged = [spanwise_average(s, int(axis)) for s in sources]
        mesh_out, sources = averaged[0].mesh, averaged
    else:
        mesh_out = mesh
    out_path = out_dir / "fv_source.json"
    save_fv(out_path, mesh_out, sources)
    return out_path


# -- project --------------------------------------------------------------


def run_project(cfg: dict, out_dir: Path):
    problems = []
    _require(cfg, ("fv_file", "mesh", "degree"), problems)
    mesh = _mesh_from_config(cfg["mesh"], problems) if "mesh" in cfg else None
    degree = _degree_from_config(cfg, problems) if "degree" in cfg else None
    if problems:
        raise ConfigError(problems)
    fvmesh, fields = load_fv(cfg["fv_file"])
    space = build_space(mesh, degree)
    proj = build_projection(space, fvmesh, points_per_axis=int(cfg.get("points_per_axis", 3)))
    from .assembly import assemble_convective

    conv = assemble_convective(space)
    outputs, audited = [], ()
    for idx, f in enumerate(fields):
        if f.values.ndim == 2:
            comps = [proj.project(f.values[:, d]).coeffs for d in range(3)]
            load = aeroacoustic_load(conv, *comps)
            out = out_dir / f"load_{idx:04d}.npy"
            np.save(out, load)
            outputs.append(out)
            for d, comp in enumerate(comps):
                cpath = out_dir / f"projected_{idx:04d}_{'xyz'[d]}.npy"
                np.save(cpath, comp)
                outputs.append(cpath)
            audited = audited or (f.values[:, 0], comps[0])
        else:
            coeffs = proj.project(f.values).coeffs
            out = out_dir / f"projected_{idx:04d}.npy"
            np.save(out, coeffs)
            outputs.append(out)
            audited = audited or (f.values, coeffs)
    # the transferred-mass audit reuses the first field's (x-)projection
    report = proj.conservation_report(fvmesh, *audited)
    rep_path = out_dir / "conservation_report.json"
    with open(rep_path, "w") as fh:
        json.dump(report, fh, indent=2)
    outputs.append(rep_path)
    return report, outputs


# -- curle ----------------------------------------------------------------


def _force_histories(specs, problems) -> list[ForceHistory]:
    """Each missing or unreadable force file, and each history off the first
    one's time base (row count, or times beyond 1e-12 relative), is one
    problem: the observer pressures are summed sample by sample."""
    histories = []
    for spec in specs:
        path = Path(spec["file"])
        if not path.is_file():
            problems.append(f"force file {path} does not exist")
            continue
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            hist = ForceHistory(rows[:, 0], rows[:, 1:4], np.asarray(spec.get("body_point", [0, 0, 0]), dtype=float))
        except (ValueError, CurleError) as exc:
            problems.append(f"force file {path}: {exc}")
            continue
        t0 = (histories[0] if histories else hist).times
        if hist.times.shape != t0.shape or np.abs(hist.times - t0).max() > 1e-12 * np.abs(t0).max():
            problems.append(
                f"force file {path}: {hist.times.size} samples from t={hist.times[0]:g} at dt={hist.dt:g}, "
                f"but the first history has {t0.size} from t={t0[0]:g} at dt={histories[0].dt:g}"
            )
        histories.append(hist)
    return histories


def run_curle(cfg: dict, out_dir: Path):
    problems = []
    _require(cfg, ("forces", "observers", "c0"), problems)
    if problems:
        raise ConfigError(problems)
    c0 = _positive(cfg["c0"], "c0", problems)
    histories = _force_histories(cfg["forces"], problems)
    if problems:
        raise ConfigError(problems)

    outputs = []
    for name, pos in cfg["observers"].items():
        # multiple (force, body point) pairs: contributions sum linearly
        total = None
        for hist in histories:
            rec = curle_pressure(hist, pos, c0)
            total = rec.pressure if total is None else total + rec.pressure
        times = histories[0].times
        ppath = out_dir / f"curle_{name}.csv"
        with open(ppath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "pressure"])
            for t, p in zip(times, total):
                w.writerow([f"{t:.12g}", f"{p:.12g}"])
        outputs.append(ppath)
        seg = int(cfg.get("psd_segment", min(256, len(times))))
        freq, pxx = psd(total, float(times[1] - times[0]), seg)
        spath = out_dir / f"curle_{name}_psd.csv"
        with open(spath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["frequency", "psd"])
            for f, p in zip(freq, pxx):
                w.writerow([f"{f:.12g}", f"{p:.12g}"])
        outputs.append(spath)
    return outputs


# -- entry point ----------------------------------------------------------


def _parse_tags(items):
    tags = {}
    for item in items or []:
        side, _, name = item.partition("=")
        tags[side] = name or side
    return tags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="semwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("mms", "solve", "project", "fv-source", "curle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("mesh-gen")
    p.add_argument("--box", required=True, help="x0,x1,y0,y1,z0,z1")
    p.add_argument("--div", required=True, help="nx,ny,nz")
    p.add_argument("--tag", action="append", help="side=name, side in xmin..zmax")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    try:
        if args.command == "mesh-gen":
            b = [float(v) for v in args.box.split(",")]
            div = [int(v) for v in args.div.split(",")]
            mesh = generate_box_mesh([b[0:2], b[2:4], b[4:6]], div, _parse_tags(args.tag))
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            mesh.save(out)
            return 0

        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics: dict = {}
        if args.command == "mms":
            outputs = [run_mms(cfg, out_dir)]
        elif args.command == "solve":
            _, outputs = run_solve(cfg, out_dir, metrics=metrics)
        elif args.command == "fv-source":
            outputs = [run_fv_source(cfg, out_dir)]
        elif args.command == "project":
            _, outputs = run_project(cfg, out_dir)
        else:
            outputs = run_curle(cfg, out_dir)
        write_manifest(out_dir, cfg, [Path(p) for p in outputs], seed=args.seed, metrics=metrics)
        return 0
    except ConfigError as exc:
        json.dump({"error": "configuration", "problems": exc.problems}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # solver/runtime failures
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
