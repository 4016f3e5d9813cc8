"""Batch front end: `semwave <subcommand> --config file.json --out dir`.

Subcommands: mms, solve, project, fv-source, curle, mesh-gen.  Every run
writes a manifest (config echo plus SHA-256 of each output file); a solve
manifest also holds a ``metrics`` block (ndof, nsteps, set-up and march
wall times).  All physical constants must be explicit in the config; there
are no hidden defaults for rho0, c0 or Z.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import manufactured
from .assembly import assemble_convective, assemble_operators, neumann_load, point_source_load, volume_load
from .curle import CurleError, ForceHistory, curle_pressure, psd
from .fvsource import (FvError, generate_box_fv, lighthill_divergence, load_fv, sample_velocity, save_fv,
                       spanwise_average)
from .gll import MAX_DEGREE
from .mesh import DEFAULT_BOX_TAGS, HexMesh, MeshError, generate_box_mesh
from .newmark import NewmarkConfig, run, write_probe_csv
from .projection import aeroacoustic_load, build_projection
from .space import SpectralField, build_space, interpolate, l2_error

CONFIG_VERSION = "1"


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError([f"config must be a JSON object, got {cfg!r}"])
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError([f"unsupported config version {cfg.get('version')!r}"])
    return cfg


def _finite(v) -> bool:
    """Whether v is a finite JSON number; a bool is not one."""
    return type(v) is int or (type(v) is float and math.isfinite(v))


# rule -> (test of a present value, its problem); the problem names the value, and its place as
# `where` ("time: dt", "degrees[1]", or the row's label) or as the dotted `path` ("mesh.generator")
RULES = {
    "object": (lambda v: isinstance(v, dict), "{path}: must be an object, got {value!r}"),
    "list": (lambda v: isinstance(v, list) and len(v) > 0, "{where} must be a non-empty list, got {value!r}"),
    "finite": (_finite, "{where} must be a finite number, got {value!r}"),
    "positive": (lambda v: _finite(v) and v > 0, "{where} must be a positive finite number, got {value!r}"),
    # follows a "finite" row on the same key, which reports a value that is not a number
    "above_zero": (lambda v: not _finite(v) or v > 0, "{where} must be positive, got {value!r}"),
    "count": (lambda v: type(v) is int and v >= 1, "{where} must be a positive integer, got {value!r}"),
    "count0": (lambda v: type(v) is int and v >= 0, "{where} must be a non-negative integer, got {value!r}"),
    "degree": (lambda v: type(v) is int and 1 <= v <= MAX_DEGREE,
               f"{{where}} must be an integer in [1, {MAX_DEGREE}], got {{value!r}}"),
    "axis": (lambda v: type(v) is int and 0 <= v <= 2, "{where} must be 0, 1 or 2, got {value!r}"),
    "vec3": (lambda v: isinstance(v, list) and len(v) == 3 and all(map(_finite, v)),
             "{where} must be 3 finite numbers, got {value!r}"),
    "box": (lambda v: isinstance(v, list) and len(v) == 3 and all(
                isinstance(b, list) and len(b) == 2 and all(map(_finite, b)) and b[0] < b[1] for b in v),
            "{where} must be 3 [lo, hi] pairs of finite numbers, lo < hi, got {value!r}"),
    "div": (lambda v: isinstance(v, list) and len(v) == 3 and all(type(n) is int and n >= 1 for n in v),
            "{where} must be 3 positive integers, got {value!r}"),
    "tags": (lambda v: isinstance(v, dict) and set(v) <= set(DEFAULT_BOX_TAGS)
             and all(isinstance(t, str) for t in v.values()),
             f"{{where}} must map sides of {list(DEFAULT_BOX_TAGS)} to tag names, got {{value!r}}"),
    "file": (lambda v: isinstance(v, str) and Path(v).is_file(), "{where} must name an existing file, got {value!r}"),
}


def _name(where: str, key, sep: str) -> str:
    """The place of key under where: a list index as where[i], an object key after sep."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}{sep}{key}" if where else key


def _entries(node, key) -> list:
    """The (key, value) entries that key selects in node: all of them for '*', else the one present."""
    if key == "*":
        return list(node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ())
    return [(key, node[key])] if isinstance(node, dict) and key in node else []


def check(cfg: dict, rows, problems) -> bool:
    """Walk rows of (key path, rule, required[, label]) over cfg in order: one
    problem per present value that fails its rule and per missing required
    key.  A '*' segment covers every entry of a list or object (its rows are
    not required); a row under a parent that is absent or not an object is
    skipped, as the parent's own row reports it.  A label, formatted with the
    entry's key, names the value.  True when no row added a problem."""
    before = len(problems)
    for path, rule, required, *label in rows:
        *parents, last = path.split(".")
        nodes = [("", cfg)]
        for seg in parents:
            nodes = [(_name(where, key, "."), value) for where, node in nodes for key, value in _entries(node, seg)]
        test, template = RULES[rule]
        for where, node in nodes:
            if required and isinstance(node, dict) and last not in node:
                problems.append(f"{where or 'config'}: missing required key {last!r}")
            for key, value in _entries(node, last):
                if not test(value):
                    name = label[0].format(key=key) if label else _name(where, key, ": ")
                    problems.append(template.format(where=name, path=_name(where, key, "."), value=value))
    return len(problems) == before


# the march of mms and solve
TIME = [("time", "object", True), ("time.dt", "positive", True), ("time.t_final", "positive", True),
        ("time.cg_tol", "positive", False), ("time.beta", "finite", False), ("time.gamma", "finite", False),
        ("time.cg_maxiter", "count", False), ("snapshot_stride", "count0", False)]
# the acoustic mesh of solve and project
MESH = [("mesh", "object", True), ("mesh.file", "file", False), ("mesh.generator", "object", False),
        ("mesh.generator.box", "box", True), ("mesh.generator.div", "div", True),
        ("mesh.generator.tags", "tags", False)]
MMS = [("degrees", "list", True), ("degrees.*", "degree", False), ("divisions", "list", True),
       ("divisions.*", "count", False)]
# the keys the space and operators need; the optional blocks are checked once these hold
SOLVE = [("degree", "degree", True), ("c0", "positive", True), ("rho0", "positive", True)]
SOLVE_BLOCKS = [("impedance", "object", False), ("impedance.*", "positive", False), ("probes", "object", False),
                ("probes.*", "vec3", False, "probe {key!r}"), ("source", "object", False),
                ("initial", "object", False)]
# the rows of each source type, checked by _build_loads
SOURCES = {"none": [],
           "monopole": [("source.position", "vec3", True, "source(monopole): position"),
                        ("source.frequency", "finite", True, "source(monopole): frequency")],
           "projected": [("source.files", "list", True, "source(projected): files"),
                         ("source.stride", "count", False, "source(projected): stride")]}
GAUSSIAN_PLANE = [("initial.axis", "axis", True), ("initial.center", "finite", True),
                  ("initial.sigma", "finite", True), ("initial.sigma", "above_zero", False),
                  ("initial.direction", "finite", False)]
PROJECT = [("degree", "degree", True), ("points_per_axis", "count", False)]
FV_SOURCE = [("rho0", "positive", True), ("synthetic", "object", False), ("synthetic.box", "box", True),
             ("synthetic.div", "div", True), ("synthetic.times", "list", False),
             ("synthetic.times.*", "finite", False), ("spanwise_axis", "axis", False)]
CURLE = [("c0", "positive", True), ("forces", "list", True), ("forces.*", "object", False),
         ("forces.*.file", "file", True), ("forces.*.body_point", "vec3", False), ("observers", "object", True),
         ("observers.*", "vec3", False, "observer {key!r}"), ("psd_segment", "count", False)]


def _mesh_from_config(cfg: dict, problems) -> HexMesh | None:
    """The mesh of cfg's mesh block, or None after its problems."""
    if not check(cfg, MESH, problems):
        return None
    spec = cfg["mesh"]
    if "file" in spec:
        try:
            return HexMesh.load(spec["file"])
        except (MeshError, ValueError) as exc:
            problems.append(f"mesh: file {spec['file']}: {exc}")
    elif "generator" in spec:
        gen = spec["generator"]
        return generate_box_mesh(gen["box"], gen["div"], gen.get("tags"))
    else:
        problems.append("mesh: need either 'file' or 'generator'")
    return None


def _newmark_from_config(cfg: dict, problems) -> NewmarkConfig | None:
    """The march of cfg's time block and snapshot_stride, or None after their problems."""
    if not check(cfg, TIME, problems):
        return None
    tc = cfg["time"]
    kw = {k: tc[k] for k in ("dt", "t_final", "cg_tol", "beta", "gamma", "cg_maxiter") if k in tc}
    try:
        return NewmarkConfig(**kw, snapshot_stride=cfg.get("snapshot_stride", 0), probes=cfg.get("probes", {}))
    except ValueError as exc:
        problems.append(f"time: {exc}")
        return None


def _write_csv(path: Path, header, rows) -> Path:
    """header, then rows, with each float written to 12 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
    return path


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
    nm = _newmark_from_config(cfg, problems)
    check(cfg, MMS, problems)  # every entry is checked before the first march
    if problems:
        raise ConfigError(problems)

    rows = []
    for r in cfg["degrees"]:
        prev_err = None
        for n in cfg["divisions"]:
            t0 = _time.perf_counter()
            err, ndof = mms_single(n, r, nm)
            elapsed = _time.perf_counter() - t0
            order = np.nan if prev_err is None else float(np.log2(prev_err / err))
            rows.append([r, 1.0 / n, ndof, err, f"{order:.6g}", f"{elapsed:.3f}"])
            prev_err = err
    return _write_csv(out_dir / "mms_report.csv", ["degree", "h", "ndof", "E2", "observed_order", "runtime_s"], rows)


# -- solve ----------------------------------------------------------------


def _build_loads(cfg: dict, space, nm: NewmarkConfig, problems):
    """load(k) of cfg's source block, or None after its problems (a source
    that is not an object is left to the SOLVE_BLOCKS row)."""
    src = cfg.get("source", {"type": "none"})
    if not isinstance(src, dict):
        return None
    kind = src.get("type", "none")
    if kind not in SOURCES:
        problems.append(f"source: unknown type {kind!r}")
        return None
    before = len(problems)
    check(cfg, SOURCES[kind], problems)
    if kind == "none":
        zero = np.zeros(space.ndof)
        return lambda k: zero
    if kind == "monopole":
        if problems:  # the run stops here; a position outside the mesh would raise below
            return None
        unit = point_source_load(space, src["position"], 1.0)
        return lambda k: unit * np.sin(2.0 * np.pi * src["frequency"] * k * nm.dt)
    if not RULES["list"][0](src.get("files")):
        return None
    vecs = []
    for f in src["files"]:
        if not RULES["file"][0](f):
            problems.append(f"source(projected): load file {f} does not exist")
            continue
        vecs.append(np.load(f))
        if vecs[-1].shape != (space.ndof,):
            problems.append(f"source(projected): load file {f} has shape {vecs[-1].shape}, need ({space.ndof},)")
    if len(problems) > before:
        return None
    stride = src.get("stride", 1)
    # donor loads held piecewise constant between mappings
    return lambda k: vecs[min(k // stride, len(vecs) - 1)]


def _check_against_mesh(cfg: dict, mesh: HexMesh, problems):
    """One problem for the impedance tags the mesh lacks, and one per probe or monopole position outside it
    (located together by one locate_points call); the rows report points that are not 3 finite numbers."""
    imp = cfg.get("impedance", {})
    unknown = sorted(set(imp) - mesh.tags) if isinstance(imp, dict) else []
    if unknown:
        problems.append(f"impedance tags {unknown} not present in mesh (has {sorted(mesh.tags)})")
    probes = cfg.get("probes", {})
    points = [(f"probe {name!r}", x) for name, x in probes.items()] if isinstance(probes, dict) else []
    src = cfg.get("source")
    if isinstance(src, dict) and src.get("type") == "monopole" and "position" in src:
        points.append(("source(monopole): position", src["position"]))
    points = [(where, x) for where, x in points if RULES["vec3"][0](x)]
    elem, _ = mesh.locate_points(np.array([x for _, x in points], dtype=float).reshape(-1, 3))
    problems.extend(f"{where} at {x} is outside the mesh" for (where, x), e in zip(points, elem) if e < 0)


def _initial_from_config(cfg: dict, space, c0: float, problems):
    """Initial (rho, velocity) of a gaussian_plane block, or None when the
    block is absent or has problems (one that is not an object is left to
    the SOLVE_BLOCKS row)."""
    init = cfg.get("initial")
    if not isinstance(init, dict):
        return None
    if init.get("type") != "gaussian_plane":
        problems.append(f"initial: unknown type {init.get('type')!r}")
        return None
    if not check(cfg, GAUSSIAN_PLANE, problems):
        return None
    axis, center, sigma, direction = init["axis"], init["center"], init["sigma"], init.get("direction", 1.0)

    def pulse(x, y, z, rate=False):
        s = (x, y, z)[axis] - center
        g = np.exp(-((s / sigma) ** 2))
        return direction * c0 * 2.0 * s / sigma**2 * g if rate else g

    # rho = g(s - c t): d/dt = -c g' for a wave moving toward +axis
    rho = interpolate(space, pulse).coeffs
    return rho, interpolate(space, lambda x, y, z: pulse(x, y, z, rate=True)).coeffs


def run_solve(cfg: dict, out_dir: Path, run_name: str = "solve", metrics: dict | None = None):
    """Build the space, operators and loads of cfg and march them.

    metrics, when given, receives ndof, nsteps and the wall times of the
    set-up (config to first step) and of the march, in seconds."""
    t0 = _time.perf_counter()
    problems = []
    nm = _newmark_from_config(cfg, problems)
    mesh = _mesh_from_config(cfg, problems)
    check(cfg, SOLVE, problems)
    if problems:
        raise ConfigError(problems)

    check(cfg, SOLVE_BLOCKS, problems)
    _check_against_mesh(cfg, mesh, problems)
    space = build_space(mesh, cfg["degree"])
    loads = _build_loads(cfg, space, nm, problems)
    c0 = float(cfg["c0"])
    initial = _initial_from_config(cfg, space, c0, problems)
    if problems:
        raise ConfigError(problems)
    ops = assemble_operators(space, c0=c0, rho0=float(cfg["rho0"]), impedance=cfg.get("impedance"))

    t1 = _time.perf_counter()
    result = run(space, ops, loads, nm, initial=initial, out_dir=out_dir, run_name=run_name)
    if metrics is not None:
        metrics.update(ndof=space.ndof, nsteps=nm.num_steps, setup_wall_s=t1 - t0,
                       march_wall_s=_time.perf_counter() - t1)
    probe_path = out_dir / f"{run_name}_probes.csv"
    write_probe_csv(result, probe_path)
    return result, [*map(Path, result.snapshot_files), probe_path]


# -- fv-source ------------------------------------------------------------

SYNTHETIC_FIELDS = {
    # u = (x, -y, 0): divergence of u x u is exactly (x, y, 0)
    "shear_xy": lambda x, y, z: (x, -y, np.zeros_like(z)),
    "uniform_x": lambda x, y, z: (np.ones_like(x), np.zeros_like(y), np.zeros_like(z)),
}


def _load_fv(cfg: dict, problems):
    """The FV mesh and fields of cfg's fv_file, or (None, []) after its problem."""
    if check(cfg, [("fv_file", "file", True)], problems):
        try:
            return load_fv(cfg["fv_file"])
        except (FvError, ValueError) as exc:
            problems.append(f"fv_file {cfg['fv_file']}: {exc}")
    return None, []


def run_fv_source(cfg: dict, out_dir: Path) -> Path:
    problems = []
    check(cfg, FV_SOURCE, problems)
    syn = cfg.get("synthetic")
    if "fv_file" in cfg:
        mesh, fields = _load_fv(cfg, problems)
        fields = [f for f in fields if f.values.ndim == 2]
        if mesh is not None and not fields:
            problems.append("fv_file contains no vector velocity fields")
    elif syn is None:
        problems.append("need 'fv_file' or 'synthetic' donor specification")
    elif isinstance(syn, dict) and syn.get("field") not in SYNTHETIC_FIELDS:
        problems.append(f"synthetic.field must be one of {sorted(SYNTHETIC_FIELDS)}")
    elif not problems:
        mesh = generate_box_fv(syn["box"], syn["div"])
        fields = [sample_velocity(mesh, SYNTHETIC_FIELDS[syn["field"]], time=t) for t in syn.get("times", [0.0])]
    if problems:
        raise ConfigError(problems)
    sources = [lighthill_divergence(mesh, f, float(cfg["rho0"])) for f in fields]
    if "spanwise_axis" in cfg:
        sources = [spanwise_average(s, cfg["spanwise_axis"]) for s in sources]
    out_path = out_dir / "fv_source.json"
    save_fv(out_path, sources[0].mesh, sources)
    return out_path


# -- project --------------------------------------------------------------


def run_project(cfg: dict, out_dir: Path):
    problems = []
    mesh = _mesh_from_config(cfg, problems)
    check(cfg, PROJECT, problems)
    # the FV file is read once the mesh and degree hold
    fvmesh, fields = (None, []) if problems else _load_fv(cfg, problems)
    if problems:
        raise ConfigError(problems)
    space = build_space(mesh, cfg["degree"])
    proj = build_projection(space, fvmesh, points_per_axis=cfg.get("points_per_axis", 3))
    conv = assemble_convective(space)
    outputs, audited = [], ()
    for idx, f in enumerate(fields):
        columns = list(f.values.T) if f.values.ndim == 2 else [f.values]
        comps = [proj.project(q).coeffs for q in columns]
        audited = audited or (columns[0], comps[0])
        names = [f"projected_{idx:04d}_{a}" for a in "xyz"] if len(columns) == 3 else [f"projected_{idx:04d}"]
        arrays = dict(zip(names, comps))
        if len(columns) == 3:  # a velocity snapshot: its aeroacoustic load as well
            arrays[f"load_{idx:04d}"] = aeroacoustic_load(conv, *comps)
        for name, array in arrays.items():
            outputs.append(out_dir / f"{name}.npy")
            np.save(outputs[-1], array)
    # the transferred-mass audit reuses the first field's (x-)projection
    report = proj.conservation_report(fvmesh, *audited)
    rep_path = out_dir / "conservation_report.json"
    rep_path.write_text(json.dumps(report, indent=2))
    return report, [*outputs, rep_path]


# -- curle ----------------------------------------------------------------


def _force_histories(specs, problems) -> list[ForceHistory]:
    """The history of each force file; each unreadable one, and each history
    off the first one's time base (row count, or times beyond 1e-12
    relative), is one problem: the observer pressures are summed sample by
    sample."""
    histories = []
    for spec in specs:
        path = spec["file"]
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            hist = ForceHistory(rows[:, 0], rows[:, 1:4], spec.get("body_point", (0.0, 0.0, 0.0)))
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
    histories = _force_histories(cfg["forces"], problems) if check(cfg, CURLE, problems) else []
    times = histories[0].times if histories else np.zeros(0)
    seg = cfg.get("psd_segment", min(256, times.size))
    if histories and seg > times.size:
        problems.append(f"psd_segment {seg} exceeds the {times.size} samples of the force histories")
    if problems:
        raise ConfigError(problems)

    outputs = []
    for name, pos in cfg["observers"].items():
        # multiple (force, body point) pairs: contributions sum linearly
        pressures = [curle_pressure(hist, pos, cfg["c0"]).pressure for hist in histories]
        total = sum(pressures[1:], pressures[0])
        outputs.append(_write_csv(out_dir / f"curle_{name}.csv", ["time", "pressure"], zip(times, total)))
        freq, pxx = psd(total, float(times[1] - times[0]), seg)
        outputs.append(_write_csv(out_dir / f"curle_{name}_psd.csv", ["frequency", "psd"], zip(freq, pxx)))
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
            try:
                b = [float(v) for v in args.box.split(",")]
                div = [int(v) for v in args.div.split(",")]
                mesh = generate_box_mesh([b[0:2], b[2:4], b[4:6]], div, _parse_tags(args.tag))
            except ValueError as exc:
                raise ConfigError([f"mesh-gen: {exc}"]) from exc
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
        print(json.dumps({"error": "configuration", "problems": exc.problems}), file=sys.stderr)
        return 2
    except Exception as exc:  # solver/runtime failures
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
