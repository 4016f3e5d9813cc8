"""The four workloads: inputs made from a seed, the program calls that are
timed, and the checks of their outputs.

A round runs one workload's program part once (``PROGRAM``), then checks its
outputs (``CHECK``) outside the timed region.  Each check belongs to one
operation; an operation fails when any of its checks fails.  Everything the
program sees is made by ``INPUTS`` from the seed; only the inputs that a kept
fault depends on (the ``aero_sheared`` meshes) are fixed.
"""
from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter, thread_time

import numpy as np

import checks
import semwave.assembly as assembly
import semwave.cli as cli
import semwave.fvsource as fvsource
import semwave.mesh as mesh_mod
import semwave.newmark as newmark
import semwave.projection as projection
import semwave.space as space_mod

RHO0, C0 = 1.204, 343.0
WALLS = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")
REFERENCE_EVERY_S = 0.02

# Operations of each workload, in the order a round attempts them.
OPS = {
    "noise_box": ("march", "march_swapped"),
    "mms_implicit": ("mms_coarse", "mms_fine"),
    "aero_pipeline": ("fv-source", "project", "solve"),
    "aero_sheared": ("fv_source", "coupling", "project", "march"),
}
# Operations that fail on every round because of a fault in the program.
KNOWN_FAULTS = {("aero_sheared", "coupling")}


@contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Round:
    """Clock of one round.  ``timed_run`` stands in for ``newmark.run`` and
    time-stamps each call of the per-step ``loads`` callable, which ``run``
    makes once at the start of every step.

    It also runs the fixed ``reference`` computation between two steps once
    in every ``REFERENCE_EVERY_S`` of program CPU time, and records the mean
    step CPU time of the window before it and the reference's own CPU time.
    The round's clocks ``now`` (wall) and ``cpu_now`` (this thread's CPU time)
    leave the reference out.  ``setup_cpu`` sums the CPU time before the
    first step of each march."""

    def __init__(self, reference, tracer=None):
        self.reference = reference
        self.tracer = tracer
        self.marches: list[tuple[int, list[float]]] = []  # (ndof, step boundaries)
        self.windows: list[tuple[int, float, float]] = []  # (ndof, mean step cpu, reference cpu)
        self.runs: list[tuple] = []  # (space, RunResult)
        self.stages: dict[str, float] = {}
        self.paused = self.paused_cpu = 0.0
        self.setup_cpu = 0.0
        self._cpu_mark = self.cpu_now()
        self.start = self.now()
        self.end = None

    def now(self) -> float:
        return perf_counter() - self.paused

    def cpu_now(self) -> float:
        return thread_time() - self.paused_cpu

    def _measure_reference(self, ndof: int, step_cpu: float):
        w0, c0 = perf_counter(), thread_time()
        ref_cpu = self.reference()
        self.paused += perf_counter() - w0
        self.paused_cpu += thread_time() - c0
        self.windows.append((ndof, step_cpu, ref_cpu))

    def timed_run(self, space, ops, loads, cfg, **kw):
        stamps: list[float] = []
        window = [0.0, 0]  # CPU time at its start, steps in it

        def timed_loads(k):
            if k:
                stamps.append(self.now())
                cpu = self.cpu_now()
                if len(stamps) == 1:
                    self.setup_cpu += cpu - self._cpu_mark
                else:
                    window[1] += 1
                    if cpu - window[0] >= REFERENCE_EVERY_S:
                        self._measure_reference(space.ndof, (cpu - window[0]) / window[1])
                        cpu, window[1] = self.cpu_now(), 0
                if window[1] == 0:
                    window[0] = cpu
            return loads(k)

        result = newmark.run(space, ops, timed_loads, cfg, **kw)
        stamps.append(self.now())
        self._cpu_mark = self.cpu_now()
        self.marches.append((space.ndof, stamps))
        self.runs.append((space, result))
        return result

    @contextmanager
    def stage(self, name: str):
        t0 = self.now()
        with self.tracer.span(f"cli.main:{name}") if self.tracer else nullcontext():
            yield
        self.stages[name] = self.now() - t0


def _jitter(rng, base, amount):
    amount = np.asarray(amount, float)
    return tuple(float(v) for v in np.asarray(base) + rng.uniform(-amount, amount, 3))


def _box_volumes(box, div):
    box = np.asarray(box, float)
    return np.prod(box[:, 1] - box[:, 0]) / np.prod(div)


def _worst(results):
    """Of several checks of one kind, the one with the largest measured figure."""
    return max(results, key=lambda c: c[1])


def _mass_gaps(proj, fields, projected):
    """Transferred-mass identity for every snapshot and component."""
    return (
        checks.transferred_mass(float((proj.coupling.matrix @ f[:, d]).sum()), float((proj.maa @ q[d]).sum()))
        for f, q in zip(fields, projected) for d in range(3)
    )


# -- noise_box -------------------------------------------------------------
# The criterion-6 room marched explicitly for 1 ms: stiffness apply and probe
# evaluation only.  Source near the floor so its image arrives in the window.

NB_BOX = ((0.0, 1.4), (0.0, 1.19), (0.0, 0.825))
NB_DIV, NB_DT, NB_STEPS, NB_Z, NB_F0 = (18, 15, 10), 5e-6, 200, 32206.0, 162.0


def noise_box_inputs(rng):
    return {"source": _jitter(rng, (1.15, 0.595, 0.065), 0.01), "probe": _jitter(rng, (1.02, 0.56, 0.10), 0.01)}


def noise_box_program(inp, rnd, work):
    traces = []
    for src, probe in ((inp["source"], inp["probe"]), (inp["probe"], inp["source"])):
        mesh = mesh_mod.generate_box_mesh(NB_BOX, NB_DIV)
        space = space_mod.build_space(mesh, 2)
        ops = assembly.assemble_operators(space, C0, RHO0, {t: NB_Z for t in WALLS})
        unit = assembly.point_source_load(space, src, 1.0)
        cfg = newmark.NewmarkConfig(dt=NB_DT, t_final=NB_STEPS * NB_DT, beta=0.0, gamma=0.5, probes={"p": probe})
        result = rnd.timed_run(space, ops, lambda k: unit * np.sin(2.0 * np.pi * NB_F0 * k * NB_DT), cfg)
        traces.append(result.probe_values[:, 0])
    return {"traces": traces, "times": result.times}


def noise_box_check(inp, out):
    first, swapped = out["traces"]
    return {
        "march": {"free_field": checks.free_field(first, out["times"], inp["source"], inp["probe"], NB_BOX, C0, NB_F0, RHO0, NB_Z)},
        "march_swapped": {"reciprocity": checks.reciprocity(first, swapped)},
    }


# -- mms_implicit ----------------------------------------------------------
# Criterion-1 family: implicit average acceleration with volume and Neumann
# loads rebuilt on every step, one CG solve per step, two meshes one halving apart.

MMS_DIVS, MMS_DEGREE, MMS_STEPS = (6, 12), 2, 30


def mms_inputs(rng):
    return {"dt": float(1e-4 * (0.9 + 0.2 * rng.random()))}


def mms_program(inp, rnd, work):
    dt = inp["dt"]
    cfg = newmark.NewmarkConfig(dt=dt, t_final=MMS_STEPS * dt, beta=0.25, gamma=0.5)
    with patched(cli, "run", rnd.timed_run):
        errors = [cli.mms_single(n, MMS_DEGREE, cfg)[0] for n in MMS_DIVS]
    return {"errors": errors, "runs": list(rnd.runs)}


def mms_check(inp, out):
    t = MMS_STEPS * inp["dt"]
    mine = []
    for space, result in out["runs"]:
        corners = space.mesh.corner_coords()
        mine.append(checks.collocated_e2(
            space.node_coords[space.emap], result.final.rho[space.emap],
            corners.min(axis=1), corners.max(axis=1), MMS_DEGREE, t,
        ))
    return {
        "mms_coarse": {"e2_closed_form": checks.agree(out["errors"][0], mine[0])},
        "mms_fine": {
            "e2_closed_form": checks.agree(out["errors"][1], mine[1]),
            "h_order": checks.h_order(mine[0], mine[1], MMS_DEGREE),
        },
    }


# -- aero_pipeline ---------------------------------------------------------
# scripts/synthetic_pipeline.py scaled up: finer FV mesh, several snapshots,
# VTK snapshots in the solve; every stage through semwave.cli.main.

AP_SLAB = ((0.0, 1.0), (0.0, 1.0), (0.0, 0.1))
AP_FV_DIV, AP_EDIV, AP_SNAPSHOTS = (40, 40, 4), (10, 10, 2), 4
AP_DT, AP_STEPS, AP_VTK_STRIDE = 1e-5, 800, 200


def pipeline_inputs(rng):
    return {
        "times": sorted(float(t) for t in rng.uniform(0.0, 0.01, AP_SNAPSHOTS)),
        "probe": _jitter(rng, (0.5, 0.5, 0.05), (0.1, 0.1, 0.02)),
    }


def pipeline_program(inp, rnd, work):
    fv_dir, proj_dir, solve_dir = work / "fv", work / "proj", work / "solve"
    mesh = {"generator": {"box": AP_SLAB, "div": AP_EDIV}}
    configs = {
        "fv-source": ({"version": "1", "rho0": RHO0, "synthetic": {
            "box": AP_SLAB, "div": AP_FV_DIV, "field": "shear_xy", "times": inp["times"]}}, fv_dir),
        "project": ({"version": "1", "fv_file": str(fv_dir / "fv_source.json"), "degree": 2, "mesh": mesh}, proj_dir),
        "solve": ({
            "version": "1", "rho0": RHO0, "c0": C0, "degree": 2, "mesh": mesh,
            "time": {"dt": AP_DT, "t_final": AP_STEPS * AP_DT, "beta": 0.0, "gamma": 0.5},
            "snapshot_stride": AP_VTK_STRIDE,
            "impedance": {t: RHO0 * C0 for t in WALLS},
            "source": {"type": "projected", "stride": AP_STEPS // AP_SNAPSHOTS,
                       "files": [str(proj_dir / f"load_{i:04d}.npy") for i in range(AP_SNAPSHOTS)]},
            "probes": {"p": inp["probe"]},
        }, solve_dir),
    }
    captured = []

    def capture_projection(*args, **kw):
        captured.append(projection.build_projection(*args, **kw))
        return captured[-1]

    codes = {}
    with patched(cli, "run", rnd.timed_run), patched(cli, "build_projection", capture_projection):
        for name, (cfg, out_dir) in configs.items():
            path = work / f"{name}.json"
            path.write_text(json.dumps(cfg))
            with rnd.stage(name):
                codes[name] = cli.main([name, "--config", str(path), "--out", str(out_dir)])
            if codes[name] != 0:
                break
    return {"codes": codes, "projection": captured, "dirs": (fv_dir, proj_dir, solve_dir)}


def pipeline_check(inp, out):
    fv_dir, proj_dir, solve_dir = out["dirs"]
    codes = out["codes"]
    result = {name: {"exit_code": (codes.get(name) == 0, float(codes.get(name, -1)))} for name in OPS["aero_pipeline"]}
    if codes.get("fv-source") != 0:
        return result
    data = json.loads((fv_dir / "fv_source.json").read_text())
    centers = np.array([c["center"] for c in data["cells"]])
    fields = [np.array(f["values"]) for f in data["fields"]]
    fv = result["fv-source"]
    fv["snapshots"] = (len(fields) == AP_SNAPSHOTS, float(len(fields)))
    fv["divergence"] = _worst(checks.lighthill_shear(f, centers, RHO0, 1.0) for f in fields)
    fv["manifest"] = checks.manifest(fv_dir / "manifest.json")
    if codes.get("project") != 0:
        return result
    proj = out["projection"][0]
    pr = result["project"]
    pr["column_sums"] = checks.column_sums(proj.coupling.column_sums(), _box_volumes(AP_SLAB, AP_FV_DIV))
    projected = [[np.load(proj_dir / f"projected_{i:04d}_{c}.npy") for c in "xyz"] for i in range(len(fields))]
    pr["transferred_mass"] = _worst(_mass_gaps(proj, fields, projected))
    pr["load_sum"] = _worst(checks.load_sum(np.load(proj_dir / f"load_{i:04d}.npy")) for i in range(len(fields)))
    pr["manifest"] = checks.manifest(proj_dir / "manifest.json")
    if codes.get("solve") != 0:
        return result
    rows = np.loadtxt(solve_dir / "solve_probes.csv", delimiter=",", skiprows=1)
    sv = result["solve"]
    sv["probes"] = checks.probes(rows[:, 1])
    sv["steps"] = (rows.shape[0] == AP_STEPS + 1, float(rows.shape[0]))
    sv["manifest"] = checks.manifest(solve_dir / "manifest.json")
    return result


# -- aero_sheared ----------------------------------------------------------
# The same chain at library level on a non-affine slab (interior x-shear,
# boundaries fixed) over anisotropic FV cells (aspect 5:1), which takes the
# sampled coupling path.  The meshes are fixed: the kept coupling fault
# depends on them alone.

AS_SLAB = AP_SLAB
AS_EDIV, AS_FV_DIV, AS_SHEAR, AS_SNAPSHOTS = (4, 4, 2), (4, 4, 2), 0.05, 3
AS_DT, AS_STEPS = 1e-5, 900


def sheared_inputs(rng):
    return {
        "amplitudes": [float(a) for a in rng.uniform(0.5, 1.5, AS_SNAPSHOTS)],
        "probe": _jitter(rng, (0.5, 0.5, 0.05), (0.1, 0.1, 0.02)),
    }


def sheared_program(inp, rnd, work):
    box = mesh_mod.generate_box_mesh(AS_SLAB, AS_EDIV)
    v = box.vertices.copy()
    v[:, 0] += AS_SHEAR * np.sin(np.pi * v[:, 0]) * np.sin(2.0 * np.pi * v[:, 1])
    mesh = mesh_mod.HexMesh(v, box.elements, box.boundary)
    space = space_mod.build_space(mesh, 2)
    fv = fvsource.generate_box_fv(AS_SLAB, AS_FV_DIV)
    sources = [
        fvsource.lighthill_divergence(fv, fvsource.sample_velocity(
            fv, lambda x, y, z, a=a: (a * x, -a * y, np.zeros_like(z))), RHO0)
        for a in inp["amplitudes"]
    ]
    proj = projection.build_projection(space, fv)
    conv = assembly.assemble_convective(space)
    projected = [[proj.project(s.values[:, d]).coeffs for d in range(3)] for s in sources]
    loads = [projection.aeroacoustic_load(conv, *comps) for comps in projected]
    ops = assembly.assemble_operators(space, C0, RHO0, {t: RHO0 * C0 for t in WALLS})
    cfg = newmark.NewmarkConfig(dt=AS_DT, t_final=AS_STEPS * AS_DT, beta=0.0, gamma=0.5, probes={"p": inp["probe"]})
    stride = AS_STEPS // AS_SNAPSHOTS
    result = rnd.timed_run(space, ops, lambda k: loads[min(k // stride, AS_SNAPSHOTS - 1)], cfg)
    return {"fv": fv, "sources": sources, "proj": proj, "projected": projected, "loads": loads, "probes": result.probe_values}


def sheared_check(inp, out):
    fv, proj, sources = out["fv"], out["proj"], out["sources"]
    return {
        "fv_source": {"divergence": _worst(
            checks.lighthill_shear(s.values, fv.centers, RHO0, a) for s, a in zip(sources, inp["amplitudes"]))},
        "coupling": {"column_sums": checks.column_sums(proj.coupling.column_sums(), _box_volumes(AS_SLAB, AS_FV_DIV))},
        "project": {
            "transferred_mass": _worst(_mass_gaps(proj, [s.values for s in sources], out["projected"])),
            "load_sum": _worst(checks.load_sum(f) for f in out["loads"]),
        },
        "march": {"probes": checks.probes(out["probes"])},
    }


WORKLOADS = {
    "noise_box": (noise_box_inputs, noise_box_program, noise_box_check),
    "mms_implicit": (mms_inputs, mms_program, mms_check),
    "aero_pipeline": (pipeline_inputs, pipeline_program, pipeline_check),
    "aero_sheared": (sheared_inputs, sheared_program, sheared_check),
}
