#!/usr/bin/env python3
"""semwave benchmark: one workload per process, measured for --seconds.

    python3 perfbench/run.py --workload noise_box --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run repeats whole rounds (the workload's program part, then its checks)
until --seconds have passed, and at least MIN_ROUNDS times.  With --trace 0
it prints the end-to-end metrics; with --trace 1 it alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones plus the
tracing overhead.  The last line of standard output is the result JSON; a
fuller record (machine facts, inputs, every check, every round) goes to
perfbench/out/.  The program is imported from src/ of the checkout that
holds this file, never from anywhere else.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREADS = "1"  # one BLAS/OpenMP thread: steadier on a shared machine, and never above nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("noise_box", "mms_implicit", "aero_pipeline", "aero_sheared")
MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 4  # two untraced and two traced

# On a shared host the same code runs up to 1.7 times slower in some minutes
# than in others, and such a phase can last longer than a run: wall-clock
# step times, even their 10th percentile, spread by 29-53 % between runs.
# step_ref divides each step's CPU time by that of a fixed reference
# computation run on the same thread a few milliseconds later (reference.py),
# which cancels the host's speed; setup_s is set-up CPU time scaled the same
# way to the reference's nominal speed.
END_TO_END = {"setup_s": "s", "step_ref": "ref", "peak_rss_mb": "MB"}
# wall-clock and unscaled figures of the untraced rounds of a traced run,
# reported unbounded
UNTRACED = {
    "run.setup_wall_s": "s", "run.wall_s": "s", "run.mdof_steps_per_s": "Mdof-steps/s", "run.step_ms_p10": "ms",
    "run.step_ms_p50": "ms", "run.step_ms_p90": "ms", "run.step_cpu_ms": "ms", "run.reference_ms": "ms",
}
STAGES = {"cli.fv_source.s": "fv-source", "cli.project.s": "project", "cli.solve.s": "solve"}
PER_LAYER = {
    **{name: "count" for name in (
        "assembly.apply_stiffness.calls", "assembly.surface_quadrature.calls", "assembly.neumann_load.calls",
        "assembly.volume_load.calls", "assembly.convective_apply.calls", "newmark.pcg.calls",
        "newmark.pcg.iterations", "newmark.newmark_step.calls", "space.evaluate.calls",
        "mesh.locate_point.calls", "mesh.locate_point.misses", "projection.coupling.nnz",
        "projection.coupling.outside_samples", "projection.project.calls", "projection.pcg.iterations",
    )},
    **{name: "s" for name in (
        "assembly.apply_stiffness.s", "assembly.surface_quadrature.s", "assembly.neumann_load.s",
        "assembly.volume_load.s", "assembly.convective_apply.s", "assembly.element_geometry.s",
        "assembly.assemble_operators.s", "newmark.newmark_step.s", "space.evaluate.s", "space.build_space.s",
        "space.l2_error.s", "space.write_vtk.s", "mesh.locate_point.s", "projection.assemble_coupling.s",
        "projection.consistent_mass.s", "projection.project.s", "projection.aeroacoustic_load.s",
        "fvsource.generate_box_fv.s", "fvsource.lighthill_divergence.s", "fvsource.save_fv.s",
        "fvsource.load_fv.s", "newmark.write_probe_csv.s", "cli.write_manifest.s", *STAGES,
    )},
    "fvsource.save_fv.bytes": "B",
    "space.write_vtk.bytes": "B",
    "cli.output.bytes": "B",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
    "trace.named_share_pct": "%",
    **UNTRACED,
}


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_round(workload: str, inputs, tracer, reference, k: int):
    """One round: the timed program part, then the untimed checks."""
    from workloads import WORKLOADS, Round

    _, program, check = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    rnd = Round(reference, tracer)
    try:
        if tracer is not None:
            tracer.round = k
            tracer.install()
        try:
            with tracer.span("round") if tracer is not None else nullcontext():
                outputs = program(inputs, rnd, work)
                rnd.end = rnd.now()
        finally:
            if tracer is not None:
                tracer.uninstall()
        results = check(inputs, outputs)
        rnd.runs.clear()  # keep only the time stamps, or memory grows with the round count
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rnd, results


def round_figures(rnd) -> dict:
    """setup, wall and throughput of one round, from the march time stamps.

    Set-up is the program time before the first step of each march: from the
    round start, or from the end of the previous march, to the first step.
    setup_wall_s is its wall time; setup_s is its CPU time at the reference's
    nominal speed, scaled by REFERENCE_NOMINAL_S over the median reference
    time of the round."""
    from reference import REFERENCE_NOMINAL_S

    setup, march, work = 0.0, 0.0, 0.0
    prev_end = rnd.start
    for ndof, stamps in rnd.marches:
        setup += stamps[0] - prev_end
        march += stamps[-1] - stamps[0]
        work += ndof * (len(stamps) - 1)
        prev_end = stamps[-1]
    reference_s = statistics.median(ref for _, _, ref in rnd.windows)
    return {
        "setup_s": rnd.setup_cpu * REFERENCE_NOMINAL_S / reference_s,
        "setup_wall_s": setup,
        "setup_cpu_s": rnd.setup_cpu,
        "reference_s": reference_s,
        "wall_s": rnd.end - rnd.start,
        "mdof_steps_per_s": work / march / 1e6,
        "stages": dict(rnd.stages),
    }


def largest_marches(rnd):
    """The marches of the largest DOF count in a round.  Pooling marches of
    different sizes would put a median between two modes."""
    biggest = max(ndof for ndof, _ in rnd.marches)
    return biggest, [stamps for ndof, stamps in rnd.marches if ndof == biggest]


def step_times_ms(rounds) -> list[float]:
    """Step wall times of the largest marches of every round."""
    return [1e3 * (b - a) for rnd in rounds for stamps in largest_marches(rnd)[1] for a, b in zip(stamps, stamps[1:])]


def reference_windows(rounds) -> list[tuple[float, float]]:
    """(mean step CPU time, reference CPU time) of each reference window of
    the largest marches of every round."""
    out = []
    for rnd in rounds:
        biggest = largest_marches(rnd)[0]
        out.extend((step, ref) for ndof, step, ref in rnd.windows if ndof == biggest)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool):
    import numpy as np

    from tracing import LAYER_SPANS, Tracer
    from reference import Reference
    from workloads import KNOWN_FAULTS, OPS, WORKLOADS

    inputs = WORKLOADS[workload][0](np.random.default_rng(seed))
    tracer = Tracer() if trace else None
    reference = Reference()
    plain, traced, log = [], [], []
    attempted = failed = 0
    correct = True
    t0 = perf_counter()
    k = 0
    while k < (MIN_ROUNDS_TRACED if trace else MIN_ROUNDS) or perf_counter() - t0 < seconds:
        use_tracer = tracer if trace and k % 2 == 1 else None
        rnd, results = run_round(workload, inputs, use_tracer, reference, k)
        (traced if use_tracer else plain).append((k, rnd))
        for op in OPS[workload]:
            checks_of_op = results.get(op, {})
            ok = bool(checks_of_op) and all(passed for passed, _ in checks_of_op.values())
            attempted += 1
            if not ok:
                failed += 1
                correct = correct and (workload, op) in KNOWN_FAULTS
            log.append({"round": k, "op": op, "ok": ok,
                        "checks": {name: {"passed": bool(p), "value": float(v)} for name, (p, v) in checks_of_op.items()}})
        k += 1

    figures = [round_figures(rnd) for _, rnd in plain]
    steps = step_times_ms([rnd for _, rnd in plain])
    windows = reference_windows([rnd for _, rnd in plain])
    values = {
        "setup_s": statistics.median(f["setup_s"] for f in figures),
        "step_ref": statistics.median(step / ref for step, ref in windows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run.setup_wall_s": statistics.median(f["setup_wall_s"] for f in figures),
        "run.wall_s": statistics.median(f["wall_s"] for f in figures),
        "run.mdof_steps_per_s": statistics.median(f["mdof_steps_per_s"] for f in figures),
        "run.step_ms_p10": float(np.percentile(steps, 10.0)),
        "run.step_ms_p50": float(np.percentile(steps, 50.0)),
        "run.step_ms_p90": float(np.percentile(steps, 90.0)),
        "run.step_cpu_ms": 1e3 * statistics.median(step for step, _ in windows),
        "run.reference_ms": 1e3 * statistics.median(ref for _, ref in windows),
    }
    if trace:
        per_round = [tracer.round_totals(i) for i, _ in traced]
        for name in PER_LAYER:
            if name in STAGES:
                values[name] = statistics.median(rnd.stages.get(STAGES[name], 0.0) for _, rnd in traced)
            elif name not in UNTRACED:
                values[name] = statistics.median(totals.get(name, 0.0) for totals in per_round)
        traced_wall = statistics.median(rnd.end - rnd.start for _, rnd in traced)
        values["trace.overhead_pct"] = 100.0 * (traced_wall / values["run.wall_s"] - 1.0)
        values["trace.named_share_pct"] = statistics.median(
            100.0 * sum(v for n, v in totals.items() if n[:-2] in LAYER_SPANS and n.endswith(".s")) / (rnd.end - rnd.start)
            for totals, (_, rnd) in zip(per_round, traced))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(), "inputs": inputs, "rounds": len(plain) + len(traced),
        "round_figures": figures, "step_samples": len(steps), "reference_windows": windows,
        "operations": log, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, summary


def report(record):
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"workload {record['workload']}: seed {record['seed']}, {record['rounds']} rounds, "
          f"{record['step_samples']} timed steps, {len(record['reference_windows'])} reference windows, inputs {json.dumps(record['inputs'])}")
    failures: dict[str, int] = {}
    for entry in record["operations"]:
        if not entry["ok"]:
            failures[entry["op"]] = failures.get(entry["op"], 0) + 1
        if entry["round"] == 0:
            detail = ", ".join(f"{n}={c['value']:.3g}{'' if c['passed'] else ' FAIL'}" for n, c in entry["checks"].items())
            print(f"  round 0 {entry['op']}: {'ok' if entry['ok'] else 'FAILED'} ({detail})")
    for op, count in failures.items():
        print(f"  {op} failed in {count} of {record['rounds']} rounds")


def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import semwave
    except ImportError as exc:
        print(f"cannot import semwave from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(semwave.__file__).resolve().parent != src / "semwave":
        print(f"semwave imported from {semwave.__file__}, not from {src}", file=sys.stderr)
        return 2

    record, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
