#!/usr/bin/env python3
"""End-to-end aeroacoustic pipeline on a thin box with a synthetic
shear velocity field: sample the flow on a finite-volume mesh, project
the source onto the spectral space, and propagate it with absorbing
walls.  Thin wrapper over the three CLI stages; all intermediate
artifacts (FV source file, projected loads, conservation report, probe
CSV, a VTK snapshot every 100 steps, manifests) land in the output
directory.  Each stage prints its wall time.  The run fails (non-zero
exit) when a stage fails or when the projection's conservation report breaks the transfer's invariants: column
sums off the cell volumes by more than 1e-12 relative, any sample outside
the acoustic mesh or empty column, or transferred masses that differ by
more than 1e-12 relative.

    PYTHONPATH=src python scripts/synthetic_pipeline.py --out pipeline_results
"""
import argparse
import json
import time
from pathlib import Path

from semwave import cli


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="pipeline_results", help="output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rho0, c0 = 1.204, 343.0
    slab = [[0.0, 1.0], [0.0, 1.0], [0.0, 0.1]]

    def stage(name, cfg, outdir):
        path = out / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2))
        t0 = time.perf_counter()
        code = cli.main([name, "--config", str(path), "--out", str(outdir)])
        print(f"stage {name}: {time.perf_counter() - t0:.3f} s wall")
        if code != 0:
            raise SystemExit(f"stage {name} failed with exit code {code}")

    stage("fv-source", {
        "version": "1", "rho0": rho0,
        "synthetic": {"box": slab, "div": [16, 16, 4], "field": "shear_xy"},
    }, out / "fv")

    stage("project", {
        "version": "1", "fv_file": str(out / "fv" / "fv_source.json"),
        "degree": 2, "mesh": {"generator": {"box": slab, "div": [8, 8, 2]}},
    }, out / "proj")
    report = json.loads((out / "proj" / "conservation_report.json").read_text())
    print("conservation report:", json.dumps(report, indent=2))
    mass_fv, mass_ac = report["transferred_mass_fv"], report["transferred_mass_acoustic"]
    broken = [name for name, bad in (
        ("column sums", report["column_sum_max_rel_error"] > 1e-12),
        ("outside samples or empty columns", report["outside_samples"] != 0 or report["empty_columns"] != 0),
        ("transferred masses", abs(mass_fv - mass_ac) > 1e-12 * max(abs(mass_fv), abs(mass_ac))),
    ) if bad]
    if broken:
        raise SystemExit(f"conservation report fails: {', '.join(broken)}")

    stage("solve", {
        "version": "1", "rho0": rho0, "c0": c0, "degree": 2,
        "mesh": {"generator": {"box": slab, "div": [8, 8, 2]}},
        "time": {"dt": 1e-5, "t_final": 5e-3, "beta": 0.0, "gamma": 0.5},
        "snapshot_stride": 100,
        "impedance": {t: rho0 * c0 for t in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")},
        "source": {"type": "projected", "files": [str(out / "proj" / "load_0000.npy")], "stride": 4},
        "probes": {"mid": [0.5, 0.5, 0.05]},
    }, out / "solve")
    print(f"probe history: {out / 'solve' / 'solve_probes.csv'}")


if __name__ == "__main__":
    main()
