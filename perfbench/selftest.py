#!/usr/bin/env python3
"""Self-tests of the benchmark's checks: each accepts a right input and
rejects a deliberately wrong one.  Needs only numpy, not semwave.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
SRC, PROBE = (1.15, 0.595, 0.065), (1.02, 0.56, 0.10)
BOX = ((0.0, 1.4), (0.0, 1.19), (0.0, 0.825))
AIR = dict(c0=343.0, f0=162.0, rho0=1.204, z_wall=32206.0)


def expect(condition):
    """Like assert, but kept under python -O."""
    if not condition:
        raise AssertionError


def _trace(src, probe, times):
    return checks.monopole_with_floor_image(times, src, probe, **AIR)


def reciprocity():
    t = np.arange(201) * 5e-6
    first = _trace(SRC, PROBE, t)
    expect(checks.reciprocity(first, _trace(PROBE, SRC, t))[0])
    # the swapped run's probe left where the first run's probe was
    moved = (SRC[0] - 0.01, SRC[1], SRC[2])
    expect(not checks.reciprocity(first, _trace(PROBE, moved, t))[0])
    expect(not checks.reciprocity(first, np.roll(first, 1))[0])


def free_field():
    t = np.arange(201) * 5e-6
    ref = _trace(SRC, PROBE, t)
    expect(checks.free_field(ref, t, SRC, PROBE, BOX, **AIR)[0])
    expect(not checks.free_field(1.1 * ref, t, SRC, PROBE, BOX, **AIR)[0])
    # the echo off xmax (0.25 m from the source) must end the window
    expect(checks.first_side_echo(SRC, PROBE, BOX, AIR["c0"]) < 2.0 * 0.38 / AIR["c0"])


def load_sum():
    rng = np.random.default_rng(0)
    load = rng.standard_normal(500)
    load -= load.mean()
    expect(checks.load_sum(load)[0])
    expect(not checks.load_sum(load + 1e-6)[0])


def column_sums():
    volumes = np.full(32, 0.25 * 0.25 * 0.05)
    expect(checks.column_sums(volumes * (1.0 + 1e-13), volumes)[0])
    off = volumes.copy()
    off[7] *= 1.01
    expect(not checks.column_sums(off, volumes)[0])


def manufactured_order():
    expect(checks.h_order(1.6e-8, 1.6e-8 / 4.0, 2)[0])
    expect(not checks.h_order(1.6e-8, 1.6e-8 / 2.0, 2)[0])  # first order
    expect(not checks.h_order(1.6e-8, 1.6e-8 / 16.0, 2)[0])  # fourth order
    expect(not checks.h_order(1.0e-9, 2.0e-9, 2)[0])  # error grows


def collocated_e2():
    nodes, weights = checks.gll_rule(2)
    expect(np.allclose(nodes, [-1.0, 0.0, 1.0]) and np.allclose(weights, [1 / 3, 4 / 3, 1 / 3]))
    # one element [0, 0.5]^3, nodes listed in a scrambled order
    ref = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
    xyz = (0.25 * (ref + 1.0))[np.random.default_rng(1).permutation(27)][None]
    lo, hi = np.zeros((1, 3)), np.full((1, 3), 0.5)
    exact = checks.mms_exact(xyz[..., 0], xyz[..., 1], xyz[..., 2], 0.3)
    expect(checks.collocated_e2(xyz, exact, lo, hi, 2, 0.3) == 0.0)
    # a constant offset c on the nodes gives E2 = c * sqrt(volume)
    e2 = checks.collocated_e2(xyz, exact + 1e-3, lo, hi, 2, 0.3)
    expect(abs(e2 - 1e-3 * np.sqrt(0.125)) < 1e-15)
    expect(checks.agree(e2, e2 * (1.0 + 1e-12))[0])
    expect(not checks.agree(e2, e2 * (1.0 + 1e-6))[0])


def divergence():
    centers = np.random.default_rng(2).random((50, 3))
    exact = 1.204 * 0.8**2 * np.stack([centers[:, 0], centers[:, 1], 0.0 * centers[:, 2]], axis=1)
    expect(checks.lighthill_shear(exact, centers, 1.204, 0.8)[0])
    expect(not checks.lighthill_shear(exact * (1.0 + 1e-6), centers, 1.204, 0.8)[0])


def mass_and_probes():
    expect(checks.transferred_mass(0.0602, 0.0602 + 1e-12)[0])
    expect(not checks.transferred_mass(0.0602, 0.0602 + 1e-6)[0])
    expect(checks.probes(np.array([0.0, 1e-7, -2e-7]))[0])
    expect(not checks.probes(np.zeros(5))[0])
    expect(not checks.probes(np.array([0.0, np.nan]))[0])


def manifest():
    HERE.joinpath("out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
    try:
        out = work / "probes.csv"
        out.write_text("time,p\n0,0\n")
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        path = work / "manifest.json"
        path.write_text(json.dumps({"outputs": {out.name: digest}}))
        expect(checks.manifest(path)[0])
        out.write_text("time,p\n0,1\n")
        expect(not checks.manifest(path)[0])
        out.unlink()
        expect(not checks.manifest(path)[0])
    finally:
        shutil.rmtree(work)


TESTS = (reciprocity, free_field, load_sum, column_sums, manufactured_order, collocated_e2,
         divergence, mass_and_probes, manifest)


def main() -> int:
    failed = 0
    for test in TESTS:
        try:
            test()
            print(f"ok   {test.__name__}")
        except AssertionError:
            failed += 1
            print(f"FAIL {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
