#!/usr/bin/env python3
"""Stiffness crossover: assembled CSR against the sum-factorised kernel.

For box and warped hex meshes of about 24k DOFs at r = 1-5 and 9-11, times
one stiffness apply on each path and the CSR build, and prints one JSON
table: the local row width W, stored nonzeros a row, CSR and g6 apply ms
(thread CPU, best of 5 batches of 20 applies), the build ms (element
geometry plus stiffness_matrix, reference map cached, best of 3) and K's
MB.  The path is forced by setting assembly.CSR_MAX_WIDTH before each space
is built.  Run with one BLAS thread, e.g. OMP_NUM_THREADS=1
OPENBLAS_NUM_THREADS=1 python scripts/stiffness_crossover.py.  It only
times, so CI does not run it.
"""
import json
import time

import numpy as np

from semwave import assembly, build_space, generate_box_mesh
from semwave.mesh import HexMesh

EXTENT = np.array([1.4, 1.19, 0.825])  # the noise-box room
DEGREES = (1, 2, 3, 4, 5, 9, 10, 11)


def mesh_for(r: int, warped: bool) -> HexMesh:
    """The room in round((36, 30, 20) / r) elements; warped: x += 0.08 L_x s and
    y += 0.04 L_y s with s = prod sin(pi x_a / L_a), so the boundary stays."""
    box = generate_box_mesh([(0.0, e) for e in EXTENT], [max(1, round(n / r)) for n in (36, 30, 20)])
    if not warped:
        return box
    v = box.vertices.copy()
    s = np.prod(np.sin(np.pi * v / EXTENT), axis=1)
    v[:, :2] += np.array([0.08, 0.04]) * EXTENT[:2] * s[:, None]
    return HexMesh(v, box.elements, box.boundary)


def apply_ms(space, u) -> float:
    best = np.inf
    for _ in range(5):
        t0 = time.thread_time()
        for _ in range(20):
            assembly.apply_stiffness(space, u)
        best = min(best, (time.thread_time() - t0) / 20)
    return 1e3 * best


def space_on(mesh, r, cap):
    assembly.CSR_MAX_WIDTH = cap
    return build_space(mesh, r)


def main() -> None:
    cap, rows = assembly.CSR_MAX_WIDTH, []
    for warped in (False, True):
        for r in DEGREES:
            mesh = mesh_for(r, warped)
            csr = space_on(mesh, r, 10**9)
            u = np.random.default_rng(r).standard_normal(csr.ndof)
            k = assembly.stiffness_matrix(csr)  # caches the reference map of degree r
            build = np.inf
            for _ in range(3):
                fresh = space_on(mesh, r, 10**9)
                t0 = time.thread_time()
                assembly.stiffness_matrix(fresh)
                build = min(build, time.thread_time() - t0)
            g6 = space_on(mesh, r, 0)
            ku_csr, ku_g6 = assembly.apply_stiffness(csr, u), assembly.apply_stiffness(g6, u)
            rows.append({
                "mesh": "warped" if warped else "box", "r": r, "ndof": csr.ndof,
                "W": assembly.row_width(r, not warped), "nnz_per_row": round(k.nnz / csr.ndof, 2),
                "csr_ms": round(apply_ms(csr, u), 3), "g6_ms": round(apply_ms(g6, u), 3),
                "build_ms": round(1e3 * build, 1),
                "k_mb": round((k.data.nbytes + k.indices.nbytes + k.indptr.nbytes) / 1e6, 2),
                "max_relative_difference": float(np.abs(ku_csr - ku_g6).max() / np.abs(ku_g6).max()),
            })
            print(json.dumps(rows[-1]), flush=True)
            del csr, fresh, g6, k
    assembly.CSR_MAX_WIDTH = cap
    print(json.dumps({"cap": cap, "rows": rows}))


if __name__ == "__main__":
    main()
