"""Checks of semwave's outputs.

Every reference here is computed in this file, apart from the program: the
free-field monopole and its floor image, the manufactured solution, its
collocated L2 error and the SHA-256 of output files.  The other checks test
properties the method must have (reciprocity, partition of unity,
conservation).  Each check returns ``(passed, measured)`` so that a report
can print the figure next to the verdict.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

RECIPROCITY_TOL = 1e-12  # max |a - b| / max |a|; symmetric M, B, K give roundoff
FREE_FIELD_TOL = 0.05  # max |p - p_ref| / max |p_ref| before the first side-wall echo
E2_AGREE_TOL = 1e-8  # program E2 against the one computed here, relative
ORDER_TOL = 0.5  # |observed h-order - r|
DIVERGENCE_TOL = 1e-9  # max |div - rho0 a^2 (x, y, 0)| / max |rho0 a^2 (x, y, 0)|
COLUMN_SUM_TOL = 1e-6  # max |colsum - volume| / volume
MASS_TOL = 1e-8  # |sum M^AF q - sum M^AA q_A| / max(1, |sum M^AF q|)
LOAD_SUM_TOL = 1e-10  # |sum f| / ||f||_1


def reciprocity(trace: np.ndarray, swapped: np.ndarray) -> tuple[bool, float]:
    """The swapped-source trace must repeat the first one to roundoff."""
    scale = float(np.max(np.abs(trace)))
    if trace.shape != swapped.shape or scale == 0.0:
        return False, float("inf")
    rel = float(np.max(np.abs(trace - swapped))) / scale
    return rel <= RECIPROCITY_TOL, rel


def monopole_with_floor_image(times, src, probe, c0, f0, rho0, z_wall) -> np.ndarray:
    """rho_tt - c0^2 lap rho = delta(x - src) sin(2 pi f0 t) in free space, plus
    the image of the source in the floor z = 0 weighted by the plane-wave
    reflection factor of an impedance wall at the image's incidence angle."""
    src, probe = np.asarray(src, float), np.asarray(probe, float)
    image = src * (1.0, 1.0, -1.0)
    omega = 2.0 * np.pi * f0
    cos_in = (probe[2] + src[2]) / np.linalg.norm(probe - image)
    refl = (z_wall * cos_in - rho0 * c0) / (z_wall * cos_in + rho0 * c0)
    total = np.zeros_like(times)
    for point, weight in ((src, 1.0), (image, refl)):
        r = np.linalg.norm(probe - point)
        tau = times - r / c0
        total += weight * np.where(tau > 0.0, np.sin(omega * tau), 0.0) / (4.0 * np.pi * c0**2 * r)
    return total


def first_side_echo(src, probe, box, c0) -> float:
    """Arrival time of the first reflection off any wall but the floor."""
    src, probe = np.asarray(src, float), np.asarray(probe, float)
    best = np.inf
    for axis in range(3):
        for side, wall in enumerate(box[axis]):
            if axis == 2 and side == 0:
                continue
            image = src.copy()
            image[axis] = 2.0 * wall - src[axis]
            best = min(best, np.linalg.norm(probe - image))
    return float(best / c0)


def free_field(trace, times, src, probe, box, c0, f0, rho0, z_wall) -> tuple[bool, float]:
    """Probe trace against the free field plus floor image, up to the first
    side-wall echo."""
    window = times < first_side_echo(src, probe, box, c0)
    ref = monopole_with_floor_image(times[window], src, probe, c0, f0, rho0, z_wall)
    scale = float(np.max(np.abs(ref)))
    if scale == 0.0:
        return False, float("inf")
    rel = float(np.max(np.abs(trace[window] - ref))) / scale
    return rel <= FREE_FIELD_TOL, rel


def mms_exact(x, y, z, t):
    """u = sin(pi t) sin(4 pi (x-1)(y-1)(z-1)) sin(4 pi x y z)."""
    return np.sin(np.pi * t) * np.sin(4.0 * np.pi * (x - 1.0) * (y - 1.0) * (z - 1.0)) * np.sin(4.0 * np.pi * x * y * z)


def gll_rule(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (roots of (1 - x^2) P_r') and weights 2 / (r (r+1) P_r^2)."""
    pr = np.polynomial.legendre.Legendre.basis(r)
    nodes = np.concatenate(([-1.0], np.sort(pr.deriv().roots().real), [1.0]))
    return nodes, 2.0 / (r * (r + 1) * pr(nodes) ** 2)


def collocated_e2(node_xyz, coeffs, lo, hi, r: int, t: float) -> float:
    """Discrete L2 error on the GLL nodes of box elements.

    node_xyz (ne, nloc, 3) and coeffs (ne, nloc) hold each element's nodes in
    any order; each node's weight follows from its position in the box
    [lo, hi], so no local numbering convention is assumed.
    """
    nodes, weights = gll_rule(r)
    ref = 2.0 * (node_xyz - lo[:, None, :]) / (hi - lo)[:, None, :] - 1.0
    which = np.argmin(np.abs(ref[..., None] - nodes), axis=-1)  # (ne, nloc, 3)
    w = np.prod(weights[which], axis=-1) * np.prod(hi - lo, axis=1)[:, None] / 8.0
    exact = mms_exact(node_xyz[..., 0], node_xyz[..., 1], node_xyz[..., 2], t)
    return float(np.sqrt(np.sum(w * (coeffs - exact) ** 2)))


def agree(program: float, here: float) -> tuple[bool, float]:
    rel = abs(program - here) / abs(here) if here else float("inf")
    return rel <= E2_AGREE_TOL, rel


def h_order(e_coarse: float, e_fine: float, r: int) -> tuple[bool, float]:
    """One halving of h: the error falls and the observed order is near r."""
    if not (0.0 < e_fine < e_coarse):
        return False, float("nan")
    order = float(np.log2(e_coarse / e_fine))
    return abs(order - r) <= ORDER_TOL, order


def lighthill_shear(values, centers, rho0: float, amp: float) -> tuple[bool, float]:
    """div(rho0 u x u) for u = amp (x, -y, 0) is rho0 amp^2 (x, y, 0)."""
    expected = rho0 * amp**2 * np.stack([centers[:, 0], centers[:, 1], np.zeros(len(centers))], axis=1)
    rel = float(np.max(np.abs(values - expected))) / float(np.max(np.abs(expected)))
    return rel <= DIVERGENCE_TOL, rel


def column_sums(sums, volumes) -> tuple[bool, float]:
    """Partition of unity: column l of M^AF integrates 1 over cell l."""
    rel = float(np.max(np.abs(np.asarray(sums) - volumes) / volumes))
    return rel <= COLUMN_SUM_TOL, rel


def transferred_mass(fv_total: float, acoustic_total: float) -> tuple[bool, float]:
    gap = abs(fv_total - acoustic_total) / max(1.0, abs(fv_total))
    return gap <= MASS_TOL, gap


def load_sum(load) -> tuple[bool, float]:
    """sum_i f_i = -(q, grad sum_i phi_i) = 0 by partition of unity."""
    norm1 = float(np.sum(np.abs(load)))
    rel = abs(float(np.sum(load))) / norm1 if norm1 else float("inf")
    return rel <= LOAD_SUM_TOL, rel


def probes(values) -> tuple[bool, float]:
    values = np.asarray(values, float)
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return bool(np.all(np.isfinite(values))) and peak > 0.0, peak


def manifest(path) -> tuple[bool, float]:
    """Every SHA-256 listed in a CLI manifest matches its file."""
    path = Path(path)
    listed = json.loads(path.read_text())["outputs"]
    bad = 0
    for name, digest in listed.items():
        if not (path.parent / name).is_file():
            bad += 1
            continue
        h = hashlib.sha256()
        with open(path.parent / name, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
        bad += h.hexdigest() != digest
    return bad == 0 and len(listed) > 0, float(bad)
