"""Spans around semwave's public functions, recorded from outside the program.

``Tracer.install`` swaps each traced function for a wrapper, both where it is
defined and wherever another semwave module imported it by name (for example
``semwave.cli.neumann_load``), and swaps traced methods on their classes.
``pcg`` is traced twice under two names: as ``newmark.pcg`` where the march
calls it and as ``projection.pcg`` where the projection calls it.  Spans
(name, start, end, parent, round) stay in memory until ``write``.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from os.path import getsize
from time import perf_counter

FUNCTIONS = {
    "assembly.apply_stiffness": ("semwave.assembly", "apply_stiffness"),
    "assembly.surface_quadrature": ("semwave.assembly", "surface_quadrature"),
    "assembly.neumann_load": ("semwave.assembly", "neumann_load"),
    "assembly.volume_load": ("semwave.assembly", "volume_load"),
    "assembly.element_geometry": ("semwave.assembly", "element_geometry"),
    "assembly.assemble_operators": ("semwave.assembly", "assemble_operators"),
    "newmark.newmark_step": ("semwave.newmark", "newmark_step"),
    "newmark.write_probe_csv": ("semwave.newmark", "write_probe_csv"),
    "space.build_space": ("semwave.space", "build_space"),
    "space.evaluate": ("semwave.space", "evaluate"),
    "space.l2_error": ("semwave.space", "l2_error"),
    "space.write_vtk": ("semwave.space", "write_vtk"),
    "projection.assemble_coupling": ("semwave.projection", "assemble_coupling"),
    "projection.consistent_mass": ("semwave.projection", "consistent_mass"),
    "projection.aeroacoustic_load": ("semwave.projection", "aeroacoustic_load"),
    "fvsource.generate_box_fv": ("semwave.fvsource", "generate_box_fv"),
    "fvsource.lighthill_divergence": ("semwave.fvsource", "lighthill_divergence"),
    "fvsource.save_fv": ("semwave.fvsource", "save_fv"),
    "fvsource.load_fv": ("semwave.fvsource", "load_fv"),
    "cli.write_manifest": ("semwave.cli", "write_manifest"),
}
METHODS = {
    "mesh.locate_point": ("semwave.mesh", "HexMesh", "locate_point"),
    "projection.project": ("semwave.projection", "ProjectionOperator", "project"),
    "assembly.convective_apply": ("semwave.assembly", "ConvectiveOperators", "apply"),
}
# the same function object under a per-caller name
BY_CALLER = {
    "newmark.pcg": ("semwave.newmark", "pcg"),
    "projection.pcg": ("semwave.projection", "pcg"),
}
LAYER_SPANS = {*FUNCTIONS, *METHODS, *BY_CALLER}


def _on_result(tracer: "Tracer", name: str, args, kwargs, result):
    """Counters read from a call's arguments or result."""
    c = tracer.counts[tracer.round]
    if name == "mesh.locate_point":
        c["mesh.locate_point.misses"] += result is None
    elif name in ("newmark.pcg", "projection.pcg"):
        c[f"{name}.iterations"] += result[1]
    elif name == "projection.assemble_coupling":
        c["projection.coupling.nnz"] += result.matrix.nnz
        c["projection.coupling.outside_samples"] += result.outside_samples
    elif name == "fvsource.save_fv":
        c["fvsource.save_fv.bytes"] += getsize(args[0])
    elif name == "space.write_vtk":
        c["space.write_vtk.bytes"] += getsize(args[2] if len(args) > 2 else kwargs["path"])
    elif name == "cli.write_manifest":
        outputs = args[2] if len(args) > 2 else kwargs["outputs"]
        c["cli.output.bytes"] += sum(getsize(p) for p in outputs) + getsize(result)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.round = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.round])
        self._stack.append(idx)
        self.counts[self.round][f"{name}.calls"] += 1
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            _on_result(self, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, only_module=None):
        for modname, mod in list(sys.modules.items()):
            if not (modname == "semwave" or modname.startswith("semwave.")):
                continue
            if only_module is not None and modname != only_module:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self.wrap(name, original))
        for name, (modname, attr) in BY_CALLER.items():
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self.wrap(name, original), only_module=modname)
        for name, (modname, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def round_totals(self, rnd: int) -> dict[str, float]:
        """Calls, counters and self time (span minus its children) per name
        for one round."""
        child = defaultdict(float)
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == rnd]
        for _, (name, start, end, parent, _) in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float, self.counts[rnd])
        totals["trace.spans"] = len(spans)
        for i, (name, start, end, _, _) in spans:
            totals[f"{name}.s"] += end - start - child[i]
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "round": rnd}) + "\n")
