"""Spectral element solver for acoustic and Lighthill aeroacoustic waves."""

from .gll import GllRule, diff_matrix, gll_rule
from .mesh import HexMesh, RefPoint, generate_box_mesh
from .space import SpectralField, SpectralSpace, build_space, evaluate, interpolate, l2_error

__all__ = [
    "GllRule",
    "HexMesh",
    "RefPoint",
    "SpectralField",
    "SpectralSpace",
    "build_space",
    "diff_matrix",
    "evaluate",
    "generate_box_mesh",
    "gll_rule",
    "interpolate",
    "l2_error",
]
