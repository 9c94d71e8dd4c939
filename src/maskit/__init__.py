"""Numerical toolkit for once-punctured-torus quasifuchsian slices.

For the family A = [[iz, i], [i, 0]], B = [[1, 2], [0, 1]], extended by the
commuting parabolic C = [[1, w], [0, 1]], the package computes slope traces
by the Farey recursion (as numbers and as exact polynomials), classifies
points of the parameter slice, locates boundary cusps to high precision,
rasterizes slices, and certifies a rectangle witnessing infinitely many
bounded components in an extension locus.  It works with traces only; the
matrices themselves live beside the tests, as the oracle that the
recursion is checked against.

`import maskit` loads no submodule: each public name is imported from its
home module on first access (PEP 562).  numpy is imported only by the
batch paths (classify_grid, the rasters, the witness and poly_roots), so a
caller that uses only the Farey recursion, classify_point, the CELL_*
codes or cusp_point never loads it.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOME = {
    "CELL_INSIDE_MINUS": "classify",
    "CELL_INSIDE_PLUS": "classify",
    "CELL_OUTSIDE": "classify",
    "CELL_UNDETERMINED": "classify",
    "Classification": "classify",
    "RealClassifier": "classify",
    "SyntheticSlice": "classify",
    "Verdict": "classify",
    "classify_point": "classify",
    "BoundaryCuspError": "cusps",
    "CuspResult": "cusps",
    "RootSolveError": "cusps",
    "cusp_point": "cusps",
    "pleating_ray": "cusps",
    "poly_roots": "cusps",
    "FareySlope": "farey",
    "TraceCache": "farey",
    "TracePolynomial": "farey",
    "slope": "farey",
    "slopes_up_to": "farey",
    "trace_polynomial": "farey",
    "CELL_MEMBER": "raster",
    "CELL_NON_MEMBER": "raster",
    "AMembership": "raster",
    "AVerdict": "raster",
    "AxisRectangle": "raster",
    "Component": "raster",
    "Raster": "raster",
    "Window": "raster",
    "a_membership": "raster",
    "components": "raster",
    "membership_with": "raster",
    "rasterize_a_slice": "raster",
    "rasterize_maskit": "raster",
    "to_ppm_bytes": "raster",
    "ComponentsNearInfinity": "witness",
    "WitnessReport": "witness",
    "WitnessSearchError": "witness",
    "build_R": "witness",
    "components_near_infinity": "witness",
    "find_rectangle": "witness",
    "normalized_length": "witness",
    "verify_witness": "witness",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
