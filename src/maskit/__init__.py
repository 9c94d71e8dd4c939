"""Numerical toolkit for once-punctured-torus quasifuchsian slices.

For the family A = [[iz, i], [i, 0]], B = [[1, 2], [0, 1]], extended by the
commuting parabolic C = [[1, w], [0, 1]], the package computes slope traces
by the Farey recursion (as numbers and as exact polynomials), classifies
points of the parameter slice, locates boundary cusps to high precision,
rasterizes slices, and certifies a rectangle witnessing infinitely many
bounded components in an extension locus.  It works with traces only; the
matrices themselves live beside the tests, as the oracle that the
recursion is checked against.
"""

from .classify import (
    Classification,
    RealClassifier,
    SyntheticSlice,
    Verdict,
    classify_point,
)
from .cusps import (
    BoundaryCuspError,
    CuspResult,
    RootSolveError,
    cusp_point,
    pleating_ray,
    poly_roots,
)
from .farey import (
    FareySlope,
    TraceCache,
    TracePolynomial,
    slope,
    slopes_up_to,
    trace_polynomial,
)
from .raster import (
    CELL_INSIDE_MINUS,
    CELL_INSIDE_PLUS,
    CELL_MEMBER,
    CELL_NON_MEMBER,
    CELL_OUTSIDE,
    CELL_UNDETERMINED,
    AMembership,
    AVerdict,
    AxisRectangle,
    Component,
    Raster,
    Window,
    a_membership,
    components,
    membership_with,
    rasterize_a_slice,
    rasterize_maskit,
    to_ppm_bytes,
)
from .witness import (
    ComponentsNearInfinity,
    WitnessReport,
    WitnessSearchError,
    build_R,
    components_near_infinity,
    find_rectangle,
    normalized_length,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AMembership",
    "AVerdict",
    "AxisRectangle",
    "BoundaryCuspError",
    "CELL_INSIDE_MINUS",
    "CELL_INSIDE_PLUS",
    "CELL_MEMBER",
    "CELL_NON_MEMBER",
    "CELL_OUTSIDE",
    "CELL_UNDETERMINED",
    "Classification",
    "Component",
    "ComponentsNearInfinity",
    "CuspResult",
    "FareySlope",
    "Raster",
    "RealClassifier",
    "RootSolveError",
    "SyntheticSlice",
    "TraceCache",
    "TracePolynomial",
    "Verdict",
    "Window",
    "WitnessReport",
    "WitnessSearchError",
    "a_membership",
    "build_R",
    "classify_point",
    "components",
    "components_near_infinity",
    "cusp_point",
    "find_rectangle",
    "membership_with",
    "normalized_length",
    "pleating_ray",
    "poly_roots",
    "rasterize_a_slice",
    "rasterize_maskit",
    "slope",
    "slopes_up_to",
    "to_ppm_bytes",
    "trace_polynomial",
    "verify_witness",
]
