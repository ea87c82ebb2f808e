"""Time-frequency concentration operators: Gabor transforms, region
concentration spectra, scaling asymptotics, and eigenfunction regularity."""

from ._version import __version__
from .errors import (
    AlignmentError,
    ConfigError,
    CoverageError,
    DegenerateWindowError,
    DomainError,
    GridMismatchError,
    InvalidScaleError,
    NumericalError,
    TfcError,
    TruncationError,
    UnsupportedCaseError,
)
from .grids import (
    SampleGrid,
    Signal,
    fourier_transform,
    grids_compatible,
    inner_product,
    inverse_fourier_transform,
    tf_shift,
)
from .windows import Window, make_window
from .gabor import GaborCoefficients, PhaseGrid, ambiguity_table, analyze, synthesize
from .regions import (
    Disc,
    Mask,
    Polygon,
    RasterizedRegion,
    Rect,
    Region,
    parse_region,
    rasterize,
    region_label,
)
from .operators import (
    ConcentrationOperator,
    Spectrum,
    assemble,
    assemble_direct,
    count,
    eigendecompose,
    eigenfilter,
    energy,
    hs_identity,
    phase_space_eigenvalues,
    phase_space_matrix,
)
from .hermite import hermite_samples
from .scaling import (
    ScalingReport,
    ScalingRow,
    auto_grid,
    autocorr_integral,
    decay_condition_margins,
    hs_error_rate,
    plunge_fit,
    scaling_experiment,
)
from .decay import (
    majorant_check,
    fourier_side_check,
    hermite_benchmark,
    kernel_vanishing_check,
)

__all__ = [
    "__version__",
    # errors
    "TfcError",
    "GridMismatchError",
    "AlignmentError",
    "TruncationError",
    "DegenerateWindowError",
    "InvalidScaleError",
    "CoverageError",
    "DomainError",
    "NumericalError",
    "UnsupportedCaseError",
    "ConfigError",
    # grids and signals
    "SampleGrid",
    "Signal",
    "inner_product",
    "fourier_transform",
    "inverse_fourier_transform",
    "tf_shift",
    "grids_compatible",
    # windows
    "Window",
    "make_window",
    # gabor
    "PhaseGrid",
    "GaborCoefficients",
    "analyze",
    "synthesize",
    "ambiguity_table",
    # regions
    "Region",
    "Disc",
    "Rect",
    "Polygon",
    "Mask",
    "RasterizedRegion",
    "rasterize",
    "parse_region",
    "region_label",
    # operators
    "ConcentrationOperator",
    "Spectrum",
    "assemble",
    "assemble_direct",
    "eigendecompose",
    "count",
    "hs_identity",
    "energy",
    "eigenfilter",
    "phase_space_matrix",
    "phase_space_eigenvalues",
    # hermite
    "hermite_samples",
    # scaling
    "ScalingRow",
    "ScalingReport",
    "auto_grid",
    "scaling_experiment",
    "plunge_fit",
    "hs_error_rate",
    "autocorr_integral",
    "decay_condition_margins",
    # decay
    "majorant_check",
    "kernel_vanishing_check",
    "fourier_side_check",
    "hermite_benchmark",
]
