"""Time-frequency concentration operators: Gabor transforms, region
concentration spectra, scaling asymptotics, and eigenfunction regularity."""

from ._version import __version__
from .errors import (
    ConfigError,
    CoverageError,
    DomainError,
    NumericalError,
    TfcError,
    UnsupportedCaseError,
)
from .grids import (
    PhaseGrid,
    SampleGrid,
    Signal,
    fourier_transform,
    grids_compatible,
    inverse_fourier_transform,
)
from .windows import Window, make_window
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
    count,
    eigendecompose,
    eigenfilter,
    energy,
)
from .oracles import analyze, assemble_direct, phase_space_eigenvalues
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
    "CoverageError",
    "DomainError",
    "NumericalError",
    "UnsupportedCaseError",
    "ConfigError",
    # grids and signals
    "SampleGrid",
    "Signal",
    "PhaseGrid",
    "fourier_transform",
    "inverse_fourier_transform",
    "grids_compatible",
    # windows
    "Window",
    "make_window",
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
    "eigendecompose",
    "count",
    "energy",
    "eigenfilter",
    # test oracles the acceptance gate calls
    "analyze",
    "assemble_direct",
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
