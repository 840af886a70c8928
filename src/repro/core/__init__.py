"""``repro.core`` — local memory-aware kernel perforation.

The package implements the paper's contribution:

* perforation schemes (:mod:`repro.core.schemes`): Rows1/Rows2/Stencil1
  plus column and random variants;
* reconstruction techniques (:mod:`repro.core.reconstruction`):
  nearest-neighbour and linear interpolation, exposed both as NumPy
  operators and as approximate *input samplers*;
* the compiler-level perforator (:mod:`repro.core.perforator`) that turns
  OpenCL C kernels into perforated + reconstructing kernels;
* the result types of the evaluation pipeline (:mod:`repro.core.pipeline`)
  and of the parameter sweeps (:mod:`repro.core.tuning`), error metrics
  (:mod:`repro.core.quality`) and Pareto analysis
  (:mod:`repro.core.pareto`).

:class:`repro.api.PerforationEngine` runs the pipeline and the sweeps;
:mod:`repro.api.calibration` calibrates and selects under an error budget.
"""

from .config import (
    ACCURATE_CONFIG,
    ApproximationConfig,
    DEFAULT_WORK_GROUP,
    FIGURE8_CONFIGS,
    ROWS1_LI,
    ROWS1_NN,
    ROWS2_NN,
    STENCIL1_NN,
    WORK_GROUP_CANDIDATES,
    default_configurations,
)
from .errors import (
    ConfigurationError,
    PerforationError,
    QualityError,
    ReconstructionError,
    SchemeError,
    TuningError,
)
from .pareto import dominates, hypervolume_2d, is_pareto_optimal, pareto_front
from .perforator import KernelPerforator, PerforatedKernel
from .pipeline import ConfigurationResult, DatasetResult
from .quality import (
    ErrorMetric,
    ErrorSummary,
    compute_error,
    max_error,
    mean_error,
    mean_relative_error,
    normalized_mean_error,
    psnr,
    rmse,
)
from .reconstruction import (
    AccurateSampler,
    ApproximateInput,
    InputSampler,
    LINEAR_INTERPOLATION,
    NEAREST_NEIGHBOR,
    ColumnTileSampler,
    ReconstructedImageSampler,
    RowTileSampler,
    StencilTileSampler,
    approximate_input,
    loaded_row_indices,
    make_sampler,
    perforate,
    reconstruct_columns,
    reconstruct_mask,
    reconstruct_rows,
    sampler_key,
)
from .schemes import (
    ACCURATE,
    COLS1,
    ColumnPerforation,
    PerforationScheme,
    ROWS1,
    ROWS2,
    RandomPerforation,
    RowPerforation,
    STENCIL1,
    StencilPerforation,
    available_schemes,
    get_scheme,
)
from .tuning import SweepPoint, SweepResult, WorkGroupTiming

__all__ = [
    "ACCURATE",
    "ACCURATE_CONFIG",
    "AccurateSampler",
    "ApproximateInput",
    "ApproximationConfig",
    "COLS1",
    "ColumnPerforation",
    "ConfigurationError",
    "ConfigurationResult",
    "DatasetResult",
    "DEFAULT_WORK_GROUP",
    "ErrorMetric",
    "ErrorSummary",
    "FIGURE8_CONFIGS",
    "InputSampler",
    "KernelPerforator",
    "LINEAR_INTERPOLATION",
    "NEAREST_NEIGHBOR",
    "PerforatedKernel",
    "PerforationError",
    "PerforationScheme",
    "QualityError",
    "ColumnTileSampler",
    "ReconstructedImageSampler",
    "RowTileSampler",
    "ReconstructionError",
    "ROWS1",
    "ROWS1_LI",
    "ROWS1_NN",
    "ROWS2",
    "ROWS2_NN",
    "RandomPerforation",
    "RowPerforation",
    "STENCIL1",
    "STENCIL1_NN",
    "SchemeError",
    "StencilPerforation",
    "StencilTileSampler",
    "SweepPoint",
    "SweepResult",
    "TuningError",
    "WORK_GROUP_CANDIDATES",
    "WorkGroupTiming",
    "approximate_input",
    "available_schemes",
    "compute_error",
    "default_configurations",
    "dominates",
    "get_scheme",
    "hypervolume_2d",
    "is_pareto_optimal",
    "loaded_row_indices",
    "make_sampler",
    "max_error",
    "mean_error",
    "mean_relative_error",
    "normalized_mean_error",
    "pareto_front",
    "perforate",
    "psnr",
    "reconstruct_columns",
    "reconstruct_mask",
    "reconstruct_rows",
    "rmse",
    "sampler_key",
]
