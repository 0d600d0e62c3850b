"""Partially linear models whose nonparametric covariate lives on a manifold,
with a complete Kendall 3D shape-space backend."""

from .baselines import (
    TangentPcaModel,
    baseline_loocv,
    fit_cumulative_logit,
    predict_cumulative_logit,
    tangent_pca,
)
from .errors import (
    BandwidthTooSmallError,
    DegenerateConfigurationError,
    DegenerateDatasetError,
    DivergenceError,
    IllConditionedError,
    InputFileError,
    InvalidArgumentError,
    NonConvergenceError,
    OutOfChartError,
    ShapeGplmError,
    UsageError,
)
from .geometry import (
    KendallShapeBackend,
    PreShape,
    ShapeSample,
    SphereBackend,
    centroid_size,
    density_exponent,
    exponential_map,
    helmert_submatrix,
    log_density_from_distance,
    log_volume_density,
    preshape,
    procrustes_distance,
    procrustes_mean,
    tangent_coordinates,
)
from .io import DatasetBundle, ingest, read_landmarks, write_landmarks
from .models import (
    FitConfig,
    GplmFit,
    OrdinalPrediction,
    OrdinalWorkMatrices,
    fit_logistic_plm,
    fit_ordinal_plm,
    fit_plm,
    ordinal_work_matrices,
    predict_logistic,
    predict_ordinal,
)
from .selection import CvReport, bandwidth_sweep, loocv
from .smoothing import KernelSpec, SmootherCache, kernel_weight, pelletier_estimate, smooth_all

__version__ = "0.1.0"
