"""baryrom: parametric reduced-order models from barycentric subspace interpolation."""

__version__ = "0.1.0"

from .errors import (
    BaryromError,
    ConfigError,
    DataIntegrityError,
    DivergedSolutionError,
    DuplicateNodesError,
    NotConvergedError,
    NumericalError,
    RankDeficientError,
    RankTooSmallError,
    ShapeMismatchError,
    SingularMassError,
    SingularOverlapError,
    ZeroReferenceError,
)
from .manifold import (
    BarycenterResult,
    distance,
    exp_map,
    gram_coordinates,
    itsgm_interpolate,
    karcher_barycenter,
    log_map,
    orthonormalize,
    procrustes_rotation,
    subspace_distance,
)
from .metrics import ErrorReport, error_at_time, mean_error
from .pod import (
    InnerProduct,
    PODBasis,
    SnapshotMatrix,
    compute_pod,
    energy_fraction,
    global_mean,
)
from .rom import (
    CrossGalerkinTensors,
    FactoredField,
    ReducedModel,
    ReducedTrajectory,
    assemble_cross_tensors,
    combined_basis,
    direct_project,
    factored_field,
    initial_condition,
    integrate_rom,
    reconstruct_field,
    stacked,
    update_reduced_model,
    weighted_rotations,
)
from .solver import Grid1D, SolverConfig, initial_profile, run, run_batch, step
from .weights import WeightScheme, WeightVector, evaluate_weights, select_neighbors
