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
from .metrics import ErrorReport, mean_error
from .pod import (
    PODBasis,
    SnapshotMatrix,
    compute_pod,
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
    update_reduced_model,
    weighted_rotations,
)
from .solver import Grid1D, SolverConfig, initial_profile, run, run_batch
from .weights import WeightVector, lagrange_weights, select_neighbors
