"""Multiscale interior-penalty DG solver for 2D flow through and around
circular porous inclusions."""

from .analysis import (
    ErrorReport,
    coarse_average,
    dof_fine,
    dof_multiscale,
    error_pressure,
    error_stress,
    error_velocity,
    field_statistics,
)
from .errors import ConfigError, MeshFormatError, MsflowError, SingularSystemError
from .fine_solver import StepOperators, Trajectory, run_fine
from .geometry import (
    CircleInclusion,
    CoarseGrid,
    DomainSpec,
    TriMesh,
    build_edge_topology,
    generate_structured_mesh,
    load_mesh,
    oversample_region,
    save_mesh,
)
from .gmsfem import (
    MultiscaleSpace,
    SnapshotSet,
    build_multiscale_space,
    build_projection,
    build_snapshots,
    compute_linearization_field,
    run_multiscale,
    spectral_reduce,
)
from .parameters import BoundaryData, DGState, ModelParameters, preset_parameters
from .patches import Patch, coarse_cell_patch, full_patch
from .saddle import SaddleSolver, SaddleSystem

__version__ = "0.1.0"
