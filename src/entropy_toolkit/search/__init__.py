"""Distribution search, point clouds and the cross-section geometry."""

from .engine import (
    Cloud,
    DistributionObjective,
    SearchConfig,
    SearchResult,
    generate_cloud,
    minimize_scalar,
    nelder_mead,
    optimize_distribution,
    restart_seed,
    softmax,
    sphere_directions,
    vertex_seed_distributions,
)
from .geometry import (
    Polytope3,
    active_constraints,
    convex_hull_3d,
    hull_to_obj,
    hull_volume,
    outer_region,
)
