"""Combinatorial Levy processes on labeled relational structures.

Simulation of discrete-time random walks and continuous-time Poisson-driven
jump processes on structure spaces (sets, graphs, networks with community
structure, and general relational signatures), plus estimation of jump
measures and a Monte Carlo test of exchangeability from observed trajectories.
"""

from .structures import (
    Signature,
    Structure,
    Permutation,
    empty_structure,
    increment,
    restrict,
    relabel,
    agreement_level,
    serialize,
    parse,
)
from .orbits import (
    OrbitId,
    OrbitTable,
    canonical_form,
    orbit_of,
    orbit_size,
    orbit_members,
    enumerate_orbits,
)
from .measures import (
    FiniteMeasure,
    OrbitWeights,
    uniform_on_orbit,
    urn_measure,
    bernoulli_set_measure,
    is_exchangeable,
    symmetrize,
    decompose_exchangeable,
    recompose,
    measure_to_json,
    measure_from_json,
    point_mass,
    point_mass_at_empty,
)
from .rng import make_rng, ALGORITHM
from .walk import (
    WalkTrajectory,
    simulate_walk,
    walk_distribution_exact,
    project_orbit_chain,
    orbit_kernel,
    walk_to_csv,
    walk_from_csv,
)
from .levy import (
    MixtureAtom,
    SetSingletonComponent,
    VertexComponent,
    PairComponent,
    LoopComponent,
    ExplicitFinite,
    LevyIntensity,
    LevyTrajectory,
    RestrictedIntensity,
    simulate_levy,
    restrict_trajectory,
    marginal_flip_probability,
    intensity_to_json,
    intensity_from_json,
    trajectory_to_csv,
    trajectory_from_csv,
)
from .limits import (
    DensityVector,
    hom_density_exact,
    density_vector,
    hom_density_mc,
    set_frequency,
    limit_path,
    density_l1,
)
from .inference import (
    TestReport,
    empirical_jump_measure,
    chi_square_exchangeability,
    report_to_json,
)

__version__ = "0.1.0"
