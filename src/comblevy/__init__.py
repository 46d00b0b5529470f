"""Combinatorial Levy processes on labeled relational structures.

Simulation of discrete-time random walks and continuous-time Poisson-driven
jump processes on structure spaces (sets, graphs, networks with community
structure, and general relational signatures), plus estimation of jump
measures and a Monte Carlo test of exchangeability from observed trajectories.

The public names live in the submodules and are imported on first access
(PEP 562), so ``import comblevy`` loads none of them, and an importer that
reads only an intensity loads only ``levy`` and what it imports.
"""

import importlib

# home submodule -> the public names it defines
_EXPORTS = {
    "structures": (
        "Signature",
        "Structure",
        "Permutation",
        "empty_structure",
        "increment",
        "restrict",
        "relabel",
        "serialize",
        "parse",
    ),
    "orbits": (
        "OrbitId",
        "OrbitTable",
        "canonical_form",
        "orbit_of",
        "orbit_members",
        "enumerate_orbits",
    ),
    "measures": (
        "FiniteMeasure",
        "OrbitWeights",
        "urn_measure",
        "is_exchangeable",
        "symmetrize",
        "decompose_exchangeable",
        "measure_to_json",
        "measure_from_json",
        "point_mass",
    ),
    "rng": (
        "make_rng",
        "ALGORITHM",
    ),
    "walk": (
        "WalkTrajectory",
        "simulate_walk",
        "walk_distribution_exact",
        "project_orbit_chain",
        "orbit_kernel",
        "walk_to_csv",
        "walk_from_csv",
    ),
    "levy": (
        "MixtureAtom",
        "LocalComponent",
        "SetSingletonComponent",
        "VertexComponent",
        "PairComponent",
        "LoopComponent",
        "ExplicitFinite",
        "LevyIntensity",
        "LevyTrajectory",
        "RestrictedIntensity",
        "simulate_levy",
        "restrict_trajectory",
        "marginal_flip_probability",
        "intensity_to_json",
        "intensity_from_json",
        "trajectory_to_csv",
        "trajectory_from_csv",
    ),
    "limits": (
        "DensityVector",
        "hom_density_exact",
        "density_vector",
        "hom_density_mc",
        "set_frequency",
        "limit_path",
        "density_l1",
    ),
    "inference": (
        "TestReport",
        "empirical_jump_measure",
        "chi_square_exchangeability",
        "report_to_json",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # the home submodules are attributes of the package, as they were
        # when it imported them all
        return importlib.import_module(f".{name}", __package__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __package__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
