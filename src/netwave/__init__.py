"""Damped wave networks with point-mass oscillators: simulation, spectra,
resolvent sweeps, chain stability determinants and instability probes.

The names below are imported from their submodules on first access
(PEP 562), so `import netwave` loads none of them: `graph`, `chaincrit`
and `cli` need only the standard library, `simulate`, `spectral` and
`resolvent` import numpy, and `counterexample` alone imports mpmath.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "chaincrit": (
        "ChainSpec",
        "ChainVerdict",
        "chain_stable",
        "delta_closed",
        "delta_recurrence",
        "mass_groups",
    ),
    "counterexample": (
        "AxisEigenvalue",
        "CircuitProbe",
        "ConvergentPair",
        "CounterexampleError",
        "GrowthReport",
        "StarProbe",
        "asymptotic_defects",
        "circuit_solve",
        "dirichlet_convergents",
        "growth_law",
        "star_probe",
    ),
    "graph": (
        "Edge",
        "GraphError",
        "Length",
        "MetricGraph",
        "NetwaveError",
        "Vertex",
        "build_graph",
        "make_chain",
        "make_circuit",
        "make_star",
        "make_tree_chain",
        "pi_tree_check",
    ),
    "resolvent": (
        "DiscreteGenerator",
        "ResolventError",
        "SweepReport",
        "assemble_generator",
        "dissipation_defect",
        "resolvent_norm",
        "sweep",
    ),
    "simulate": (
        "EnergySeries",
        "NetworkState",
        "SimulationError",
        "energy",
        "init_state",
        "run",
        "shadow_energy",
        "step",
    ),
    "spectral": (
        "EigenFunction",
        "EigenReport",
        "SpectralError",
        "char_det",
        "char_matrix",
        "eigenfunction",
        "find_eigenvalues",
        "newton_refine",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
