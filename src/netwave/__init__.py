"""Damped wave networks with point-mass oscillators: simulation, spectra,
resolvent sweeps, chain stability determinants and instability probes."""

__version__ = "0.1.0"

from .chaincrit import (  # noqa: F401
    ChainSpec,
    ChainVerdict,
    chain_stable,
    delta_closed,
    delta_recurrence,
    mass_groups,
)
from .counterexample import (  # noqa: F401
    AxisEigenvalue,
    CircuitProbe,
    ConvergentPair,
    CounterexampleError,
    GrowthReport,
    StarProbe,
    asymptotic_defects,
    circuit_solve,
    dirichlet_convergents,
    growth_law,
    star_probe,
)
from .graph import (  # noqa: F401
    Edge,
    GraphError,
    Length,
    MetricGraph,
    Vertex,
    build_graph,
    make_chain,
    make_circuit,
    make_star,
    make_tree_chain,
    pi_tree_check,
)
from .resolvent import (  # noqa: F401
    DiscreteGenerator,
    ResolventError,
    SweepReport,
    assemble_generator,
    dissipation_defect,
    resolvent_norm,
    sweep,
)
from .simulate import (  # noqa: F401
    EnergySeries,
    NetworkState,
    SimulationError,
    energy,
    init_state,
    run,
    shadow_energy,
    step,
)
from .spectral import (  # noqa: F401
    EigenFunction,
    EigenReport,
    SpectralError,
    char_det,
    char_matrix,
    eigenfunction,
    find_eigenvalues,
    newton_refine,
)
