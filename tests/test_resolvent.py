import math
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import netwave.resolvent
from netwave.graph import make_circuit, make_star, make_tree_chain
from netwave.resolvent import (
    HUGE,
    ResolventError,
    assemble_generator,
    dissipation_defect,
    resolvent_norm,
    sweep,
)
from netwave.simulate import SimulationError

GRAPHS = [
    make_tree_chain(["1", "0.9"], [1.0]),
    make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0]),
    make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0]),
    make_star("1", "1", "sqrt(2)"),
    make_circuit("sqrt(2)"),
]


def test_generator_dissipative_on_random_states():
    rng = np.random.default_rng(31)
    for graph in GRAPHS:
        gen = assemble_generator(graph, 16.0)
        for _ in range(50):
            z = rng.standard_normal(gen.dim)
            wnorm = float(np.real(np.vdot(gen.W @ z, z)))
            assert dissipation_defect(gen, z) <= 1e-12 * max(wnorm, 1.0)


def test_dissipation_matches_damped_vertex_velocities():
    # Re<A z, z>_W equals minus the sum of squared velocities at the damped
    # vertices, exactly
    graph = make_tree_chain(["1", "0.9"], [1.0])
    gen = assemble_generator(graph, 16.0)
    rng = np.random.default_rng(7)
    damped = [i for i in range(gen.nfield)
              if gen.A[gen.nfield + i, gen.nfield + i] != 0]
    z = rng.standard_normal(gen.dim)
    defect = float(np.real(np.vdot(gen.W @ (gen.A @ z), z)))
    vsq = sum(z[gen.nfield + i] ** 2 for i in damped)
    assert abs(defect + vsq) <= 1e-10 * max(1.0, abs(defect))


def test_resolvent_norm_symmetric_in_beta():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    gen = assemble_generator(graph, 32.0)
    for beta in (0.7, 3.1, 12.0):
        n1 = resolvent_norm(gen, beta)
        n2 = resolvent_norm(gen, -beta)
        assert abs(n1 - n2) <= 1e-3 * n1


def test_resolvent_norm_matches_dense_svd():
    # ||R||_W = ||G R G^{-1}||_2 with W = G'G, on every variant's generator
    for graph in GRAPHS:
        gen = assemble_generator(graph, 8.0)
        G = np.linalg.cholesky(gen.W.toarray()).T
        # beta = 0, and the oscillator resonances of the masses 2 and 1
        for beta in (0.0, 0.5, 1.0 / math.sqrt(2.0), 1.0, 2.0):
            R = np.linalg.inv(1j * beta * np.eye(gen.dim) - gen.A.toarray())
            exact = np.linalg.norm(G @ R @ np.linalg.inv(G), 2)
            assert abs(resolvent_norm(gen, beta) - exact) <= 1e-5 * exact


def test_resolvent_norm_factors_the_half_size_system(monkeypatch):
    # one LU per beta, of the (y, p) system H0 + beta (H1 + beta H2), not of
    # the full first-order L; H(beta) is written into storage kept on the
    # generator, so two betas in turn must each see their own values
    recorded = []

    def recording_splu(matrix, *args, **kwargs):
        recorded.append(matrix.copy())
        return splu(matrix, *args, **kwargs)

    gen = assemble_generator(make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0]), 16.0)
    monkeypatch.setattr(netwave.resolvent, "splu", recording_splu)
    n = gen.nfield + len(gen.layout.mass_ids)
    for count, beta in enumerate((2.0, 0.7), start=1):
        resolvent_norm(gen, beta)
        assert len(recorded) == count
        H = recorded[-1]
        assert H.shape == (n, n)
        fresh = gen.H0 + beta * (gen.H1 + beta * gen.H2)
        assert np.array_equal(H.toarray(), fresh.toarray())


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 1e200])
def test_resolvent_norm_refuses_non_finite_beta(beta):
    # NaN used to read as the HUGE sentinel of an axis eigenvalue, and
    # beta^2 = inf overflowed in the assembly of H(beta)
    gen = assemble_generator(make_tree_chain(["1", "0.9"], [1.0]), 8.0)
    with pytest.raises(ResolventError, match="finite"):
        resolvent_norm(gen, beta)


@pytest.mark.parametrize("beta", [1e100, 1e120, 1e140])
def test_resolvent_norm_at_large_finite_beta(beta):
    # ||(i beta - A)^{-1}|| ~ 1/beta far up the axis; the squared W-norm of
    # the iterate (~1/beta^4) underflowed and read as an axis eigenvalue
    gen = assemble_generator(make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0]), 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = resolvent_norm(gen, beta)
    assert math.isfinite(norm)
    assert abs(norm * beta - 1.0) <= 0.01


def test_resolvent_norm_refuses_a_beta_that_overflows_h():
    # beta^2 is finite at 1.3e154, but beta^2 times the oscillator mass 2
    # in H2 is not
    gen = assemble_generator(make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0]), 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResolventError, match="finite"):
            resolvent_norm(gen, 1.3e154)
        norm = resolvent_norm(gen, 1e150)
    assert abs(norm * 1e150 - 1.0) <= 0.01


def test_resolvent_norm_at_the_top_of_the_beta_range():
    # on the circuit H(1.3e154) is finite, and the iterate ~ 1/beta^2 is
    # subnormal: rescaling it must not overflow
    gen = assemble_generator(make_circuit("sqrt(2)"), 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = resolvent_norm(gen, 1.3e154)
    assert abs(norm * 1.3e154 - 1.0) <= 0.01


def test_resolvent_norm_keeps_no_state_between_calls():
    # the per-generator constants are computed once and reused, so the norms
    # must not depend on the order of the calls or on reuse of the generator
    graph = make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0])
    betas = [0.0, 0.5, 1.0 / math.sqrt(2.0), 2.0, 7.0]
    gen = assemble_generator(graph, 16.0)
    forward = [resolvent_norm(gen, b) for b in betas]
    backward = [resolvent_norm(gen, b) for b in reversed(betas)][::-1]
    fresh = assemble_generator(graph, 16.0)
    assert forward == backward == [resolvent_norm(fresh, b) for b in betas]


def test_resolvent_norm_mesh_converged_on_stable_graph():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    vals = []
    for cells in (32, 64):
        gen = assemble_generator(graph, cells)
        vals.append(resolvent_norm(gen, 2.0))
    assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]


def test_resolvent_norm_diverges_at_axis_eigenvalue():
    # interior pi edge puts an eigenvalue at i: the discrete norm at beta = 1
    # must blow up under refinement
    graph = make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0])
    vals = []
    for cells in (16, 32, 64):
        gen = assemble_generator(graph, cells)
        vals.append(resolvent_norm(gen, 1.0))
    assert vals[1] > 2.0 * vals[0]
    assert vals[2] > 2.0 * vals[1]


def test_assemble_rejects_coarse_mesh():
    # make_layout checks the mesh: 2 cells per unit leave the 0.9 edge 2 cells
    with pytest.raises(SimulationError, match="cells"):
        assemble_generator(make_tree_chain(["1", "0.9"], [1.0]), 2.0)


def test_sweep_bounded_on_stable_chain():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    report = sweep(graph, np.linspace(0.0, 6.0, 13),
                   mesh_ladder=[24, 36, 48])
    assert report.verdict == "bounded"
    assert report.sup_change < 0.2


def test_sweep_unbounded_on_pi_chain():
    graph = make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0])
    report = sweep(graph, np.linspace(0.5, 1.5, 11),
                   mesh_ladder=[16, 32, 64])
    assert report.verdict == "unbounded"
    assert abs(report.peak_beta - 1.0) <= 0.2


@pytest.mark.parametrize("ladder", [[60], [60, 60]])
def test_sweep_needs_two_distinct_meshes(ladder):
    # one mesh cannot show the sup settling under refinement
    graph = make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0])
    with pytest.raises(ResolventError, match="mesh"):
        sweep(graph, np.linspace(0.0, 3.0, 7), mesh_ladder=ladder)


def test_sweep_rejects_non_finite_beta():
    with pytest.raises(ResolventError, match="finite"):
        sweep(make_tree_chain(["1", "0.9"], [1.0]), [0.5, math.nan])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_refuses_a_non_finite_mesh(bad):
    with pytest.raises(SimulationError, match="cells per unit length"):
        sweep(make_tree_chain(["1", "0.9"], [1.0]), [0.5], mesh_ladder=[16, bad])


def test_sweep_empty_grid_refused():
    with pytest.raises(ResolventError, match="empty"):
        sweep(make_tree_chain(["1", "0.9"], [1.0]), [])


def test_discrete_eigenvalues_approach_characteristic_roots():
    # the least-damped discrete mode converges to the nearest char-det root
    from scipy.sparse.linalg import eigs

    from netwave.spectral import newton_refine

    graph = make_tree_chain(["1", "0.9"], [1.0])
    target, _ = newton_refine(graph, -0.3 + 2.5j)
    errs = []
    for cells in (16, 32):
        gen = assemble_generator(graph, cells)
        vals = eigs(gen.A.astype(complex), k=12, sigma=target,
                    return_eigenvectors=False)
        errs.append(min(abs(v - target) for v in vals))
    assert errs[1] <= 0.4 * errs[0]


# resolvent norms at 8 and 40 cells per unit length on three variants, at
# beta = 0, at 1/sqrt(2) (the resonance m beta^2 = 1 of the tree's mass 2)
# and at three other frequencies; a change of the generator or of the power
# iteration moves them
NORM_BETAS = (0.0, 0.5, 1.0 / math.sqrt(2.0), 3.7, 20.0)
NORMS = [
    (make_tree_chain(["1", "0.8", "1.3"], [1, 2]), {
        8: (4.301117124319061, 11.353361026590337, 16.31918323738996,
            3.6091113921348663, 0.23753373381309234),
        40: (4.300695287836989, 11.349522206052919, 16.287236107745567,
             3.5813829203428735, 4.148767411616502)}),
    (make_star("1", "1", "sqrt(2)"), {
        8: (2.2253505081568865, 4.558985617528897, 12.285477030569085,
            4.754519316286801, 0.24237522382272114),
        40: (2.224609997747123, 4.555580423778393, 12.270184256590108,
             4.375704163522408, 3.2058516398646306)}),
    (make_circuit("sqrt(2)"), {
        8: (5.321806603518295, 4.136834976933629, 7.8894908513453474,
            6.714258445735411, 0.24250079287796455),
        40: (5.321477746385028, 4.137188230426495, 7.877942787920425,
             6.6643812414828805, 4.389872067084012)}),
]


@pytest.mark.parametrize("graph, expected", NORMS,
                         ids=[f"{g.variant}-{len(g.edges)}-edges" for g, _ in NORMS])
def test_norms_are_unchanged(graph, expected):
    for cells, norms in expected.items():
        gen = assemble_generator(graph, cells)
        for beta, norm in zip(NORM_BETAS, norms):
            assert abs(resolvent_norm(gen, beta) - norm) <= 1e-12 * norm
