"""The contour search's stacked evaluation: its failures, its agreement
with char_matrix node by node, and the root sets it finds."""

import warnings

import numpy as np
import pytest

from netwave import spectral
from netwave.graph import (build_graph, make_chain, make_circuit, make_star,
                           make_tree_chain)
from netwave.spectral import SpectralError, _inverses, char_matrix, find_eigenvalues
from test_spectra import double_root_tree, matched_edge, pi_chain


@pytest.mark.parametrize("box, message", [
    ((-1000.0, -990.0, -1.0, 1.0),
     r"contour node \(-984\.393\d*\+0j\): M\(lam\) overflows"),
    # the first node is singular, later ones overflow
    ((-720.0, -700.0, -5.0, 5.0), r"contour node \(-688\.786\d*\+0j\): Singular"),
], ids=["overflow", "singular-then-overflow"])
@pytest.mark.parametrize("ignore", [False, True], ids=["warnings-error", "warnings-ignored"])
def test_contour_names_the_first_node_that_fails(box, message, ignore):
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with warnings.catch_warnings():
        if ignore:
            warnings.simplefilter("ignore")
        with pytest.raises(SpectralError, match=message):
            find_eigenvalues(graph, box)


@pytest.mark.parametrize("size, message", [
    # the Hankel singular values underflow, and dividing by them overflows
    # the reduced pencil
    (1e-300, "not finite"),
    # the contour's radius is subnormal, and the nodes' offsets over it overflow
    (1e-310, "too small"),
])
def test_a_tiny_box_is_refused(size, message):
    # with RuntimeWarning an error, this also shows that no warning escapes
    graph = make_tree_chain(["1", "sqrt(2)"], [1.0])
    with pytest.raises(SpectralError, match=message):
        find_eigenvalues(graph, (size, 2 * size, size, 2 * size))


SPECTRA_GRAPHS = {
    "matched-edge": matched_edge(),
    "pi-chain": pi_chain(),
    "tree-sqrt2": make_tree_chain(["1", "sqrt(2)"], [2.0]),
    "tree-heavy": make_tree_chain(["1", "0.9"], [4.0]),
    "tree-3": make_tree_chain(["1", "0.8", "1.3"], [1, 2]),
    "chain-3": make_chain(["1", "1.5", "0.7"], [1, 2]),
    "circuit": make_circuit("sqrt(2)"),
    "star": make_star("1", "1", "sqrt(2)"),
    "circuit-half": make_circuit("1/2"),
    "tree-landing": make_tree_chain(["43/50", "57/50"], [1.0]),
    "tree-2": make_tree_chain(["1", "0.9"], [1.0]),
    "unit-chain-7": make_tree_chain(["1"] * 7, [1.0] * 6),
    "double-root-tree": double_root_tree(),
}


@pytest.mark.parametrize("nodes", [
    (1e-6 * (1 + 1j), 0.3 + 2.1j, -1.2 + 7.5j, 35.0 + 3.0j),
    (1e-6 * (1 + 1j), 0.3 + 2.1j, -1.2 + 7.5j),
], ids=["with-scaled-node", "unscaled"])
@pytest.mark.parametrize("graph", SPECTRA_GRAPHS.values(), ids=SPECTRA_GRAPHS.keys())
def test_stacked_inverses_match_char_matrix(graph, nodes):
    # the first node takes the Taylor branch (|z l| < 1e-4), the fourth the
    # column scaling (|Re z| max l > 30)
    stack = _inverses(graph, np.array(nodes))
    for z, inverse in zip(nodes, stack):
        sys = char_matrix(graph, z)
        expected = sys.col_scale[:, None] * np.linalg.inv(sys.matrix)
        assert np.max(np.abs(inverse - expected)) <= 1e-12 * np.max(np.abs(expected))


def tree(parents, lengths, masses):
    """Root v0 and the edges e_v from v_parents[v-1] to v_v; v_v carries
    masses[v-1], or is a controlled leaf where that is None."""
    vertices = [{"id": "v0", "kind": "root"}]
    vertices += [{"id": f"v{v}", "kind": "controlled"} if m is None
                 else {"id": f"v{v}", "kind": "mass", "mass": m}
                 for v, m in enumerate(masses, start=1)]
    edges = [{"id": f"e{v}", "tail": f"v{p}", "head": f"v{v}", "length": ell}
             for v, (p, ell) in enumerate(zip(parents, lengths), start=1)]
    return build_graph({"variant": "tree", "vertices": vertices, "edges": edges})


chain = make_chain

# One graph of each (shape, unit masses, planted) kind that the benchmark's
# mesh-free spectrum jobs draw, with balanced lengths, and the roots
# (re, im, box_count) that the per-node contour evaluation found for them
# in the box below.
ROOT_BOX = (-3.0, 0.5, -12.0, 12.0)
ROOT_SETS = [
    # ('tree', False, False), 2 edges
    (tree([0, 1], ['1291/1000', '709/1000'], [1.72, None]), [
        (-1.4253288649742528, 11.520528856187756, 1),
        (-1.4253288649742482, -11.520528856187756, 1),
        (-1.332852924176065, -9.080512272290855, 1),
        (-1.3328529241760636, 9.08051227229085, 1),
        (-1.2104470170085737, -6.637098147620446, 1),
        (-1.210447017008572, 6.637098147620443, 1),
        (-1.02752894750007, 4.185963955336785, 1),
        (-1.0275289475000695, -4.185963955336784, 1),
        (-0.6290748242011257, -1.7052906073313365, 1),
        (-0.6290748242011255, 1.7052906073313365, 1),
        (-0.1016706760271389, -0.5859293317617736, 1),
        (-0.10167067602713883, 0.5859293317617736, 1),
    ]),
    # ('chain', False, False), 3 edges
    (chain(['691/500', '267/500', '271/250'], [1.21, 0.8]), [
        (-1.1192538358707274, 9.175596422741151, 1),
        (-1.11925383587072, -9.175596422741144, 1),
        (-0.8967654559895717, 11.094684316694744, 1),
        (-0.8967654559895704, -11.094684316694751, 1),
        (-0.8380007257359486, 3.3881452283779026, 1),
        (-0.8380007257359465, -3.388145228377898, 1),
        (-0.8356397600167712, -7.48868062350774, 1),
        (-0.8356397600167675, 7.488680623507744, 1),
        (-0.6264739804913204, 5.285762734929642, 1),
        (-0.6264739804913194, -5.285762734929642, 1),
        (-0.22849532011176257, -2.0249894356916633, 1),
        (-0.22849532011176255, 2.0249894356916633, 1),
        (-0.15335295771596077, 0.4951020699678683, 1),
        (-0.15335295771596072, -0.4951020699678683, 1),
        (-1.678829209414457e-05, 0.9048920896409057, 1),
        (-1.6788292094144288e-05, -0.9048920896409057, 1),
    ]),
    # ('tree', True, False), 4 edges
    (tree([0, 1, 2, 3], ['319/500', '583/500', '1031/1000', '233/200'], [1.0, 1.0, 1.0, None]), [
        (-0.6071601054218251, -10.813399904841953, 1),
        (-0.6071601054218245, 10.813399904841953, 1),
        (-0.5339930188962276, 7.574335722597181, 1),
        (-0.5339930188962275, -7.574335722597182, 1),
        (-0.517025255612571, 11.929777120851071, 1),
        (-0.5170252556125708, -11.929777120851071, 1),
        (-0.49048627562625347, -9.762459660625778, 1),
        (-0.4904862756262532, 9.762459660625778, 1),
        (-0.45567108046748245, 8.574026687363368, 1),
        (-0.4556710804674823, -8.574026687363368, 1),
        (-0.4270203380310876, 5.220882953315381, 1),
        (-0.42702033803108724, -5.220882953315381, 1),
        (-0.4024186770162908, -6.474160791510707, 1),
        (-0.4024186770162908, 6.474160791510707, 1),
        (-0.3868330089520063, -4.289712744571588, 1),
        (-0.386833008952006, 4.289712744571588, 1),
        (-0.2522468974589627, -2.11435131324884, 1),
        (-0.2522468974589626, 2.11435131324884, 1),
        (-0.20817997079812442, 3.2347655664922126, 1),
        (-0.20817997079812436, -3.234765566492212, 1),
        (-0.16656501853716543, -0.3463354151632972, 1),
        (-0.16656501853716538, 0.34633541516329724, 1),
        (-0.059769910563222214, -1.4806773449940305, 1),
        (-0.059769910563222214, 1.4806773449940305, 1),
        (-0.031635604543540176, -0.7653463786392429, 1),
        (-0.031635604543540176, 0.7653463786392429, 1),
        (-0.0030472946383890455, -0.861380572225959, 1),
        (-0.0030472946383890455, 0.861380572225959, 1),
    ]),
    # ('chain', False, False), 5 edges
    (chain(['933/1000', '417/500', '171/125', '129/100', '23/40'], [1.89, 1.17, 0.6, 1.26]), [
        (-0.5618257695981168, -9.256123121281805, 1),
        (-0.561825769598116, 9.2561231212818, 1),
        (-0.4951468866584133, 5.32057870461731, 1),
        (-0.49514688665841283, -5.32057870461731, 1),
        (-0.48383613222843475, 2.2542248868697836, 1),
        (-0.4838361322284346, -2.254224886869783, 1),
        (-0.459556549260391, -6.038081922591165, 1),
        (-0.4595565492603909, 6.038081922591165, 1),
        (-0.4469049065658118, 10.590273538797595, 1),
        (-0.4469049065658101, -10.590273538797593, 1),
        (-0.4465177214193628, -9.761721590570682, 1),
        (-0.4465177214193616, 9.761721590570682, 1),
        (-0.36495360087189266, 8.38720165824715, 1),
        (-0.36495360087189216, -8.38720165824715, 1),
        (-0.35022371337796687, 6.664022754937331, 1),
        (-0.35022371337796654, -6.664022754937332, 1),
        (-0.3496811567831558, -11.422656639012587, 1),
        (-0.3496811567831558, 11.422656639012587, 1),
        (-0.34173879267725554, -7.651099977920587, 1),
        (-0.34173879267725554, 7.651099977920587, 1),
        (-0.27304769539789964, -3.743536129781417, 1),
        (-0.2730476953978993, 3.743536129781418, 1),
        (-0.21462371450549103, -4.6328507159777965, 1),
        (-0.21462371450549095, 4.6328507159777965, 1),
        (-0.15316488628870462, 3.055248586759846, 1),
        (-0.15316488628870434, -3.0552485867598462, 1),
        (-0.12792887367675415, 0.2476778605233582, 1),
        (-0.12792887367675412, -0.24767786052335825, 1),
        (-0.10433075097753922, -1.4756758707679465, 1),
        (-0.10433075097753919, 1.4756758707679467, 1),
        (-0.07796524645449182, -1.7068249117256316, 1),
        (-0.07796524645449181, 1.7068249117256316, 1),
        (-0.016824944803493544, -0.6234926636724185, 1),
        (-0.016824944803493527, 0.6234926636724185, 1),
        (-0.0005994388980858809, -0.8442060130206539, 1),
        (-0.0005994388980858801, 0.8442060130206539, 1),
        (-0.0002519238973262151, -0.7471600356633208, 1),
        (-0.0002519238973262148, 0.7471600356633208, 1),
    ]),
    # ('tree', False, False), 6 edges
    (tree([0, 1, 1, 2, 4, 1], ['343/500', '139/100', '941/1000', '139/125', '29/50', '1291/1000'], [0.92, 1.54, None, 0.57, None, None]), [
        (-1.9545825816066853, 7.884723237767723, 1),
        (-1.954582581606674, -7.884723237767733, 1),
        (-1.2792314687871942, -3.213544441332511, 1),
        (-1.2792314687871942, 3.2135444413325107, 1),
        (-0.7774851012775221, -10.871726675215264, 1),
        (-0.7774851012775219, 10.871726675215264, 1),
        (-0.7467688101250968, 7.252299111666697, 1),
        (-0.7467688101250958, -7.252299111666696, 1),
        (-0.5500644938147351, -5.848810607103777, 1),
        (-0.5500644938147349, 5.848810607103777, 1),
        (-0.4877573351382471, -9.537395830811352, 1),
        (-0.4877573351382468, 9.537395830811352, 1),
        (-0.44898865300073415, 3.7601685884066707, 1),
        (-0.44898865300073393, -3.760168588406671, 1),
        (-0.4445134986745846, 8.758249243153665, 1),
        (-0.44451349867458445, -8.758249243153664, 1),
        (-0.3017790520928217, 2.150379131659469, 1),
        (-0.30177905209282146, -2.150379131659469, 1),
        (-0.255682569516072, -4.670592910010101, 1),
        (-0.25568256951607166, 4.670592910010101, 1),
        (-0.1983476467926604, -0.2985266168601008, 1),
        (-0.19834764679266034, 0.29852661686010074, 1),
        (-0.13570967481328533, -0.8562881186744888, 1),
        (-0.13570967481328527, 0.8562881186744888, 1),
        (-0.06865745226651745, -0.7505749042171207, 1),
        (-0.06865745226651745, 0.7505749042171207, 1),
        (-0.047742566831732634, -1.3755161279897195, 1),
        (-0.04774256683173262, 1.3755161279897195, 1),
    ]),
    # ('chain', False, True), 2 edges
    (chain(['1', 'pi*1'], [1.0]), [
        (-0.5012964539120564, -11.74993286097162, 1),
        (-0.5012964539120552, 11.749932860971619, 1),
        (-0.4869174738130266, -10.750132580053787, 1),
        (-0.48691747381302636, 10.750132580053789, 1),
        (-0.4710840869589249, -9.750395447591568, 1),
        (-0.47108408695892473, 9.750395447591567, 1),
        (-0.4534623446445744, 8.75074873942888, 1),
        (-0.4534623446445733, -8.75074873942888, 1),
        (-0.4335855640456511, 7.751236453054545, 1),
        (-0.4335855640456508, -7.751236453054545, 1),
        (-0.4107714594960565, 6.751933835545028, 1),
        (-0.41077145949605626, -6.75193383554503, 1),
        (-0.3839610339833758, 5.752979973590233, 1),
        (-0.38396103398337567, -5.752979973590232, 1),
        (-0.35136802394740213, -4.75466159600338, 1),
        (-0.3513680239474021, 4.75466159600338, 1),
        (-0.3095837439578916, -3.7576771377044222, 1),
        (-0.3095837439578915, 3.7576771377044227, 1),
        (-0.250661187372931, -2.764305677886323, 1),
        (-0.250661187372931, 2.7643056778863233, 1),
        (-0.22295797636459522, -0.3390382524009843, 1),
        (-0.2229579763645952, 0.3390382524009843, 1),
        (-0.14843981126500122, -1.7886412526388455, 1),
        (-0.14843981126500122, 1.7886412526388455, 1),
        (-3.0814879110195774e-33, -1.0, 1),
        (-1.7002350290293567e-33, 1.0, 1),
    ]),
    # ('tree', True, True), 3 edges
    (tree([0, 1, 2], ['517/1000', 'pi*1', '1483/1000'], [1.0, 1.0, None]), [
        (-0.4292581514534082, 11.807293168408938, 1),
        (-0.42925815145340807, -11.807293168408936, 1),
        (-0.41486950837463177, 10.957495919507354, 1),
        (-0.4148695083746316, -10.957495919507355, 1),
        (-0.40368040416548956, 10.112939686807893, 1),
        (-0.4036804041654895, -10.112939686807893, 1),
        (-0.39575311810009334, -9.263437591094421, 1),
        (-0.3957531181000929, 9.263437591094421, 1),
        (-0.3872217246954875, 8.402450448607082, 1),
        (-0.3872217246954874, -8.402450448607082, 1),
        (-0.3742573167374263, 7.5320152397690405, 1),
        (-0.37425731673742624, -7.5320152397690405, 1),
        (-0.35485843966379566, -6.660447718454096, 1),
        (-0.35485843966379516, 6.660447718454096, 1),
        (-0.32851178429072536, -5.799480037789508, 1),
        (-0.3285117842907253, 5.799480037789509, 1),
        (-0.29745044395842113, -4.9603940054539795, 1),
        (-0.2974504439584207, 4.9603940054539795, 1),
        (-0.26769963925793033, 4.141902142348305, 1),
        (-0.2676996392579303, -4.141902142348305, 1),
        (-0.2390997012456111, -3.321580833352266, 1),
        (-0.23909970124561097, 3.3215808333522663, 1),
        (-0.208387112272123, -0.29612198778980287, 1),
        (-0.20838711227212298, 0.2961219877898028, 1),
        (-0.19601954299047886, 2.4816277819143893, 1),
        (-0.19601954299047875, -2.4816277819143893, 1),
        (-0.10786778277026687, -1.6437206882333562, 1),
        (-0.10786778277026682, 1.6437206882333562, 1),
        (-0.011962460740203625, -0.7726296310886145, 1),
        (-0.011962460740203625, 0.7726296310886145, 1),
        (-1.0242016157157357e-33, 1.0, 1),
        (-1.0242008810317665e-33, -1.0, 1),
    ]),
    # ('chain', False, False), 4 edges
    (chain(['369/500', '751/1000', '271/200', '289/250'], [1.91, 1.35, 0.89]), [
        (-0.6405498100237395, -10.38397144295665, 1),
        (-0.6405498100237392, 10.383971442956648, 1),
        (-0.6256945712871621, -6.528170341452129, 1),
        (-0.6256945712871619, 6.528170341452126, 1),
        (-0.6125995438817478, 11.225769012009428, 1),
        (-0.6125995438817468, -11.225769012009428, 1),
        (-0.5330161902513779, -9.542092954600257, 1),
        (-0.5330161902513767, 9.542092954600255, 1),
        (-0.5069680717987771, -5.647982629840473, 1),
        (-0.5069680717987768, 5.647982629840471, 1),
        (-0.4650535579303421, -8.434529770463394, 1),
        (-0.46505355793034187, 8.434529770463392, 1),
        (-0.4402735065759148, 7.412543424475072, 1),
        (-0.440273506575914, -7.412543424475072, 1),
        (-0.4350424757002636, 2.5253867418464546, 1),
        (-0.4350424757002633, -2.5253867418464546, 1),
        (-0.35173717500101215, -3.644809386314713, 1),
        (-0.3517371750010121, 3.644809386314713, 1),
        (-0.3101064344893271, 4.695346312724687, 1),
        (-0.3101064344893262, -4.695346312724687, 1),
        (-0.26528912015585565, -2.0705746032017305, 1),
        (-0.2652891201558553, 2.070574603201731, 1),
        (-0.13761316783371014, -0.298208920398109, 1),
        (-0.13761316783371008, 0.29820892039810903, 1),
        (-0.09101709228635974, -1.3577797740940694, 1),
        (-0.0910170922863597, 1.3577797740940694, 1),
        (-0.005491281451366147, 0.670518471995344, 1),
        (-0.0054912814513661465, -0.670518471995344, 1),
        (-0.0005399831754541982, -0.7856466979293847, 1),
        (-0.0005399831754541982, 0.7856466979293847, 1),
    ]),
]


@pytest.mark.parametrize("graph, expected", ROOT_SETS,
                         ids=[f"{g.variant}-{len(g.edges)}-edges" for g, _ in ROOT_SETS])
def test_root_sets_are_unchanged(graph, expected):
    roots = find_eigenvalues(graph, ROOT_BOX).roots
    assert len(roots) == len(expected)
    left = list(roots)
    for re, im, box_count in expected:
        lam = complex(re, im)
        nearest = min(left, key=lambda r: abs(r.lam - lam))
        left.remove(nearest)
        assert abs(nearest.lam - lam) <= 1e-10 * abs(lam)
        assert nearest.box_count == box_count


def matched(roots, expected):
    """Each expected record against the nearest of roots, one to one."""
    assert len(roots) == len(expected)
    left = list(roots)
    for r in expected:
        nearest = min(left, key=lambda m: abs(m.lam - r.lam))
        left.remove(nearest)
        assert abs(nearest.lam - r.lam) <= 1e-10 * abs(r.lam)
        assert nearest.box_count == r.box_count


# the 2-edge chain has 26 roots in ROOT_BOX, more than its strips resolve well
CROWDED_CHAIN = next(g for g, _ in ROOT_SETS if g.variant == "chain" and len(g.edges) == 2)
HALF_GRAPHS = [g for g, _ in ROOT_SETS if g is not CROWDED_CHAIN] + [pi_chain()]


def half_searches(graph):
    re0, re1, im0, im1 = ROOT_BOX
    upper = find_eigenvalues(graph, (re0, re1, 0.0, im1))
    lower = find_eigenvalues(graph, (re0, re1, im0, 0.0))
    assert upper.strips == lower.strips == 2
    assert upper.mirrored == lower.mirrored == 0
    return upper, lower


@pytest.mark.parametrize("graph", HALF_GRAPHS,
                         ids=[f"{g.variant}-{len(g.edges)}-edges" for g in HALF_GRAPHS])
def test_a_symmetric_box_mirrors_its_upper_half(graph):
    """ROOT_BOX is cut on the axis.  Its roots above the axis are, to the
    bit, those of a whole search of its upper half, and its roots below are
    their conjugates, which a whole search of its lower half finds too."""
    report = find_eigenvalues(graph, ROOT_BOX)
    upper, lower = half_searches(graph)
    assert report.strips == 2
    assert ([r for r in report.roots if r.lam.imag > 1e-6]
            == [r for r in upper.roots if r.lam.imag > 1e-6])
    below = [r for r in report.roots if r.lam.imag < -1e-6]
    assert report.mirrored == len(below)
    matched(below, [r for r in lower.roots if r.lam.imag < -1e-6])


def test_a_crowded_strip_has_the_box_searched_whole(monkeypatch):
    """A strip above the axis whose Hankel rank passes CROWDED of its
    capacity may keep other roots than its mirror image, so the box is
    searched whole: its roots are, to the bit, those of whole searches of
    its two halves, and none is mirrored."""
    strips = spectral._strips(ROOT_BOX)
    assert any(spectral._strip_roots(CROWDED_CHAIN, s, spectral.DET_TOL)[1]
               for s in strips[2:])
    report = find_eigenvalues(CROWDED_CHAIN, ROOT_BOX)
    upper, lower = half_searches(CROWDED_CHAIN)
    assert (report.strips, report.mirrored) == (4, 0)
    whole = spectral._dedupe(lower.roots + upper.roots)
    whole.sort(key=lambda r: (r.lam.real, r.lam.imag))
    assert report.roots == whole
    monkeypatch.setattr(spectral, "CROWDED", 1.0)
    assert find_eigenvalues(CROWDED_CHAIN, ROOT_BOX).strips == 2


def test_a_box_with_an_odd_strip_count_is_searched_whole():
    # the middle of its three strips straddles the axis
    report = find_eigenvalues(pi_chain(), (-3.0, 0.5, -8.0, 8.0))
    assert (report.strips, report.mirrored) == (3, 0)
    matched(report.roots, [r for r in find_eigenvalues(pi_chain(), ROOT_BOX).roots
                           if abs(r.lam.imag) < 8.0])


def test_a_middle_cut_off_the_axis_is_searched_whole(monkeypatch):
    # linspace puts the middle of the six cuts of this box one ulp above the axis
    box = (-0.23, 0.05, -1.502, 1.502)
    assert spectral._strips(box)[3][2] > 0.0
    assert find_eigenvalues(pi_chain(), box).strips == 3
    monkeypatch.setattr(spectral, "BOX_SLACK", 0.0)
    assert find_eigenvalues(pi_chain(), box).strips == 6
