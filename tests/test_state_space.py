import math
import tracemalloc

import numpy as np
import pytest

from chainlearn import rng
from chainlearn.state_space import (
    DiscreteMeasure,
    StatePoint,
    chord_distances,
    curve_diameter,
    graph_point,
    make_space,
    make_target,
    paired_chord_distances,
    rho,
    target_range,
    verify_target_lipschitz,
)

IDENTITY = make_target("identity")
TENT = make_target("tent")
ZERO = make_target("constant", c=0.0)


def test_graph_point_identity():
    assert graph_point(0.0, IDENTITY) == StatePoint(0.0, 0.0)
    assert graph_point(0.5, IDENTITY) == StatePoint(0.5, 0.5)


def test_graph_point_tent():
    z = graph_point(0.25, TENT)
    assert z == StatePoint(0.25, 0.25)


def test_graph_point_domain_error():
    with pytest.raises(ValueError):
        graph_point(-0.1, IDENTITY)
    with pytest.raises(ValueError):
        graph_point(1.0001, IDENTITY)


def test_graph_point_matches_evaluator():
    for x in np.linspace(0, 1, 37):
        z = graph_point(float(x), TENT)
        assert abs(z.y - float(TENT(x))) <= 1e-15


def test_rho_examples():
    assert rho(StatePoint(0, 0), StatePoint(0, 0)) == 0.0
    assert rho(StatePoint(0, 0), StatePoint(1, 1)) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert rho(StatePoint(0, 0), StatePoint(0.5, 0.5)) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)


def test_rho_triangle_inequality_sampled():
    s = rng.derive(3, rng.PROBE)
    for i in range(500):
        xs = [rng.uniform(s, i, k) for k in range(3)]
        a, b, c = (graph_point(x, TENT) for x in xs)
        assert rho(a, c) <= rho(a, b) + rho(b, c) + 1e-12


def test_rho_chord_bound_sampled():
    s = rng.derive(4, rng.PROBE)
    bound = math.sqrt(1 + TENT.lip**2)
    for i in range(500):
        x1, x2 = rng.uniform(s, i, 0), rng.uniform(s, i, 1)
        d = rho(graph_point(x1, TENT), graph_point(x2, TENT))
        assert d <= bound * abs(x1 - x2) + 1e-12


def test_diameter_identity():
    d = curve_diameter(IDENTITY, grid=1024)
    assert math.sqrt(2) <= d <= math.sqrt(2) + 4 / 1024


def test_diameter_flat():
    d = curve_diameter(ZERO, grid=1024)
    assert 1.0 <= d <= 1.0 + 2 / 1024


def test_diameter_tent():
    d = curve_diameter(TENT, grid=1024)
    slack = 2 * math.sqrt(2) / 1024
    assert 1.0 <= d <= math.sqrt(2) + slack


def test_diameter_grid_refinement():
    # doubling the grid may only lower the estimate by at most the slack term
    for target in (IDENTITY, TENT):
        coarse = curve_diameter(target, grid=128)
        fine = curve_diameter(target, grid=256)
        slack = 2 * math.sqrt(1 + target.lip**2) / 128
        assert fine >= coarse - slack


def test_diameter_memory():
    # two g x g temporaries, no g x g x 2 difference tensor
    g = 1024
    tracemalloc.start()
    try:
        curve_diameter(TENT, grid=g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * g * g * 8


BUILT_IN = [("identity", {}), ("constant", {"c": 0.3}), ("affine", {"a": -0.8, "b": 0.9}),
            ("tent", {}), ("quadratic", {})]


@pytest.mark.parametrize("name, params", BUILT_IN, ids=[n for n, _ in BUILT_IN])
def test_chord_distances_match_the_difference_tensor(name, params):
    target = make_target(name, **params)
    s = rng.derive(4, rng.PROBE)
    x1 = rng.uniform_array(s, np.arange(7), np.zeros(7, dtype=int))
    x2 = rng.uniform_array(s, np.arange(5), np.ones(5, dtype=int))
    # 1-d points, and (2, P) atom arrays as for a batch of two-atom kernels
    a = np.stack([x1 / 2.0, (x1 + 1.0) / 2.0])
    b = np.stack([x1[::-1] / 2.0, (x1[::-1] + 1.0) / 2.0])
    for xa, xb, shape in ((x1, x2, (7, 5)), (a, b, (2, 2, 7))):
        pa = np.stack([xa, target(xa)], axis=-1)
        pb = np.stack([xb, target(xb)], axis=-1)
        want = np.sqrt(((pa[:, None] - pb[None, :]) ** 2).sum(-1))
        got = chord_distances(xa, target(xa), xb, target(xb))
        assert got.shape == shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, params", BUILT_IN, ids=[n for n, _ in BUILT_IN])
def test_paired_and_buffered_chord_distances_match_the_matrix(name, params):
    # the paired form at cells (rows[k], cols[k]) and the outer form computed
    # in a caller's work buffer are the matrix entries, bit for bit
    target = make_target(name, **params)
    s = rng.derive(5, rng.PROBE)
    x1 = rng.uniform_array(s, np.arange(9), np.zeros(9, dtype=int))
    x2 = rng.uniform_array(s, np.arange(6), np.ones(6, dtype=int))
    y1, y2 = target(x1), target(x2)
    full = chord_distances(x1, y1, x2, y2)
    rows = np.array([8, 0, 3, 3, 5, 1, 7])
    cols = np.array([0, 5, 2, 2, 4, 1, 5])
    got = paired_chord_distances(x1[rows], y1[rows], x2[cols], y2[cols])
    assert got.tobytes() == full[rows, cols].tobytes()
    work = np.full((2, 4, 6), np.nan)
    block = chord_distances(x1[3:7], y1[3:7], x2, y2, work)
    assert np.shares_memory(block, work)
    assert block.tobytes() == full[3:7].tobytes()


def test_lipschitz_cap_enforced():
    with pytest.raises(ValueError):
        make_target("affine", a=1.8)  # 1.8 > sqrt(3)


def test_builtin_targets_are_lipschitz():
    for t in (IDENTITY, TENT, ZERO, make_target("quadratic"), make_target("affine", a=0.1, b=0.45)):
        assert verify_target_lipschitz(t, 2000) <= 0.0


def test_target_range_exact_families():
    assert target_range(IDENTITY) == (0.0, 1.0)
    assert target_range(TENT) == (0.0, 0.5)
    assert target_range(make_target("affine", a=0.1, b=0.45)) == (0.45, 0.55)


def test_space_descriptor():
    sp = make_space(IDENTITY)
    assert 1.0 <= sp.diameter <= math.sqrt(1 + IDENTITY.lip**2)


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0, 1.0], [0.0, 1.0], [0.5, 0.6])
    m = DiscreteMeasure([0.7, 0.2], [0.7, 0.2], [0.5, 0.5])
    assert m.xs[0] == 0.2  # atoms sorted by x


def test_discrete_measure_merge():
    m = DiscreteMeasure([0.5, 0.5, 0.1], [0.5, 0.5, 0.1], [0.25, 0.25, 0.5])
    merged = m.merged()
    assert len(merged) == 2
    assert merged.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert merged.weights[merged.xs == 0.5][0] == pytest.approx(0.5, abs=1e-15)


def merged_reference(measure, tol=1e-15):
    """The merge loop without its no-merge shortcut."""
    xs, ys, ws = measure.xs, measure.ys, measure.weights
    keep_x, keep_y, keep_w = [xs[0]], [ys[0]], [ws[0]]
    for x, y, w in zip(xs[1:], ys[1:], ws[1:]):
        if abs(x - keep_x[-1]) <= tol and abs(y - keep_y[-1]) <= tol:
            keep_w[-1] += w
        else:
            keep_x.append(x)
            keep_y.append(y)
            keep_w.append(w)
    return np.array(keep_x), np.array(keep_y), np.array(keep_w)


@pytest.mark.parametrize("lane", range(6))
@pytest.mark.parametrize("near", [False, True], ids=["distinct", "near-duplicates"])
def test_merged_matches_the_reference_loop(lane, near):
    s = rng.derive(17, rng.PROBE)
    xs = rng.uniform_array(s, np.full(40, lane), np.arange(40))
    if near:
        # exact copies, offsets inside and outside tol, and a chain a, a + 6e-16,
        # a + 1.2e-15 whose last step is within tol of its neighbour only
        xs = np.concatenate(
            [xs, xs[:3], xs[3:6] + 5e-16, xs[6:9] + 3e-15, xs[9:10] + 6e-16, xs[9:10] + 1.2e-15]
        )
    w = rng.uniform_array(s, np.full(xs.size, lane), np.arange(xs.size) + 1000) + 1e-3
    measure = DiscreteMeasure.on_graph(TENT, xs, w / w.sum())
    merged = measure.merged()
    want = merged_reference(measure)
    assert len(merged) == want[0].size
    for got, ref in zip((merged.xs, merged.ys, merged.weights), want):
        assert got.tobytes() == ref.tobytes()
    # nothing merges among distinct atoms, and the measure itself comes back
    assert (merged is measure) == (not near) == (want[0].size == len(measure))
