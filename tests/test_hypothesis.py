import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn import hypothesis as hy
from chainlearn import rng
from chainlearn.hypothesis import (
    HatMoments,
    Hypothesis,
    HypothesisClass,
    HypothesisNet,
    NetExplosionError,
    build_epsilon_net,
    class_metric,
    covering_bound_holder,
    covering_count,
    net_covering_probe,
    random_member,
)
from chainlearn.learner import empirical_error

CONSTANTS = HypothesisClass("constants", 0.0, 1.0)
LIP1 = HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1.0)


def member_values(net):
    return [h.knot_values for h in net.members]


def test_constants_net_quarter():
    net = build_epsilon_net(CONSTANTS, 0.25)
    assert [v[0] for v in member_values(net)] == [0.125, 0.375, 0.625, 0.875]
    assert net.radius == 0.25


def test_constants_net_radius_one():
    net = build_epsilon_net(CONSTANTS, 1.0)
    assert [v[0] for v in member_values(net)] == [0.5]


def test_constants_net_cardinality():
    # midpoint grid with cells of width eps: ceil(width / eps) members
    for k in (1, 2, 5, 10):
        eps = 1.0 / (2 * k)
        net = build_epsilon_net(CONSTANTS, eps)
        assert len(net) == 2 * k


def test_constants_probe_at_half():
    net = build_epsilon_net(CONSTANTS, 0.25)
    gaps = [abs(0.5 - h.knot_values[0]) for h in net.members]
    assert min(gaps) == pytest.approx(0.125, abs=1e-15)


def test_net_covers_itself():
    net = build_epsilon_net(CONSTANTS, 0.25)
    for h in net.members:
        dists = [class_metric(h, g) for g in net.members]
        assert min(dists) == 0.0


def test_lipschitz_net_members_feasible():
    net = build_epsilon_net(LIP1, 0.5)
    spacing = 1.0 / (net.knot_count - 1)
    for h in net.members:
        vals = np.asarray(h.knot_values)
        assert vals.min() >= LIP1.y_lo and vals.max() <= LIP1.y_hi
        slopes = np.abs(np.diff(vals)) / spacing
        assert slopes.max() <= LIP1.lip_bound + 1e-12


def test_lipschitz_net_covering_probe():
    net = build_epsilon_net(LIP1, 0.5)
    worst = net_covering_probe(net, LIP1, probe_count=1000, seed=5)
    assert worst <= net.radius


def test_lipschitz_net_covers_extreme_slope_members():
    # ramps, V-shapes and zigzags at the full slope budget are the hardest
    # functions to track; the construction must still cover them
    for eps in (0.5, 0.4):
        net = build_epsilon_net(LIP1, eps)
        xs = np.linspace(0.0, 1.0, 4 * (net.knot_count - 1) + 1)
        member_vals = net.member_matrix(xs)
        probes = [
            np.clip(xs, 0, 1),
            np.clip(1 - xs, 0, 1),
            np.clip(np.abs(xs - 0.5), 0, 1),
            np.clip(0.5 - np.abs(xs - 0.5), 0, 1),
            np.clip(0.25 + np.abs((xs * 2) % 2 - 1) / 2, 0, 1),
        ]
        for probe in probes:
            gap = float(np.abs(member_vals - probe[None, :]).max(axis=1).min())
            assert gap <= eps, (eps, gap)


def test_constants_net_covering_probe():
    net = build_epsilon_net(CONSTANTS, 0.25)
    worst = net_covering_probe(net, CONSTANTS, probe_count=500, seed=6)
    assert worst <= 0.125 + 1e-12


def test_anchored_net_pins_anchor():
    cls = HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1.0, anchor=(0.5, 0.5))
    net = build_epsilon_net(cls, 0.5)
    anchor_knot = round(0.5 * (net.knot_count - 1))
    pinned = {h.knot_values[anchor_knot] for h in net.members}
    assert len(pinned) == 1
    assert abs(next(iter(pinned)) - 0.5) <= 0.25  # quantized anchor value
    worst = net_covering_probe(net, cls, probe_count=300, seed=7)
    assert worst <= net.radius


def test_net_explosion_error():
    with pytest.raises(NetExplosionError):
        build_epsilon_net(LIP1, 0.02)


def test_enumeration_matches_path_count():
    from chainlearn.hypothesis import _path_count

    net = build_epsilon_net(LIP1, 0.5)
    lattice_size = len({v for h in net.members for v in h.knot_values})
    assert len(net) == _path_count(lattice_size, net.knot_count, None)

    anchored = HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1.0,
                               anchor=(0.0, 0.5))
    anet = build_epsilon_net(anchored, 0.5)
    assert len(anet) == _path_count(4, anet.knot_count, (0, 1))


def product_order_paths(values, knots, pinned=None):
    """Lattice paths with steps in {-1, 0, 1}, in itertools.product order."""
    paths = []
    for path in itertools.product(range(len(values)), repeat=knots):
        if any(abs(p - q) > 1 for p, q in zip(path, path[1:])):
            continue
        if pinned is not None and path[pinned[0]] != pinned[1]:
            continue
        paths.append(tuple(values[v] for v in path))
    return paths


@pytest.mark.parametrize(
    "cls, eps, anchor",
    [
        (LIP1, 0.5, None),
        (LIP1, 0.4, None),
        (HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1.0, anchor=(0.5, 0.5)),
         0.5, (0.5, 0.5)),
    ],
    ids=["lipschitz-5-knots", "lipschitz-6-knots", "anchored"],
)
def test_enumeration_order_matches_product(cls, eps, anchor):
    net = build_epsilon_net(cls, eps)
    values = sorted({v for h in net.members for v in h.knot_values})
    pinned = None
    if anchor is not None:
        level = min(range(len(values)), key=lambda k: abs(values[k] - anchor[1]))
        pinned = (round(anchor[0] * (net.knot_count - 1)), level)
    assert member_values(net) == product_order_paths(values, net.knot_count, pinned)


ANCHORED = HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1.0, anchor=(0.5, 0.5))


@pytest.mark.parametrize(
    "cls, radii",
    [
        (CONSTANTS, (1.0, 0.3, 0.25, 0.07, 1e-3)),
        (HypothesisClass("constants", 0.5, 0.5), (1.0, 1e-6)),
        (HypothesisClass("constants", -1.0, 2.0), (0.9, 0.1)),
        (LIP1, (1e12, 1.0, 0.5, 0.4, 0.3, 0.25)),
        (HypothesisClass("lipschitz", 0.2, 0.7, lip_bound=2.5), (1.0, 0.6)),
        (HypothesisClass("lipschitz", 0.5, 0.5, lip_bound=1.0), (1e-3,)),
        (ANCHORED, (1.0, 0.5, 0.3)),
        (HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1.0, anchor=(0.0, 0.9)),
         (0.5, 0.3)),
    ],
    ids=["constants", "constants-width-0", "constants-wide", "lipschitz", "lipschitz-steep",
         "lipschitz-one-level", "anchored-mid", "anchored-corner"],
)
def test_covering_count_equals_net_size(cls, radii, monkeypatch):
    sizes = [len(build_epsilon_net(cls, r)) for r in radii]
    # every net, however it is built, passes through HypothesisNet.__post_init__
    built = []
    monkeypatch.setattr(HypothesisNet, "__post_init__", lambda net: built.append(net))
    assert [covering_count(cls, r) for r in radii] == sizes
    assert built == []


@pytest.mark.parametrize(
    "cls, eps",
    [(LIP1, 1e-320), (CONSTANTS, 1e-320)],
    ids=["lipschitz-underflow", "constants-inf"],
)
def test_covering_count_raises_past_the_cap(cls, eps):
    with pytest.raises(NetExplosionError) as built:
        build_epsilon_net(cls, eps)
    with pytest.raises(NetExplosionError) as counted:
        covering_count(cls, eps)
    assert str(counted.value) == str(built.value)


def log_walk_count(levels, knots, pinned=None):
    """ln of the number of walks, from the spectrum of the tridiagonal
    all-ones transfer matrix T: eigenvalues 1 + 2cos(theta_j) and sine
    eigenvectors u_j, theta_j = j pi/(levels+1).  The count is 1'T^(knots-1)1,
    or (1'T^p e_q)(e_q'T^(knots-1-p)1) through the pinned (p, q); each power is
    scaled by the top eigenvalue's."""
    theta = np.arange(1, levels + 1) * np.pi / (levels + 1)
    lam = 1.0 + 2.0 * np.cos(theta)
    norm = math.sqrt(2.0 / (levels + 1))
    ones = norm * np.sin(levels * theta / 2) * np.sin((levels + 1) * theta / 2) / np.sin(theta / 2)

    def log_form(left, power, right):
        return power * math.log(lam[0]) + math.log(float(left * right @ (lam / lam[0]) ** power))

    if pinned is None:
        return log_form(ones, knots - 1, ones)
    p, q = pinned
    at_q = norm * np.sin((q + 1) * theta)
    return log_form(ones, p, at_q) + log_form(at_q, knots - 1 - p, ones)


def swept_walk_count(levels, knots, pinned=None):
    """Walks counted knot by knot, by their last level, kept to level q at
    knot p when pinned at (p, q)."""
    ways = [1] * levels
    for k in range(knots):
        if k:
            ways = [sum(ways[max(0, j - 1) : j + 2]) for j in range(levels)]
        if pinned is not None and k == pinned[0]:
            ways = [w if j == pinned[1] else 0 for j, w in enumerate(ways)]
    return sum(ways)


def test_path_count_matches_the_sweep():
    # one and two levels take the closed form levels^knots, three and four the sweep
    for levels in (1, 2, 3, 4):
        for knots in range(1, 30):
            assert hy._path_count(levels, knots, None) == swept_walk_count(levels, knots)
            for p in range(knots):
                for q in range(levels):
                    pinned = (p, q)
                    assert hy._path_count(levels, knots, pinned) == swept_walk_count(
                        levels, knots, pinned
                    ), (levels, knots, pinned)


def test_one_level_count_over_a_million_knots():
    # 1e6 + 1 knots on one level, and on two levels when the range holds two
    for y_hi, count in ((0.5, 1), (0.5 + 2e-6, 2**1_000_001)):
        cls = HypothesisClass("lipschitz", 0.5, y_hi, lip_bound=1.0)
        assert covering_count(cls, 2e-6) == count


def test_lattice_matches_the_level_loop():
    def loop(y_lo, y_hi, step):
        vals, k = [], 0
        while y_lo + (k + 0.5) * step <= y_hi + 1e-12:
            vals.append(y_lo + (k + 0.5) * step)
            k += 1
        return np.asarray(vals or [0.5 * (y_lo + y_hi)])

    gen = np.random.default_rng(3)
    for _ in range(2000):
        y_lo = float(gen.choice([0.0, gen.uniform(-10, 10), gen.uniform(-1e3, 1e3)]))
        width = float(gen.choice([0.0, 1e-13, gen.uniform(0, 1), gen.uniform(0, 100)]))
        step = float(gen.choice([gen.uniform(1e-3, 1), gen.uniform(1e-2, 10),
                                 (width or 1.0) / gen.integers(1, 50)]))
        cls = HypothesisClass("lipschitz", y_lo, y_lo + width, lip_bound=1.0)
        assert np.array_equal(hy._lattice(cls, step), loop(cls.y_lo, cls.y_hi, step))


def test_walk_count_reference_matches_enumeration():
    for levels, knots, pinned in [(1, 4, None), (3, 5, None), (4, 6, (2, 0)), (5, 3, (0, 4))]:
        walks = len(product_order_paths(range(levels), knots, pinned))
        assert log_walk_count(levels, knots, pinned) == pytest.approx(math.log(walks), abs=1e-12)


@pytest.mark.parametrize(
    "cls, eps, levels, pinned",
    [
        (LIP1, 0.02, 100, None),
        (LIP1, 3e-3, 667, None),
        (HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=1e-3), 1e-4, 20_000, None),
        (HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1.0, anchor=(0.3, 0.212)),
         0.02, 100, (30, 21)),
    ],
    ids=["lipschitz", "lipschitz-lattice", "lipschitz-wide", "anchored"],
)
def test_covering_count_is_exact_past_the_member_cap(cls, eps, levels, pinned, monkeypatch):
    # counting allocates one Python int per level, so only enumeration is capped
    count = covering_count(cls, eps)
    knots = math.ceil(2.0 * cls.lip_bound / eps - 1e-9) + 1
    assert count > hy.NET_SIZE_CAP
    assert math.log(count) == pytest.approx(log_walk_count(levels, knots, pinned), rel=1e-12)

    def no_member(*args):
        raise AssertionError("member made")

    monkeypatch.setattr(hy, "Hypothesis", no_member)
    with pytest.raises(NetExplosionError) as err:
        build_epsilon_net(cls, eps)
    assert str(err.value) == f"net for eps={eps} would have more than {hy.NET_SIZE_CAP} members"


@pytest.mark.parametrize("lip, eps", [(1e-6, 1e-7)])
def test_unanchored_net_past_the_cap_builds_no_lattice(lip, eps, monkeypatch):
    # 21 knots on about 2e7 levels: past the cap on counting, which bounds
    # levels x knots before the lattice is built
    def no_lattice(*args):
        raise AssertionError("lattice built")

    monkeypatch.setattr(hy, "_lattice", no_lattice)
    cls = HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=lip)
    for fn in (covering_count, build_epsilon_net):
        with pytest.raises(NetExplosionError) as err:
            fn(cls, eps)
        assert str(err.value) == f"net for eps={eps} has too many lattice points to count"


@pytest.mark.parametrize(
    "cls, eps",
    [
        # 2 knots on 1e7 levels: only three walks through the anchor
        (HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1e-7, anchor=(0.0, 0.5)), 1.0),
        # one level over 2e7 + 1 knots: one walk
        (HypothesisClass("lipschitz", 0.5, 0.5, lip_bound=1.0), 1e-7),
    ],
    ids=["anchored-tall", "one-level-long"],
)
def test_lattice_past_the_counting_cap_is_not_built(cls, eps, monkeypatch):
    def no_lattice(*args):
        raise AssertionError("lattice built")

    monkeypatch.setattr(hy, "_lattice", no_lattice)
    for fn in (covering_count, build_epsilon_net):
        with pytest.raises(NetExplosionError, match="too many lattice points to count"):
            fn(cls, eps)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    y_hi=st.floats(0.0, 2.0),
    lip=st.floats(0.05, 1.0),
    eps=st.floats(0.1, 1.0),
    anchor=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    cap=st.integers(2000, 5000),
)
def test_covering_count_decides_the_member_cap(y_hi, lip, eps, anchor, cap):
    # at most 21 knots on 81 levels: the cap on counting never binds here
    if anchor is None:
        cls = HypothesisClass("lipschitz", 0.0, y_hi, lip_bound=lip)
    else:
        cls = HypothesisClass("lipschitz_anchored", 0.0, y_hi, lip_bound=lip,
                              anchor=(anchor[0], anchor[1] * y_hi))
    count = covering_count(cls, eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hy, "NET_SIZE_CAP", cap)
        assert covering_count(cls, eps) == count
        if count > cap:
            with pytest.raises(NetExplosionError, match=f"more than {cap} members"):
                build_epsilon_net(cls, eps)
        else:
            assert len(build_epsilon_net(cls, eps)) == count


def test_constants_count_is_exact_past_the_cap():
    # counting a constants net allocates nothing, so only enumeration is capped
    with pytest.raises(NetExplosionError):
        build_epsilon_net(CONSTANTS, 1e-8)
    assert covering_count(CONSTANTS, 1e-8) == 100_000_000
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            covering_count(CONSTANTS, eps)


def test_single_member_net_with_many_knots():
    # one lattice level over 200,001 knots: a path as deep as the knot count
    cls = HypothesisClass("lipschitz", 0.5, 0.5, lip_bound=1.0)
    net = build_epsilon_net(cls, 1e-5)
    assert len(net) == 1 and net.knot_count == 200_001
    assert set(net.members[0].knot_values) == {0.5}


def test_huge_radius_still_builds():
    net = build_epsilon_net(LIP1, 1e12)
    assert len(net) >= 1


def test_class_metric_examples():
    h = Hypothesis((0.2,))
    g = Hypothesis((0.7,))
    assert class_metric(h, h) == 0.0
    assert class_metric(h, g) == pytest.approx(0.5, abs=1e-15)
    # on a shared knot grid the sup distance is attained at a knot
    assert class_metric(Hypothesis((0.0, 0.5, 1.0)), Hypothesis((0.0, 0.0, 0.0))) == 1.0


def test_class_metric_grid_mismatch():
    with pytest.raises(ValueError, match="knot grids differ"):
        class_metric(Hypothesis((0.0,)), Hypothesis((0.0, 1.0)))


def test_random_members_are_feasible():
    for cls in (CONSTANTS, LIP1):
        for lane in range(50):
            h = random_member(cls, 9, seed=3, lane=lane)
            vals = np.asarray(h.knot_values)
            assert vals.min() >= cls.y_lo - 1e-12 and vals.max() <= cls.y_hi + 1e-12
            if cls.lip_bound > 0:
                slopes = np.abs(np.diff(vals)) * 8
                assert slopes.max() <= cls.lip_bound + 1e-12


def scalar_random_member(cls, knot_count, seed, lane):
    """One clipped step per knot, outwards from knot 0 or the anchor."""
    if cls.kind == "constants":
        return (cls.y_lo + rng.uniform(seed, lane, 0) * cls.width,)
    move = cls.lip_bound * (1.0 / (knot_count - 1))
    values = [0.0] * knot_count
    if cls.kind == "lipschitz":
        start = 0
        values[0] = cls.y_lo + rng.uniform(seed, lane, 0) * cls.width
    else:
        start = int(round(cls.anchor[0] * (knot_count - 1)))
        values[start] = cls.anchor[1]
    for k in range(start + 1, knot_count):
        u = 2.0 * rng.uniform(seed, lane, k) - 1.0
        values[k] = min(max(values[k - 1] + u * move, cls.y_lo), cls.y_hi)
    for k in range(start - 1, -1, -1):
        u = 2.0 * rng.uniform(seed, lane, k) - 1.0
        values[k] = min(max(values[k + 1] + u * move, cls.y_lo), cls.y_hi)
    return tuple(values)


@pytest.mark.parametrize(
    "cls",
    [
        CONSTANTS,
        LIP1,
        HypothesisClass("lipschitz", -0.5, 0.25, lip_bound=3.0),
        HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=2.0, anchor=(0.0, 0.9)),
        ANCHORED,
        HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=2.0, anchor=(1.0, 0.1)),
    ],
    ids=["constants", "lipschitz", "lipschitz-steep", "anchored-left", "anchored-mid",
         "anchored-right"],
)
def test_random_member_matches_scalar_reference(cls):
    knots = 1 if cls.kind == "constants" else 9
    for lane in range(20):
        h = random_member(cls, knots, seed=11, lane=lane)
        assert h.knot_values == scalar_random_member(cls, knots, 11, lane)


def test_covering_bound_holder_examples():
    assert covering_bound_holder(1.0, 1, 1.0, 1.0) == pytest.approx(1.0)
    assert covering_bound_holder(1.0, 1, 1.0, 0.5) == pytest.approx(4.0)
    for d, gamma in ((1, 1.0), (2, 1.0), (1, 0.5)):
        full = covering_bound_holder(1.0, d, gamma, 0.25)
        half = covering_bound_holder(1.0, d, gamma, 0.125)
        assert half / full == pytest.approx(2.0 ** (2 * d / gamma), rel=1e-12)


def test_class_validation():
    with pytest.raises(ValueError):
        HypothesisClass("constants", 0.0, 1.0, lip_bound=1.0)
    with pytest.raises(ValueError):
        HypothesisClass("lipschitz", 0.0, 1.0, lip_bound=0.0)
    with pytest.raises(ValueError):
        HypothesisClass("lipschitz_anchored", 0.0, 1.0, lip_bound=1.0)
    with pytest.raises(ValueError):
        HypothesisClass("constants", 0.0, math.inf)


@pytest.mark.parametrize("knots", [1, 2, 3, 5, 9])
def test_moment_errors_match_pointwise_oracle(knots):
    gen = np.random.default_rng(knots)
    cls = HypothesisClass("lipschitz", -2.0, 2.0, lip_bound=8.0)
    net = HypothesisNet(
        tuple(Hypothesis(tuple(gen.uniform(-2.0, 2.0, knots))) for _ in range(7)),
        0.1,
        cls,
    )
    special = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, knots)])
    xs = np.stack([np.concatenate([special, gen.uniform(0.0, 1.0, 40)]) for _ in range(3)])
    ys = np.sin(3.0 * xs) + gen.normal(0.0, 0.1, xs.shape)

    got = net.mean_squared_errors(HatMoments.from_samples(xs, ys, knots))
    for r in range(xs.shape[0]):
        for i, h in enumerate(net.members):
            pointwise = float(np.mean((np.asarray(h(xs[r])) - ys[r]) ** 2))
            assert abs(got[i, r] - pointwise) <= 1e-12
            assert abs(got[i, r] - empirical_error(h, xs[r], ys[r])) <= 1e-12

    # moments of column blocks add up to those of the whole rows
    cut = 17
    split = HatMoments.from_samples(xs[:, :cut], ys[:, :cut], knots) + HatMoments.from_samples(
        xs[:, cut:], ys[:, cut:], knots
    )
    assert split.count == xs.shape[1]
    assert np.abs(net.mean_squared_errors(split) - got).max() <= 1e-12


def test_one_knot_moments_equal_bincount_reference_bit_for_bit():
    gen = np.random.default_rng(11)
    rows, count = 3, 2000
    xs = gen.uniform(-0.5, 1.5, (rows, count))  # x plays no part at one knot
    ys = gen.normal(0.3, 2.0, (rows, count))
    row = np.repeat(np.arange(rows), count)

    moments = HatMoments.from_samples(xs, ys, 1)
    cross = np.bincount(row, ys.ravel(), rows)[:, None]
    assert moments.knot_count == 1 and moments.count == count
    gram_diag = np.bincount(row, np.ones(rows * count), rows)[:, None]
    assert np.array_equal(moments.gram_diag, gram_diag)
    assert moments.gram_off.shape == (rows, 0)
    assert np.array_equal(moments.cross, cross)
    assert np.array_equal(moments.square, (ys * ys).sum(axis=1))
    # the reference is sensitive to summation order: pairwise sums differ
    assert not np.array_equal(ys.sum(axis=1)[:, None], cross)

    cut = 777
    split = HatMoments.from_samples(xs[:, :cut], ys[:, :cut], 1) + HatMoments.from_samples(
        xs[:, cut:], ys[:, cut:], 1
    )
    assert split.count == count and split.gram_off.shape == (rows, 0)
    assert np.array_equal(split.gram_diag, moments.gram_diag)
    assert np.abs(split.cross - cross).max() <= 1e-9
    net = build_epsilon_net(HypothesisClass("constants", -2.0, 2.0), 0.5)
    assert np.abs(net.mean_squared_errors(split) - net.mean_squared_errors(moments)).max() <= 1e-12


@pytest.mark.parametrize("knots", [1, 2, 5])
@pytest.mark.parametrize("rows, count", [(1, 7), (2, 1), (3, 513), (37, 76), (300, 512)])
def test_moments_identical_on_lane_major_and_step_major_memory(knots, rows, count):
    gen = np.random.default_rng(rows * count + knots)
    xs = gen.uniform(-0.1, 1.1, (rows, count))
    ys = gen.normal(0.3, 2.0, (rows, count))
    # the simulator's blocks: (count, rows) in C order, viewed as (rows, count)
    xt, yt = np.ascontiguousarray(xs.T).T, np.ascontiguousarray(ys.T).T
    assert xt.T.flags.c_contiguous and np.array_equal(xt, xs)
    want = HatMoments.from_samples(xs, ys, knots)
    for a, b in [(xt, yt), (xt, ys), (xs, yt)]:
        got = HatMoments.from_samples(a, b, knots)
        assert got.knot_count == knots and got.count == count
        for name in ("gram_diag", "gram_off", "cross", "square"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_moment_errors_of_a_row_do_not_depend_on_the_other_rows():
    # a part of a replication block is scored where it is folded, so its
    # columns must be the whole block's bits whatever the cut
    gen = np.random.default_rng(29)
    rows = 37
    cls = HypothesisClass("lipschitz", -2.0, 2.0, lip_bound=8.0)
    for knots in (1, 2, 5):
        net = HypothesisNet(
            tuple(Hypothesis(tuple(gen.uniform(-2.0, 2.0, knots))) for _ in range(40)), 0.1, cls
        )
        xs = gen.uniform(0.0, 1.0, (rows, 300))
        ys = np.sin(3.0 * xs) + gen.normal(0.0, 0.3, xs.shape)
        moments = HatMoments.from_samples(xs, ys, knots)
        whole = net.mean_squared_errors(moments)

        def scored(a: int, b: int) -> np.ndarray:
            return net.mean_squared_errors(HatMoments(
                knots, moments.count, moments.gram_diag[a:b], moments.gram_off[a:b],
                moments.cross[a:b], moments.square[a:b],
            ))

        for cuts in [range(rows + 1), (0, 1, 18, rows), (0, 2, 7, 30, rows), (0, 36, rows)]:
            got = np.concatenate([scored(a, b) for a, b in zip(cuts, cuts[1:])], axis=1)
            assert np.array_equal(got, whole), (knots, cuts)


def test_moment_errors_clamped_at_zero_for_exact_fit():
    net = HypothesisNet((Hypothesis((0.1, 0.7, 0.3)),), 0.1, LIP1)
    xs = np.linspace(0.0, 1.0, 101)[None, :]
    moments = HatMoments.from_samples(xs, net.members[0](xs), 3)
    # the unclamped quadratic form leaves a residue of about -7e-17 here
    assert net.mean_squared_errors(moments)[0, 0] == 0.0


def test_moments_reject_mismatched_knot_grids():
    net = build_epsilon_net(LIP1, 0.5)
    xs = np.linspace(0.0, 1.0, 5)[None, :]
    with pytest.raises(ValueError, match="knots"):
        net.mean_squared_errors(HatMoments.from_samples(xs, xs, net.knot_count + 1))
    with pytest.raises(ValueError, match="knot grids"):
        HatMoments.from_samples(xs, xs, 2) + HatMoments.from_samples(xs, xs, 3)
