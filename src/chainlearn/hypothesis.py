"""Hypothesis classes, constructive epsilon-nets, net sizes and covering bounds.

Classes are piecewise-linear functions on a uniform knot grid over [0, 1]:
plain constants, Lipschitz-bounded functions, and Lipschitz functions pinned
at an anchor point.  Nets are built, and hypotheses compared, in the sup
metric.

Net construction for a Lipschitz bound L > 0 and radius eps: knots are
spaced 1/ceil(2L/eps) apart and knot values live on a lattice of step
exactly L * spacing (at most eps/2), with adjacent knots moving at most one
lattice step.  The step choice makes the slope constraint and the lattice
commensurate, so every enumerated member is feasible and any class member
is tracked within one lattice step at the knots; with the interpolation
error this certifies a sup covering radius of at most 3*eps/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, get_args

import numpy as np

from . import rng

NET_SIZE_CAP = 10_000_000

Kind = Literal["constants", "lipschitz", "lipschitz_anchored"]


class NetExplosionError(ValueError):
    """A net past the cap on enumeration, or a lattice past the cap on counting."""


@dataclass(frozen=True)
class HypothesisClass:
    """Functions [0, 1] -> [y_lo, y_hi] of one `kind`.  A bad field raises
    a `ValueError` naming it as `harness.ExperimentConfig` spells it
    (`class_kind` for `kind`), since the config checks its class fields by
    making the class."""

    kind: Kind
    y_lo: float
    y_hi: float
    lip_bound: float = 0.0
    anchor: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.y_lo) or not math.isfinite(self.y_hi):
            raise ValueError("y_lo and y_hi must be finite")
        if self.y_hi < self.y_lo:
            raise ValueError(f"y_hi must be at least y_lo = {self.y_lo}")
        if self.kind == "constants":
            if self.lip_bound != 0.0:
                raise ValueError("lip_bound must be 0 for class_kind constants")
        elif self.kind in ("lipschitz", "lipschitz_anchored"):
            if not self.lip_bound > 0.0:
                raise ValueError(f"lip_bound must be positive for class_kind {self.kind}")
        else:
            raise ValueError("class_kind must be one of " + ", ".join(get_args(Kind)))
        if self.kind != "lipschitz_anchored":
            if self.anchor is not None:
                raise ValueError(f"anchor must not be given for class_kind {self.kind}")
            return
        if self.anchor is None:
            raise ValueError("anchor must be given for class_kind lipschitz_anchored")
        ax, ay = self.anchor
        if not (0.0 <= ax <= 1.0 and self.y_lo <= ay <= self.y_hi):
            raise ValueError(
                f"anchor must lie in [0, 1] x [y_lo, y_hi] = [0, 1] x [{self.y_lo}, {self.y_hi}]"
            )

    @property
    def width(self) -> float:
        return self.y_hi - self.y_lo


@dataclass(frozen=True)
class Hypothesis:
    """Piecewise-linear interpolant on a uniform knot grid; a single knot
    value denotes a constant function (np.interp on the one-point grid [0]
    returns that value everywhere)."""

    knot_values: tuple[float, ...]

    @property
    def knot_count(self) -> int:
        return len(self.knot_values)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        grid = np.linspace(0.0, 1.0, self.knot_count)
        out = np.interp(x, grid, self.knot_values)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class HatMoments:
    """Sums of hat-basis products over sample points (x, y), one row per
    sample set, for the uniform grid of `knot_count` knots on [0, 1].

    With phi_k the hat function of knot k and sums over the `count` points
    of row r: gram_diag[r, k] = sum phi_k^2, gram_off[r, k] =
    sum phi_k phi_{k+1}, cross[r, k] = sum phi_k y and square[r] = sum y^2.
    Moments of column blocks of the same rows add up to the moments of the
    whole rows.  A single knot is the constant basis phi_0 = 1.
    """

    knot_count: int
    count: int
    gram_diag: np.ndarray
    gram_off: np.ndarray
    cross: np.ndarray
    square: np.ndarray

    @classmethod
    def from_samples(cls, xs, ys, knot_count: int) -> HatMoments:
        """Moments of the rows of xs and ys, both of shape (rows, count);
        x is clamped to [0, 1] as the pointwise interpolant does.

        Either memory layout gives the same floats: the bincount inputs
        are read in the order xs is stored in, which hands each cell a
        row's samples in column order whether the rows or the columns are
        contiguous, and sum y^2 is summed over contiguous rows.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        rows, count = xs.shape
        # pairwise sums over contiguous rows, whatever the layout of ys
        square = np.multiply(ys, ys, order="C").sum(axis=1)
        if knot_count == 1:
            # phi_0 = 1: sum y is a running sum from 0.0, added in the order
            # the bincount below adds (a pairwise ys.sum rounds differently).
            # numpy sums along a slow axis one element at a time, so on
            # step-major memory of several rows that order needs no cumsum.
            cross = np.zeros((rows, 1))
            if count and rows > 1 and ys.T.flags.c_contiguous:
                cross[:, 0] += ys.T.sum(axis=0)
            elif count:
                cross += np.cumsum(ys, axis=1)[:, -1:]
            return cls(
                1,
                count,
                np.full((rows, 1), float(count)),
                np.zeros((rows, 0)),
                cross,
                square,
            )
        # built in place: a block's moments hold few temporaries the size of
        # the block, the same floats as out-of-place arithmetic
        cells = knot_count - 1
        t = np.clip(xs, 0.0, 1.0)
        t *= cells
        left = np.floor(t)
        np.minimum(left, cells - 1, out=left)
        t -= left  # weight of the right knot of the cell
        u = 1.0 - t  # weight of the left knot
        cell = left.astype(np.intp)
        del left
        cell += np.arange(rows)[:, None] * cells
        order = "F" if t.flags.f_contiguous else "C"  # ravels in it are views
        cell = cell.ravel(order)

        def per_cell(w: np.ndarray) -> np.ndarray:
            return np.bincount(cell, w.ravel(order), rows * cells).reshape(rows, cells)

        def on_knots(on_left: np.ndarray, on_right: np.ndarray) -> np.ndarray:
            out = np.zeros((rows, knot_count))
            out[:, :cells] = on_left
            out[:, 1:] += on_right
            return out

        return cls(
            knot_count,
            count,
            on_knots(per_cell(u * u), per_cell(t * t)),
            per_cell(u * t),
            on_knots(per_cell(u * ys), per_cell(t * ys)),
            square,
        )

    def __add__(self, other: HatMoments) -> HatMoments:
        if other.knot_count != self.knot_count:
            raise ValueError("moments of different knot grids do not add")
        return HatMoments(
            self.knot_count,
            self.count + other.count,
            self.gram_diag + other.gram_diag,
            self.gram_off + other.gram_off,
            self.cross + other.cross,
            self.square + other.square,
        )


@dataclass(frozen=True, eq=False)
class HypothesisNet:
    """Members on one uniform knot grid: row i of the read-only (members,
    knots) array `values` holds the knot values of member i."""

    values: np.ndarray
    radius: float
    hypothesis_class: HypothesisClass

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).view()
        if values.ndim != 2 or values.size == 0:
            raise ValueError("net values must be a nonempty (members, knots) array")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def knot_count(self) -> int:
        return self.values.shape[1]

    def mean_squared_errors(self, moments: HatMoments) -> np.ndarray:
        """Mean of (h(x) - y)^2 over the sample points of each row of the
        moments, for every member h; shape (len(net), rows).

        Each member is h = sum_k v_k phi_k over the hat functions of its knot
        grid, so its mean squared error is v'Gv - 2v'b + c with the
        tridiagonal Gram matrix G, b_k = mean(phi_k y) and c = mean(y^2).
        Each of the three forms is summed knot by knot in elementwise outer
        products, with no BLAS, so a row's errors depend only on its own
        moments, whatever rows the call is given.  Clamped at 0 against the
        rounding residue of the expansion.
        """
        if moments.knot_count != self.knot_count:
            raise ValueError(
                f"moments are for {moments.knot_count} knots, the net has {self.knot_count}"
            )
        v = self.values
        shape = (len(v), moments.square.size)
        term = np.empty(shape)

        def form(weights: np.ndarray, sums: np.ndarray) -> np.ndarray:
            out = np.zeros(shape)  # sum over k of weights[:, k] x sums[:, k]
            for w, s in zip(weights.T, sums.T):
                out += np.multiply.outer(w, s, out=term)
            return out

        sums = (
            form(v * v, moments.gram_diag)
            + 2.0 * form(v[:, :-1] * v[:, 1:], moments.gram_off)
            - 2.0 * form(v, moments.cross)
            + moments.square[None, :]
        )
        return np.maximum(sums / moments.count, 0.0)

    def member_matrix(self, xs: np.ndarray) -> np.ndarray:
        """All members evaluated at xs, shape (len(net), len(xs))."""
        xs = np.asarray(xs, dtype=float)
        grid = np.linspace(0.0, 1.0, self.knot_count)
        out = np.empty((len(self), xs.size))
        for row, v in zip(out, self.values):
            row[:] = np.interp(xs, grid, v)
        return out


def _oversized(eps: float) -> NetExplosionError:
    return NetExplosionError(f"net for eps={eps} would have more than {NET_SIZE_CAP} members")


def _constants_count(cls: HypothesisClass, eps: float) -> int:
    """Members of the constants net: the fewest equal cells of width at most
    eps over the class range, one for a range of width 0."""
    cells = cls.width / eps - 1e-9
    if cells == math.inf:
        raise _oversized(eps)
    return max(1, math.ceil(cells))


def _lattice(cls: HypothesisClass, step: float) -> np.ndarray:
    """The levels y_lo + (k + 1/2) step that are at most y_hi (up to 1e-12),
    or the midpoint of the range when there are none.  The levels grow with
    k, so they are the passing prefix of an array long enough to hold them
    all, with room for the rounding of sums as large as y_lo and y_hi."""
    slack = 1e-12 + 2.0 * math.ulp(abs(cls.y_lo) + abs(cls.y_hi) + 1.0)
    vals = cls.y_lo + (np.arange(int((cls.width + slack) / step) + 2) + 0.5) * step
    vals = vals[: np.searchsorted(vals, cls.y_hi + 1e-12, side="right")]
    return vals if vals.size else np.asarray([0.5 * (cls.y_lo + cls.y_hi)])


def _path_count(levels: int, knots: int, pinned: Optional[tuple[int, int]]) -> int:
    """Walks over the knots with steps in {-1, 0, 1} on `levels` levels, swept
    knot by knot in Python ints.  The walks through a pinned (p, q) join one
    over p + 1 knots ending at q to one over the other knots starting at q,
    and as many walks start at q as end there.  On one or two levels every
    sequence of levels is a walk, so there are levels^knots of them, or
    levels^(knots - 1) through a pinned level."""
    if levels <= 2:
        return levels ** (knots - (pinned is not None))
    p, q = pinned or (knots - 1, 0)
    ways = np.ones(levels, dtype=object)  # walks over the knots so far, by their last level
    at_q = [ways[q]]
    for _ in range(max(p, knots - 1 - p)):
        last = ways.copy()
        ways[1:] += last[:-1]
        ways[:-1] += last[1:]
        at_q.append(ways[q])
    return at_q[p] * at_q[knots - 1 - p] if pinned else int(ways.sum())


def _lipschitz_paths(
    cls: HypothesisClass, eps: float
) -> tuple[np.ndarray, int, Optional[tuple[int, int]], int]:
    """Lattice, knot count, pinned (knot, level) of the anchor and exact member
    count of the Lipschitz net; raises for levels x knots, the work of counting, past the cap."""
    lam = cls.lip_bound
    if 2.0 * lam / eps == math.inf:  # a lattice step that underflows to 0
        raise _oversized(eps)
    cells = max(1, math.ceil(2.0 * lam / eps - 1e-9))
    step = lam * (1.0 / cells)  # lattice step == max knot move, <= eps/2
    knots = cells + 1
    if (cls.width / step + 1.0) * knots > NET_SIZE_CAP:  # about _lattice's levels x knots
        raise NetExplosionError(f"net for eps={eps} has too many lattice points to count")
    lattice = _lattice(cls, step)
    pinned = None
    if cls.kind == "lipschitz_anchored":
        ax, ay = cls.anchor
        pinned = (int(round(ax * cells)), int(np.argmin(np.abs(lattice - ay))))
    return lattice, knots, pinned, _path_count(lattice.size, knots, pinned)


def covering_count(cls: HypothesisClass, eps: float) -> int:
    """Cardinality of the net `build_epsilon_net` constructs at radius eps,
    an upper bound for the class covering number, counted exactly without
    building the net, past the enumeration cap too."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cls.kind == "constants":
        return _constants_count(cls, eps)
    return _lipschitz_paths(cls, eps)[3]


def build_epsilon_net(cls: HypothesisClass, eps: float) -> HypothesisNet:
    """Constructive finite eps-cover of the class in the sup metric."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cls.kind == "constants":
        count = _constants_count(cls, eps)
        if count > NET_SIZE_CAP:
            raise _oversized(eps)
        values = cls.y_lo + (np.arange(count) + 0.5) * (cls.width / count)
        return HypothesisNet(values[:, None], eps, cls)

    lattice, knots, pinned, count = _lipschitz_paths(cls, eps)
    if count > NET_SIZE_CAP:
        raise _oversized(eps)
    levels = lattice.size
    if levels == 1:  # one walk, on up to 10**7 knots: copied once per knot, quadratic
        return HypothesisNet(np.full((1, knots), lattice[0]), eps, cls)
    # each knot extends every walk by -1, 0, +1 levels, in that order, so the
    # walks stay in lexicographic order; on two levels or more they multiply
    walks = np.arange(levels, dtype=np.min_scalar_type(-levels - 1))[:, None]
    p, q = pinned or (-1, 0)  # an unpinned walk has no knot to reach
    for k in range(knots):
        if k:
            last = (walks[:, -1:] + np.array([-1, 0, 1], walks.dtype)).reshape(-1, 1)
            walks = np.hstack((walks.repeat(3, axis=0), last))
        # up to the anchor's knot p, knot k keeps the levels that can still
        # reach the pinned level q, so every walk kept has a completion and no
        # step holds more than 3 walks per member; after p it keeps the lattice
        reach = p - k if k <= p else levels
        lo, hi = max(0, q - reach), min(levels, q + reach + 1)
        walks = walks[(walks[:, -1] >= lo) & (walks[:, -1] < hi)]
    return HypothesisNet(lattice[walks], eps, cls)


def random_member(
    cls: HypothesisClass, knot_count: int, seed: int, lane: int
) -> Hypothesis:
    """A random feasible class member on the given knot grid."""
    if cls.kind == "constants":
        u = rng.uniform(seed, lane, 0)
        return Hypothesis((cls.y_lo + u * cls.width,))
    move = cls.lip_bound * (1.0 / (knot_count - 1))
    if cls.kind == "lipschitz_anchored":
        ax, start_value = cls.anchor
        start = int(round(ax * (knot_count - 1)))
    else:
        start, start_value = 0, cls.y_lo + rng.uniform(seed, lane, 0) * cls.width
    values = np.empty(knot_count)
    values[start] = start_value
    # knot k draws index k and moves at most `move` from its neighbour
    # towards the start: a forward sweep, then a backward one
    for ks, to_start in ((range(start + 1, knot_count), -1), (range(start - 1, -1, -1), 1)):
        for k in ks:
            u = 2.0 * rng.uniform(seed, lane, k) - 1.0
            values[k] = np.clip(values[k + to_start] + u * move, cls.y_lo, cls.y_hi)
    return Hypothesis(tuple(float(v) for v in values))


def net_covering_probe(
    net: HypothesisNet,
    cls: HypothesisClass,
    probe_count: int,
    seed: int = 0,
) -> float:
    """Worst covering distance of random class members to the net.

    Probes live on a grid that cuts each cell of the net's knots in four,
    where the sup distance of two piecewise-linear functions is attained at
    the knots.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be at least 1")
    cells = max(net.knot_count - 1, 1)
    probe_knots = cells * 4 + 1
    xs = np.linspace(0.0, 1.0, probe_knots)
    member_vals = net.member_matrix(xs)
    s = rng.derive(seed, rng.PROBE)
    worst = 0.0
    for p in range(probe_count):
        h = random_member(cls, probe_knots, s, p)
        gap = float(np.abs(member_vals - np.asarray(h(xs))).max(axis=1).min())
        worst = max(worst, gap)
    return worst


def class_metric(h1: Hypothesis, h2: Hypothesis) -> float:
    """Sup distance between hypotheses sharing a knot grid, attained at the
    knots."""
    if h1.knot_count != h2.knot_count:
        raise ValueError(
            f"knot grids differ ({h1.knot_count} vs {h2.knot_count})"
        )
    return float(np.abs(np.asarray(h1.knot_values) - np.asarray(h2.knot_values)).max())


def covering_bound_holder(C: float, d: int, gamma: float, eps: float) -> float:
    """Natural log of the Holder-class covering bound: C * eps^(-2d/gamma)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if d < 1:
        raise ValueError("d must be a positive integer")
    try:
        value = C * eps ** (-2.0 * d / gamma)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"Holder covering bound overflows at eps={eps!r} with d={d}, gamma={gamma}"
        )
    return value
