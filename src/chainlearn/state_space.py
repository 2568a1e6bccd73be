"""The curve state space Z = {(x, f(x)) : x in [0, 1]} and measures on it.

The metric is the plain Euclidean distance of R^2 restricted to the graph of
a Lipschitz target function f.  The target's Lipschitz constant must stay
below sqrt(3), which keeps the two-branch chain a strict Wasserstein
contraction.  `paired_chord_distances` is the one array form of that
metric, elementwise over pairs of points, and `chord_distances` is its
outer form: the diameter, the transport costs, the Kantorovich-Rubinstein
witnesses and the closed-form two-atom W1 all take their distances from
them, and `rho` is its scalar form for single pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng

MAX_LIP = math.sqrt(3.0)


@dataclass(frozen=True)
class TargetFunction:
    """A Lipschitz map [0,1] -> R with a certified Lipschitz bound.

    ``evaluator`` must accept floats and numpy arrays elementwise.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    lip: float
    family_tag: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.lip < MAX_LIP:
            raise ValueError(
                f"Lipschitz bound must lie in [0, sqrt(3)), got {self.lip}"
            )

    def __call__(self, x):
        return self.evaluator(x)


def make_target(name: str, **params: float) -> TargetFunction:
    """Build a target function by name; the CLI config uses the same names."""
    unknown = sorted(set(params) - {"constant": {"c"}, "affine": {"a", "b"}}.get(name, set()))
    if unknown:
        raise ValueError(f"unknown parameters {unknown} for target {name!r}")
    if name == "identity":
        return TargetFunction(lambda x: np.asarray(x, dtype=float) + 0.0, 1.0, "identity")
    if name == "constant":
        c = float(params.get("c", 0.0))
        return TargetFunction(
            lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c), 0.0, "constant"
        )
    if name == "affine":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 0.0))
        return TargetFunction(
            lambda x, a=a, b=b: a * np.asarray(x, dtype=float) + b, abs(a), "affine"
        )
    if name == "tent":
        return TargetFunction(
            lambda x: np.abs(np.asarray(x, dtype=float) - 0.5), 1.0, "tent"
        )
    if name == "quadratic":
        # x -> x^2 / 2, Lipschitz constant 1 on [0, 1]; its arc-length density
        # varies with x, which the invariant-measure audit relies on.
        return TargetFunction(
            lambda x: 0.5 * np.asarray(x, dtype=float) ** 2, 1.0, "quadratic"
        )
    raise ValueError(f"unknown target function {name!r}")


@dataclass(frozen=True)
class StatePoint:
    x: float
    y: float


@dataclass(frozen=True)
class SpaceDescriptor:
    target: TargetFunction
    diameter: float


def graph_point(x: float, target: TargetFunction) -> StatePoint:
    """The point (x, f(x)); raises for x outside the unit interval."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside the domain [0, 1]")
    return StatePoint(float(x), float(target(x)))


def rho(z1: StatePoint, z2: StatePoint) -> float:
    return math.hypot(z1.x - z2.x, z1.y - z2.y)


def paired_chord_distances(x1, y1, x2, y2, work=None) -> np.ndarray:
    """Distances between the points (x1, y1) and (x2, y2), elementwise under
    numpy broadcasting: equal-length 1-d inputs give one distance per pair.

    Built in place on two temporaries the size of the result, bit for bit
    sqrt(dx*dx + dy*dy).  A float array `work` of shape (2, *result shape)
    replaces the two temporaries, and the result is then `work[0]`.
    """
    dx, dy = (None, None) if work is None else work
    dx = np.subtract(x1, x2, out=dx, dtype=float)
    dy = np.subtract(y1, y2, out=dy, dtype=float)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def chord_distances(x1, y1, x2, y2, work=None) -> np.ndarray:
    """Distances between the points (x1, y1) and (x2, y2), outer over the
    leading axis: 1-d inputs of lengths m and n give an (m, n) array, (2, P)
    inputs give (2, 2, P).  Each entry is `paired_chord_distances` of its
    pair, with the same IEEE operations, and `work` is passed on to it.
    """
    x1, y1, x2, y2 = (np.asarray(a, dtype=float) for a in (x1, y1, x2, y2))
    return paired_chord_distances(x1[:, None], y1[:, None], x2[None, :], y2[None, :], work)


def curve_diameter(target: TargetFunction, grid: int = 1024) -> float:
    """Certified upper bound on sup rho over the curve.

    Grid maximum plus the Lipschitz slack 2*sqrt(1+lip^2)/grid dominates the
    true diameter; the chord bound sqrt(1+lip^2) dominates it as well, so the
    smaller of the two is still an upper bound.  The distance matrix is
    symmetric, so the grid maximum is taken over its upper triangle, in
    blocks of about sqrt(grid) rows.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    xs = np.linspace(0.0, 1.0, grid)
    ys = target(xs)
    rows = math.isqrt(grid)
    grid_max = max(
        float(chord_distances(xs[i : i + rows], ys[i : i + rows], xs[i:], ys[i:]).max())
        for i in range(0, grid, rows)
    )
    slack = 2.0 * math.sqrt(1.0 + target.lip**2) / grid
    chord = math.sqrt(1.0 + target.lip**2)
    return min(grid_max + slack, chord)


def make_space(target: TargetFunction, grid: int = 1024) -> SpaceDescriptor:
    return SpaceDescriptor(target=target, diameter=curve_diameter(target, grid))


def target_range(target: TargetFunction, grid: int = 2048) -> tuple[float, float]:
    """Certified enclosure of f([0,1]): exact for the built-in families,
    grid plus Lipschitz slack otherwise."""
    if target.family_tag in ("identity", "constant", "affine", "tent", "quadratic"):
        # monotone or piecewise-monotone with known breakpoints
        xs = np.array([0.0, 0.5, 1.0])
        ys = np.asarray(target(xs), dtype=float)
        return float(ys.min()), float(ys.max())
    xs = np.linspace(0.0, 1.0, grid)
    ys = np.asarray(target(xs), dtype=float)
    slack = target.lip / (2 * (grid - 1))
    return float(ys.min() - slack), float(ys.max() + slack)


def verify_target_lipschitz(target: TargetFunction, pair_count: int, seed: int = 0) -> float:
    """Worst slack of |f(x1)-f(x2)| <= lip*|x1-x2| + 1e-12 over sampled pairs.

    Negative return means the bound held on every sampled pair.
    """
    s = rng.derive(seed, rng.PROBE)
    idx = np.arange(pair_count)
    x1 = rng.uniform_array(s, idx, np.zeros_like(idx))
    x2 = rng.uniform_array(s, idx, np.ones_like(idx))
    lhs = np.abs(np.asarray(target(x1)) - np.asarray(target(x2)))
    rhs = target.lip * np.abs(x1 - x2) + 1e-12
    return float((lhs - rhs).max())


class SizeError(ValueError):
    """A measure exceeds the solver's atom cap."""


class DiscreteMeasure:
    """Finitely supported probability measure on the curve, atoms sorted by x."""

    __slots__ = ("xs", "ys", "weights")

    def __init__(self, xs, ys, weights, *, normalize_check: bool = True):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if not (xs.shape == ys.shape == weights.shape) or xs.ndim != 1 or xs.size == 0:
            raise ValueError("atoms must be three equal-length 1-d arrays")
        order = np.lexsort((ys, xs))
        xs, ys, weights = xs[order], ys[order], weights[order]
        if normalize_check and abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
        for arr in (xs, ys, weights):
            arr.setflags(write=False)
        self.xs, self.ys, self.weights = xs, ys, weights

    @classmethod
    def on_graph(cls, target: TargetFunction, xs, weights) -> "DiscreteMeasure":
        xs = np.asarray(xs, dtype=float)
        return cls(xs, np.asarray(target(xs), dtype=float), weights)

    def __len__(self) -> int:
        return self.xs.size

    def points(self) -> np.ndarray:
        return np.stack([self.xs, self.ys], axis=1)

    def integrate(self, values: np.ndarray) -> float:
        return float((self.weights * values).sum())

    def merged(self) -> "DiscreteMeasure":
        """Merge duplicate atoms (both coordinates within tol), summing weights.

        Until its first merge the loop compares each atom with the one
        before it, so it merges nothing exactly when no adjacent pair is
        within tol; that case returns self without the loop.
        """
        tol = 1e-15
        xs, ys, ws = self.xs, self.ys, self.weights
        if not ((np.abs(np.diff(xs)) <= tol) & (np.abs(np.diff(ys)) <= tol)).any():
            return self
        keep_x = [xs[0]]
        keep_y = [ys[0]]
        keep_w = [ws[0]]
        for x, y, w in zip(xs[1:], ys[1:], ws[1:]):
            if abs(x - keep_x[-1]) <= tol and abs(y - keep_y[-1]) <= tol:
                keep_w[-1] += w
            else:
                keep_x.append(x)
                keep_y.append(y)
                keep_w.append(w)
        return DiscreteMeasure(keep_x, keep_y, keep_w, normalize_check=False)

    def __repr__(self) -> str:
        return f"DiscreteMeasure({len(self)} atoms)"
