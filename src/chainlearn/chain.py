"""The two-branch contractive chain on the curve state space.

One step maps x to x/2 or (x+1)/2 with probability 1/2 each, so dyadic
rationals stay dyadic forever while irrational starts never reach them:
the chain is not irreducible.  Its x-marginal leaves the uniform law on
[0, 1] invariant, and this module carries exact kernels, the one float
trajectory simulator (a generator of state blocks, so callers fold each
block as it is drawn) and exact dyadic trajectories, the discretized
invariant measure, the closed-form W1 between one-step kernels, and the
atom check for functions of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import rng
from .state_space import (
    DiscreteMeasure,
    SizeError,
    SpaceDescriptor,
    StatePoint,
    TargetFunction,
    chord_distances,
)

__all__ = [
    "ContractiveChain",
    "DyadicState",
    "DiscreteMeasure",
    "block_width",
    "simulate_x_blocks",
    "trajectory_exact",
    "one_step_w1",
    "n_step_kernel",
    "invariant_measure",
    "arc_length_measure",
    "kernel_pushforward",
    "lemma_atom_check",
]

MAX_KERNEL_STEPS = 20
# most steps in one block of `simulate_x_blocks`
STEP_BLOCK = 512
# most cells (lanes x steps, or replications x knots of the moments the
# callers fold blocks into) held per block
BUDGET = 2**20


@dataclass(frozen=True)
class ContractiveChain:
    space: SpaceDescriptor


@dataclass(frozen=True)
class DyadicState:
    """Exact dyadic rational x = sum bits[i] * 2^-(i+1), bits most significant
    first.  The empty tuple represents 0."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def value(self) -> Fraction:
        num = 0
        for b in self.bits:
            num = num * 2 + b
        return Fraction(num, 2 ** len(self.bits))

    def step(self, bit: int) -> "DyadicState":
        # (x + bit) / 2, exactly: prepend the branch bit
        return DyadicState((bit,) + self.bits)


def block_width(lanes: int) -> int:
    """The steps in each block of `simulate_x_blocks` over `lanes` lanes
    when no width is given: max(1, min(STEP_BLOCK, BUDGET // lanes)), both
    constants read at call time."""
    return max(1, min(STEP_BLOCK, BUDGET // lanes))


def simulate_x_blocks(
    x0, n: int, stream: int, lanes, *, width: int | None = None
) -> Iterator[np.ndarray]:
    """The states x_0 .. x_{n-1} of one trajectory per lane, yielded as
    consecutive column blocks of shape lanes.shape + (width,).

    x_0 = x0 (broadcast against lanes) and x_k = (x_{k-1} + b)/2, where b
    is the bit at (lane, index k) of `stream`, so a lane's trajectory does
    not depend on the other lanes or on the block width, by default
    `block_width(lanes)`.  The lane keys are hashed once
    per call (`rng.bit_keys`) and the branch bits drawn from them a block
    at a time (`rng.keyed_bits`); only the recursion itself runs step by
    step.  A block's words are drawn, and its bits written as the floats 1.0
    and 0.0, in the block's own memory, each step's states are then added
    to its bits in place, and the draw's other words go into one buffer
    reused across the call.

    A block lives in memory step-major: it is allocated (width, lanes) in
    C order, so each step writes one contiguous row, and it is yielded as
    a lane-major view of that memory.  A caller that folds a block step by
    step reads its contiguous rows from `block.T` (1-D lanes).  Callers
    must not write into a block: the next block starts from a view of its
    last row, which saves a copy of the states of every lane.
    """
    keys = rng.bit_keys(stream, lanes)
    del lanes  # the keys stand in for the lanes, which may be freed
    shape = keys.shape
    keys = keys.reshape(-1)
    if width is None:
        width = block_width(keys.size)
    x = np.broadcast_to(np.asarray(x0, dtype=float), shape).reshape(-1)
    draws = min(width, max(n - 1, 0))  # the most bits one block draws
    spare = np.empty((draws, keys.size), dtype=np.uint64)
    for lo in range(0, n, width):
        block = np.empty((min(width, n - lo), keys.size))
        first = int(lo == 0)  # the row of x_0, which takes no bit
        if first:
            block[0] = x
        steps = np.arange(lo + first, lo + len(block), dtype=np.uint64)
        if steps.size:  # the block holding only x_0 draws no bits
            words = block[first:].view(np.uint64)
            rng.keyed_bits(keys, steps, (words, spare[: steps.size]))
            for row in block[first:]:  # row holds its step's bit b as a float
                row += x  # b + x, the float x + b
                row *= 0.5  # the same float as / 2.0, sooner
                x = row
        yield np.moveaxis(block.reshape((len(block),) + shape), 0, -1)


def trajectory_exact(
    chain: ContractiveChain,
    x0: DyadicState,
    n: int,
    seed: int = 0,
    replication_index: int = 0,
    bits: Sequence[int] | None = None,
) -> list[DyadicState]:
    """Start plus n exact dyadic steps (n + 1 states).

    Branch bits come from the trajectory stream of `seed`, as in
    `simulate_x_blocks`, unless given explicitly.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = rng.derive(seed, rng.TRAJECTORY)
    states = [x0]
    for k in range(1, n + 1):
        b = bits[k - 1] if bits is not None else rng.bit(s, replication_index, k)
        states.append(states[-1].step(b))
    return states


def one_step_w1(chain: ContractiveChain, x1, x2) -> np.ndarray:
    """W1 between the one-step kernels at (x1, f(x1)) and (x2, f(x2)),
    elementwise over x-values broadcast against each other.

    Both kernels are uniform on two atoms, so an optimal coupling is one of
    the two permutations (Birkhoff-von Neumann) and
    W1 = min(c00 + c11, c01 + c10) / 2, with the costs c taken from
    `chord_distances` as in `transport.wasserstein1_exact`.
    """
    target = chain.space.target
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    a = np.stack([x1 / 2.0, (x1 + 1.0) / 2.0])  # a[i]: atom i of the kernel at x1
    b = np.stack([x2 / 2.0, (x2 + 1.0) / 2.0])
    c = chord_distances(a, target(a), b, target(b))
    return 0.5 * np.minimum(c[0, 0] + c[1, 1], c[0, 1] + c[1, 0])


def n_step_kernel(chain: ContractiveChain, z: StatePoint, n: int) -> DiscreteMeasure:
    """Exact n-step kernel: 2^n atoms of weight 2^-n at x-values (x+j)/2^n."""
    if not 1 <= n <= MAX_KERNEL_STEPS:
        raise SizeError(
            f"n={n} outside 1..{MAX_KERNEL_STEPS} (kernel has 2^n atoms)"
        )
    count = 1 << n
    xs = (z.x + np.arange(count)) / count
    w = np.full(count, 1.0 / count)
    return DiscreteMeasure.on_graph(chain.space.target, xs, w)


def invariant_measure(chain: ContractiveChain, grid_size: int) -> DiscreteMeasure:
    """Midpoint discretization of the graph-pushforward of the uniform law."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    xs = (np.arange(grid_size) + 0.5) / grid_size
    w = np.full(grid_size, 1.0 / grid_size)
    return DiscreteMeasure.on_graph(chain.space.target, xs, w)


def arc_length_measure(chain: ContractiveChain, grid_size: int) -> DiscreteMeasure:
    """Midpoint atoms weighted by the arc length of each cell, summed over
    16 chords per cell (the competing invariant-measure candidate;
    coincides with the pushforward only when |f'| is constant)."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    target = chain.space.target
    subgrid = 16
    fine = np.linspace(0.0, 1.0, grid_size * subgrid + 1)
    fy = np.asarray(target(fine), dtype=float)
    seg = np.hypot(np.diff(fine), np.diff(fy))
    cell_len = seg.reshape(grid_size, subgrid).sum(axis=1)
    xs = (np.arange(grid_size) + 0.5) / grid_size
    return DiscreteMeasure.on_graph(target, xs, cell_len / cell_len.sum())


def kernel_pushforward(chain: ContractiveChain, measure: DiscreteMeasure) -> DiscreteMeasure:
    """One transition applied to a discrete measure (atom count doubles)."""
    xs = np.concatenate([measure.xs / 2.0, (measure.xs + 1.0) / 2.0])
    w = np.concatenate([measure.weights / 2.0, measure.weights / 2.0])
    return DiscreteMeasure.on_graph(chain.space.target, xs, w).merged()


@dataclass(frozen=True)
class LemmaAtomReport:
    passed: bool
    worst_violation: float
    worst_y: float | None
    worst_preimages: tuple[float, float] | None


def _preimages(target: TargetFunction, y: float, grid: int) -> list[float]:
    xs = np.linspace(0.0, 1.0, grid + 1)
    vals = np.asarray(target(xs), dtype=float) - y
    roots: list[float] = xs[vals == 0.0].tolist()
    sign_change = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    for i in sign_change:
        lo, hi = xs[i], xs[i + 1]
        flo = vals[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = float(target(mid)) - y
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    roots.sort()
    clustered: list[float] = []
    for r in roots:
        if not clustered or r - clustered[-1] > 1e-6:
            clustered.append(r)
    return clustered


def lemma_atom_check(
    chain: ContractiveChain,
    probe_count: int,
    tolerance: float,
    seed: int = 0,
    preimage_grid: int = 4096,
) -> LemmaAtomReport:
    """Do states with equal f-value share the same one-step graph kernel?

    For sampled levels y of the target, the distinct preimages found by grid
    search (refined by bisection) are compared through
    W1(P((x1, y), .), P((x2, y), .)): the first preimage x1 against every
    other x2.  By the triangle inequality the worst of these gaps is at
    least half the worst gap over all pairs of preimages.  Injective
    targets pass vacuously.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be at least 1")
    target = chain.space.target
    s = rng.derive(seed, rng.PROBE)
    worst = 0.0
    worst_y = None
    worst_pair = None
    for t in range(probe_count):
        y = float(target(rng.uniform(s, t, 0)))
        pre = _preimages(target, y, preimage_grid)
        if len(pre) < 2:
            continue
        gaps = one_step_w1(chain, pre[0], pre[1:])
        for x2, gap in zip(pre[1:], gaps.tolist()):
            if gap > worst:
                worst, worst_y, worst_pair = gap, y, (pre[0], x2)
    return LemmaAtomReport(worst <= tolerance, worst, worst_y, worst_pair)
