"""Exact L1-Wasserstein distances between finitely supported measures.

`_optimal_plan` solves one pair, building its staircase once, by:

1.  Quantile (x-monotone) coupling plus an optimality certificate, in
    two steps.  Both accept the staircase only if its cost is within
    `_DUAL_TOL` (per unit of mass) of the optimum.

    a.  The line bound, O(m + n) time and memory (`_near_one_line`).  Let
        delta be the largest vertical distance of any atom of mu or nu
        from the line through the leftmost and the rightmost of their
        atoms.  Moving every atom vertically onto that line moves each
        cell cost by at most 2 delta (triangle inequality).  On a
        non-vertical line of slope s the moved atoms are
        sqrt(1 + s^2) |x - x'| apart, a convex function of x - x', so the
        x-monotone coupling, the staircase, is optimal for them
        (Rachev & Rueschendorf 1998, vol. I, sec. 3.1; Villani 2003,
        Thm 2.18).  Hence the staircase costs at most its moved cost plus
        2 delta, at most the moved optimum plus 2 delta, at most W1 plus
        4 delta.  The staircase is accepted when 4 delta is at most
        `_DUAL_TOL` after allowing for the rounding of computing delta:
        with unit roundoff r = 2^-53, the computed delta is within
        3r (|s| w + max |y| + delta) of the exact distance to the line
        the computed slope s defines (w is the x-width of the atoms), and
        the check adds 4r times that sum.  This covers every affine
        target (identity, constant, affine), where delta is 0 or a few
        ulps, and never a vertical line.
    b.  The block check, for every pair the line bound leaves.  The
        staircase coupling is a basic feasible solution of the
        transportation polytope; dual potentials u, v with u_i + v_j = c_ij
        on its support are recovered by a single sweep (`_stair_duals`).
        If the reduced cost c_ij - u_i - v_j is at least -`_DUAL_TOL`
        everywhere, LP duality certifies the coupling as optimal up to
        that tolerance.  This takes O(m n) time and O(m + n) memory plus
        one block of about `_BLOCK_CELLS` cells: costs are read on the
        staircase's m + n - 1 cells only, and the check prices every cell
        of the m x n matrix one block of rows at a time.  It accepts
        curved targets whose cost is order-compatible on the atoms (the
        quadratic) and some tent pairs.
2.  The transportation LP solved by HiGHS (`scipy.optimize.linprog`) for
    everything else, on a restricted support: the staircase cells, which
    alone make it feasible, plus the cheapest cell of each row and each
    column, plus the most negative cell of each row and each column under
    the staircase's duals, from the one sweep that route 1b priced with.
    On the eight tent decay solves against the 1024-point grid, HiGHS
    solved the support without those last cells in no simplex iteration:
    the staircase was already optimal on it, so that solve only rebuilt
    the staircase's duals, and pricing with them up front saves it.  After
    each solve the duals u, v price every cell through the same reduced
    cost, and the most negative cell with c_ij - u_i - v_j < -tol of each
    row and each column joins the support before the LP is solved again.  When no cell is left, the plan is
    feasible and the duals are feasible for the full LP, the same duality
    certificate as in route 1, so the cost is exact.  Each round adds a
    cell, so the loop ends, at worst on the dense LP.  Optimal plans on a
    curve pair near neighbours, so the support stays a small fraction of
    the m x n cells.  One cell per row and column, not two, keeps each
    restricted LP small: HiGHS time grows with the support, and on the
    eight tent decay solves against the 1024-point grid two cells took 12
    solves where one takes 15, but 1.6 times the CPU time.

Neither route builds the m x n cost matrix.  Past the line bound, both
price the cells one block of rows of about `_BLOCK_CELLS` cells at a
time, in one reused buffer (`_reduced_blocks`), and read the costs of
single cells (the staircase, the LP objective, the plan cost) from the
cells alone.
Route 2 chooses each row's cell within its block and each column's cell
across the blocks with `argmin`, so ties go to the lower index and the
support does not depend on the block size.

`wasserstein1_exact_batch` solves many pairs and returns their costs in
order, each pair solved exactly as `wasserstein1_exact` solves it, so no
cost depends on the thread.  The line bound tells in O(m + n), before any
solve, which pairs route 1a takes.  Those take O(m + n) each and are
solved on the calling thread, where a pool would only add its start-up.
Every other pair may need an O(m n) block check or route 2, and is one
work item of `parallel.for_each` (the calling thread plus one helper
thread per further usable CPU), largest m n first, so block checks overlap
each other and the LPs: numpy's pricing loops release the GIL.  scipy's
HiGHS solve holds it (scipy 1.17.1: two 60 x 60 transportation LPs on
two threads took as long as one after the other, CPU time equal to wall),
so an LP overlaps only another thread's numpy pricing or block checks,
never another LP.

There is no assignment route.  The only uniform measures of equal size
the experiments compare are pairs of one-step kernels, two atoms each, and
those are solved in closed form by `chain.one_step_w1`: an optimal
coupling of two uniform two-atom measures is one of the two permutations
(Birkhoff-von Neumann).  scipy is imported on the first LP solve, so runs
that never reach route 2 do not pay for importing it.

Costs come from the curve metric in `state_space`: the blocks from
`chord_distances`, single cells from its paired form, with the same IEEE
operations, so every cost is the same float whichever form computed it.
Both routes price cells with `_reduced_cost`, each against its own
tolerance.

A plan is three arrays (rows, cols, masses), mass masses[k] on cell
(rows[k], cols[k]).  Every returned plan is feasible and attains the
returned cost; the test suite cross-checks the solver against exhaustive
vertex-coupling minimization on small instances and against the
Kantorovich-Rubinstein dual lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .chain import one_step_w1
from .parallel import for_each
from .state_space import (
    DiscreteMeasure,
    SizeError,
    StatePoint,
    chord_distances,
    paired_chord_distances,
)

ATOM_CAP = 4096          # per measure, after duplicate merging
_DUAL_TOL = 1e-11
_LP_TOL = 1e-10  # HiGHS feasibility tolerances and the restricted LP's pricing check
_BLOCK_CELLS = 1 << 16  # cells per row block of the dual checks
# A staircase row or column is exhausted once its residual mass is at most
# this.  Each step leaves one residual exactly 0.0; the other is exhausted
# too only on a near-tie, whose leftover, far below the unit roundoff of the
# unit total mass (1.1e-16), becomes a zero-mass tie link, not a cell.
_STAIR_EXHAUSTED = 1e-18
# Route 2 drops cells whose LP mass is at most this: basic cells at a
# degenerate vertex carry 0 up to HiGHS's roundoff, and dropping one moves a
# marginal by at most this, five orders of magnitude inside `_LP_TOL`.
_LP_MASS_CUTOFF = 1e-15
# Largest |sum of weights - 1| a measure may reach the solvers with.  A
# measure built with the default check is within 1e-12 already; this
# catches one built with `normalize_check=False` that is not a probability
# measure, and leaves room for weights a caller rounded.
_NORMALIZATION_TOL = 1e-9


def _costs(mu: DiscreteMeasure, nu: DiscreteMeasure, rows, cols) -> np.ndarray:
    """c_ij on the cells (rows[k], cols[k]), in their order."""
    return paired_chord_distances(mu.xs[rows], mu.ys[rows], nu.xs[cols], nu.ys[cols])


def _reduced_cost(cost: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c_ij - u_i - v_j, written over `cost` (rows matching u, columns
    matching v): the duals u, v are feasible where it is nonnegative."""
    cost -= u[:, None]
    cost -= v
    return cost


def _staircase(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quantile coupling as a plan (rows, cols, masses): mass masses[k]
    on cell (rows[k], cols[k]), with zero-mass tie links keeping the support
    a connected staircase tree (a degenerate transportation basis)."""
    a, b = a.tolist(), b.tolist()
    m, n = len(a), len(b)
    rows: list[int] = []
    cols: list[int] = []
    masses: list[float] = []
    i = j = 0
    ra, rb = a[0], b[0]
    while i < m and j < n:
        mass = rb if rb < ra else ra  # min(ra, rb) without the call
        rows.append(i)
        cols.append(j)
        masses.append(mass)
        ra -= mass
        rb -= mass
        a_done = ra <= _STAIR_EXHAUSTED
        b_done = rb <= _STAIR_EXHAUSTED
        if a_done and b_done:
            if i + 1 < m and j + 1 < n:
                rows.append(i + 1)
                cols.append(j)
                masses.append(0.0)
            i += 1
            j += 1
            if i < m:
                ra = a[i]
            if j < n:
                rb = b[j]
        elif a_done:
            i += 1
            if i < m:
                ra = a[i]
        else:
            j += 1
            if j < n:
                rb = b[j]
    return np.array(rows, np.intp), np.array(cols, np.intp), np.array(masses)


def _plan_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, rows, cols, masses) -> float:
    """Sum of masses[k] * c_ij over the cells (rows[k], cols[k]) of a plan,
    added one at a time in their order (`cumsum` adds sequentially)."""
    return float(np.cumsum(masses * _costs(mu, nu, rows, cols))[-1])


def _reduced_blocks(mu: DiscreteMeasure, nu: DiscreteMeasure, u: np.ndarray, v: np.ndarray):
    """(lo, c_ij - u_i - v_j on rows lo, lo + 1, ...) for row blocks of
    about `_BLOCK_CELLS` cells, each written over the previous one in one
    buffer: block-sized arrays allocated afresh page-fault again on every
    block.  No m x n array is built."""
    m, n = len(mu), len(nu)
    step = max(1, _BLOCK_CELLS // n)
    work = np.empty((2, min(step, m), n))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        block = chord_distances(mu.xs[lo:hi], mu.ys[lo:hi], nu.xs, nu.ys, work[:, : hi - lo])
        yield lo, _reduced_cost(block, u[lo:hi], v)


def _near_one_line(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """True if 4 delta, plus the rounding of computing delta, is at most
    `_DUAL_TOL`, where delta is the largest vertical distance of an atom of
    mu or nu from the line through the leftmost and the rightmost of them;
    False if that line is vertical (route 1a of the module note)."""
    xs = np.concatenate([mu.xs, nu.xs])
    ys = np.concatenate([mu.ys, nu.ys])
    lo, hi = xs.argmin(), xs.argmax()
    width = xs[hi] - xs[lo]
    if not width > 0.0:
        return False
    slope = (ys[hi] - ys[lo]) / width
    delta = np.abs(ys - (ys[lo] + slope * (xs - xs[lo]))).max()
    rounding = 2.0 * math.ulp(1.0) * (abs(slope) * width + np.abs(ys).max() + delta)
    return bool(4.0 * (delta + rounding) <= _DUAL_TOL)  # NaN rejects too


def _stair_duals(mu: DiscreteMeasure, nu: DiscreteMeasure, stairs):
    """Dual potentials (u, v), u_0 = 0, with u_i + v_j = c_ij on every cell
    of the staircase plan `stairs`, by one sweep along it: each cell shares
    a row or a column with the one before.  None if the staircase misses a
    row or a column."""
    rows, cols, _ = stairs
    u: list[float | None] = [None] * len(mu)
    v: list[float | None] = [None] * len(nu)
    u[0] = 0.0
    for i, j, c in zip(rows.tolist(), cols.tolist(), _costs(mu, nu, rows, cols).tolist()):
        if v[j] is None and u[i] is not None:
            v[j] = c - u[i]
        elif u[i] is None and v[j] is not None:
            u[i] = c - v[j]
    if None in u or None in v:
        return None
    return np.array(u), np.array(v)


def _cheapest_cells(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    u: np.ndarray,
    v: np.ndarray,
    support: np.ndarray,
    below: float,
) -> np.ndarray:
    """Flat indices i * n + j of the cells of least reduced cost in every
    row and in every column, leaving out the sorted flat indices `support`
    and keeping only reduced costs below `below`.

    Rows are chosen within their block and columns across blocks, by
    `argmin`, so ties go to the lower index and the cells do not depend on
    the block size.
    """
    n = len(nu)
    cols = np.arange(n)
    col_least = np.full(n, np.inf)
    col_row = np.zeros(n, dtype=np.intp)
    picks = []
    for lo, block in _reduced_blocks(mu, nu, u, v):
        rows = np.arange(block.shape[0])
        first, last = np.searchsorted(support, (lo * n, (lo + rows.size) * n))
        i, j = np.divmod(support[first:last] - lo * n, n)
        block[i, j] = np.inf
        j = block.argmin(axis=1)
        least = block[rows, j]
        picks.append(((lo + rows) * n + j)[least < below])
        i = block.argmin(axis=0)
        least = block[i, cols]
        better = least < col_least
        col_least[better] = least[better]
        col_row[better] = lo + i[better]
    picks.append((col_row * n + cols)[col_least < below])
    return np.concatenate(picks)


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call: importing scipy
    takes most of the package's import time, and only route 2 needs it."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


def _transportation_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, stairs, duals):
    """The plan (rows, cols, masses) of HiGHS on a support grown until the
    duals price out every cell (route 2), starting from the cells of the
    staircase plan `stairs`, the cheapest cells, and the most negative cells
    under the staircase's duals `duals` (`_stair_duals`), if not None."""
    from scipy.sparse import csr_matrix

    m, n = len(mu), len(nu)
    cells = np.union1d(
        _cheapest_cells(mu, nu, np.zeros(m), np.zeros(n), np.empty(0, np.intp), np.inf),
        stairs[0] * n + stairs[1],
    )
    # the staircase is a basis of this support and is often optimal on it,
    # so a first solve would only rebuild its duals: price with them instead
    if duals is not None:
        cells = np.union1d(cells, _cheapest_cells(mu, nu, *duals, cells, -_LP_TOL))
    while True:
        # variable k carries the mass on cell (rows[k], cols[k]): it enters
        # row constraint rows[k] and column constraint m + cols[k]
        rows, cols = np.divmod(cells, n)
        var = np.arange(cells.size)
        mat = csr_matrix(
            (np.ones(2 * var.size), (np.concatenate([rows, m + cols]), np.tile(var, 2))),
            shape=(m + n, var.size),
        )
        res = linprog(
            _costs(mu, nu, rows, cols),
            A_eq=mat,
            b_eq=np.concatenate([mu.weights, nu.weights]),
            bounds=(0, None),
            method="highs",
            options={
                "primal_feasibility_tolerance": _LP_TOL,
                "dual_feasibility_tolerance": _LP_TOL,
            },
        )
        if res.status != 0:
            raise RuntimeError(f"transportation LP failed: {res.message}")
        duals = res.eqlin.marginals
        # HiGHS stops once reduced costs on the support are >= -_LP_TOL; the
        # same bound off the support makes the plan optimal for the full LP
        grow = _cheapest_cells(mu, nu, duals[:m], duals[m:], cells, -_LP_TOL)
        if not grow.size:
            break
        cells = np.union1d(cells, grow)
    keep = res.x > _LP_MASS_CUTOFF
    return rows[keep], cols[keep], res.x[keep]


def _checked(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """mu and nu merged, once both are normalized and within the atom cap."""
    for name, m in (("mu", mu), ("nu", nu)):
        if abs(m.weights.sum() - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"{name} is not normalized: weights sum to {m.weights.sum()!r}")
    mu = mu.merged()
    nu = nu.merged()
    if len(mu) > ATOM_CAP or len(nu) > ATOM_CAP:
        raise SizeError(
            f"{max(len(mu), len(nu))} atoms exceed the cap of {ATOM_CAP}; "
            "pre-coarsen via quantile binning"
        )
    return mu, nu


def _optimal_plan(mu: DiscreteMeasure, nu: DiscreteMeasure, on_line: bool):
    """An optimal plan (rows, cols, masses) of a checked pair, given its
    line-bound verdict `on_line`: the staircase's positive-mass cells if
    route 1 certifies them, else route 2's plan from route 1b's duals."""
    stairs = _staircase(mu.weights, nu.weights)
    if not on_line:
        duals = _stair_duals(mu, nu, stairs)
        if duals is None or any(  # NaN rejects too
            not block.min() >= -_DUAL_TOL for _, block in _reduced_blocks(mu, nu, *duals)
        ):
            return _transportation_lp(mu, nu, stairs, duals)
    rows, cols, masses = stairs
    keep = masses > 0.0
    return rows[keep], cols[keep], masses[keep]


def wasserstein1_exact(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Optimal transport cost between mu and nu under the Euclidean metric,
    and an optimal plan (rows, cols, masses) of the merged measures."""
    mu, nu = _checked(mu, nu)
    plan = _optimal_plan(mu, nu, _near_one_line(mu, nu))
    return _plan_cost(mu, nu, *plan), plan


def wasserstein1_exact_batch(pairs) -> list[float]:
    """The cost of `wasserstein1_exact` of every pair (mu, nu) in `pairs`,
    in their order.

    Every pair is checked and merged on the calling thread before any solve
    starts, so the first bad pair raises there.  Each pair is then solved
    as `wasserstein1_exact` solves it, and only the cost is kept: first, on
    the calling thread, the pairs the line bound accepts, then every other
    pair as one work item of `parallel.for_each`, each group largest
    (m * n) first.  No cost depends on the thread.
    """
    checked = [_checked(mu, nu) for mu, nu in pairs]
    on_line = [_near_one_line(mu, nu) for mu, nu in checked]
    costs = [0.0] * len(checked)

    def solve(k: int) -> None:
        mu, nu = checked[k]
        costs[k] = _plan_cost(mu, nu, *_optimal_plan(mu, nu, on_line[k]))

    order = sorted(range(len(checked)), key=lambda k: -len(checked[k][0]) * len(checked[k][1]))
    for k in order:
        if on_line[k]:
            solve(k)
    for_each(solve, [k for k in order if not on_line[k]])
    return costs


def wasserstein1_monotone_upper(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Cost of the increasing-x quantile coupling.

    A feasible coupling, hence always >= the exact distance; equal to it
    whenever the chord metric is order-compatible.  It is on every affine
    target, which `_near_one_line` relies on: there the exact solvers
    accept this coupling in O(m + n), pricing no cell off it.
    """
    mu, nu = mu.merged(), nu.merged()
    return _plan_cost(mu, nu, *_staircase(mu.weights, nu.weights))


def kr_dual_lower(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    witness_count: int,
    seed: int = 0,
    knots: int = 8,
) -> float:
    """Kantorovich-Rubinstein lower bound from 1-Lipschitz witnesses.

    Witnesses are the canonical distance functions rho(., z) anchored at
    support atoms plus random piecewise-linear profiles in the curve
    parameter, projected onto the 1-Lipschitz cone by inf-convolution with
    the support metric.
    """
    if witness_count < 1:
        raise ValueError("witness_count must be at least 1")
    mu = mu.merged()
    nu = nu.merged()
    xs = np.concatenate([mu.xs, nu.xs])
    ys = np.concatenate([mu.ys, nu.ys])
    sig = np.concatenate([mu.weights, -nu.weights])
    dist = chord_distances(xs, ys, xs, ys)

    best = 0.0
    # canonical witnesses: g = rho(., z) attains the distance for point masses
    anchors = range(len(xs)) if len(xs) <= 512 else range(0, len(xs), len(xs) // 512)
    for k in anchors:
        best = max(best, abs(float(np.dot(sig, dist[k]))))

    s = rng.derive(seed, rng.WITNESS)
    scale = float(dist.max()) or 1.0
    knot_x = np.linspace(xs.min(), xs.max() + 1e-12, knots)
    for w in range(witness_count):
        raw_knots = (rng.uniform_array(s, np.full(knots, w), np.arange(knots)) * 2 - 1) * scale
        raw = np.interp(xs, knot_x, raw_knots)
        g = (raw[None, :] + dist).min(axis=1)  # largest 1-Lipschitz minorant
        best = max(best, abs(float(np.dot(sig, g))))
    return best


@dataclass(frozen=True)
class ContractionAudit:
    sup_ratio: float
    worst_pair: tuple[StatePoint, StatePoint]
    rows: tuple[tuple[float, float, float, float, float], ...]  # x1,x2,rho,w1,ratio


def contraction_audit(chain, pair_count: int, seed: int = 0) -> ContractionAudit:
    """Sampled sup of W1(P(z1,.), P(z2,.)) / rho(z1, z2) over state pairs."""
    if pair_count < 1:
        raise ValueError("pair_count must be at least 1")
    target = chain.space.target
    s = rng.derive(seed, rng.PAIR_SAMPLING)
    lanes = np.arange(pair_count)
    x1 = rng.uniform_array(s, lanes, np.zeros_like(lanes))
    x2 = rng.uniform_array(s, lanes, np.ones_like(lanes))
    for i in np.flatnonzero(x1 == x2).tolist():
        bump = 2
        while x2[i] == x1[i]:  # degenerate pair: resample deterministically
            x2[i] = rng.uniform(s, i, bump)
            bump += 1
    y1, y2 = (np.asarray(target(xs), dtype=float) for xs in (x1, x2))
    w1 = one_step_w1(chain, x1, x2)
    d = np.fromiter(map(math.hypot, x1 - x2, y1 - y2), float, pair_count)
    ratio = w1 / d
    k = int(np.argmax(ratio))  # the first maximum, as a loop with a strict > keeps
    worst = (StatePoint(x1[k].item(), y1[k].item()), StatePoint(x2[k].item(), y2[k].item()))
    rows = zip(x1.tolist(), x2.tolist(), d.tolist(), w1.tolist(), ratio.tolist())
    return ContractionAudit(ratio[k].item(), worst, tuple(rows))
