"""Experiment orchestration: configs, Monte Carlo tail estimation, and
deterministic reports.

Everything downstream of (config, master seed) is reproducible byte for
byte: replications draw from counter-based streams, reports carry a config
hash instead of timestamps, and serialization is canonical (sorted JSON
keys, fixed CSV column order, shortest-roundtrip float formatting).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import numbers
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from . import bounds as bd
from . import parallel, rng, transport
from .chain import (
    BUDGET,
    ContractiveChain,
    arc_length_measure,
    block_width,
    invariant_measure,
    kernel_pushforward,
    lemma_atom_check,
    n_step_kernel,
    simulate_x_blocks,
)
from .hypothesis import (
    HatMoments,
    Hypothesis,
    HypothesisClass,
    HypothesisNet,
    build_epsilon_net,
    covering_bound_holder,
    covering_count,
)
from .learner import DegenerateClassError, opt_pi, true_errors
from .loss import loss_constants
from .state_space import graph_point, make_space, make_target


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


def _is_int(value: Any) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _float(value: Any) -> Any:
    """A real number that is not a bool as a float, so that equal configs
    ("eps": 1 and "eps": 1.0) are stored, and hashed, alike; any other
    value, or an integer too large for a float, as it is, to fail its
    check."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return value


def _floats(value: Any) -> Any:
    """A list or tuple as a tuple of `_float` entries; any other value as it is."""
    return tuple(map(_float, value)) if isinstance(value, (list, tuple)) else value


def _is_finite(value: Any) -> bool:
    """A finite float, which is how `_float` stores a finite real number."""
    return isinstance(value, float) and math.isfinite(value)


# how a value of each float-typed field (and of each target parameter) is
# stored; the annotations are strings under `from __future__ import annotations`
_STORED = {
    "float": _float,
    "Optional[float]": _float,
    "Optional[tuple[float, float]]": _floats,
    "tuple[float, ...]": _floats,
    "dict": lambda v: {k: _float(x) for k, x in v.items()} if isinstance(v, dict) else v,
}
# what the stored value of a field of each annotated type must be, and the
# entries of each tuple type
_VALUE_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (_is_finite, "a finite number"),
    "Optional[float]": (lambda v: v is None or _is_finite(v), "a finite number"),
    "Optional[tuple[float, float]]": (
        lambda v: v is None or (isinstance(v, tuple) and len(v) == 2 and all(map(_is_finite, v))),
        "a list of two finite numbers",
    ),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)), "a list"),
    "tuple[float, ...]": (lambda v: isinstance(v, (list, tuple)), "a list"),
}
_ENTRY_CHECKS = {
    "tuple[int, ...]": (_is_int, "an integer"),
    "tuple[float, ...]": (_is_finite, "a finite number"),
}


def _ranged(default: Any, ok: Callable[[Any], bool], must: Any) -> Any:
    """A config field whose value, or every entry of a tuple value, passes
    `ok`; `must`, or what it returns when it is a function, ends the
    message "<field> must ..." that rejects any other value."""
    return field(default=default, metadata={"range": (ok, must)})


def _at_least(lo: int, default: Any) -> Any:
    return _ranged(default, lambda v: v >= lo, f"be at least {lo}")


def _positive(default: float) -> Any:
    return _ranged(default, lambda v: v > 0, "be positive")


def _one_of(default: Any, choices: Callable[[], Iterable[str]]) -> Any:
    """`choices` is read when a config is checked, since `RUNNERS` comes later."""
    return _ranged(default, lambda v: v in choices(), lambda: "be one of " + ", ".join(choices()))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  Each field's type and range is checked when the
    config is made, in field order, and the first failure raises a
    `ConfigError` naming the field.  The ranges are the hypotheses of the
    bounds (ε > 0, δ ∈ (0, 1), a positive net radius, a Hölder covering
    bound ln N ≤ C·r^(-2d/γ) with C > 0, d ≥ 1 and γ ∈ (0, 1], overridden
    constants η ∈ (0, 1), C1 > 0 and 0 < m ≤ M) and the least grids and
    counts that a run can work with.  The target and the class are checked
    by making them."""

    kind: str = _one_of(MISSING, lambda: RUNNERS)
    target_name: str = "identity"
    target_params: dict = field(default_factory=dict)
    x0_policy: str = _one_of("fixed", lambda: ("fixed", "uniform", "stationary"))
    x0: float = _ranged(0.0, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
    class_kind: str = "constants"
    y_lo: float = 0.0
    y_hi: float = 1.0
    lip_bound: float = 0.0
    anchor: Optional[tuple[float, float]] = None
    net_radius: float = _positive(0.05)
    master_seed: int = _ranged(  # the streams mask a seed to 64 bits (`rng`)
        1, lambda v: 0 <= v < 2**64, f"lie in 0..{2**64 - 1}"
    )
    replications: int = _at_least(1, 100)
    pi_grid: int = _at_least(2, 4096)
    diameter_grid: int = _at_least(2, 1024)
    n: int = _at_least(1, 10_000)
    n_list: tuple[int, ...] = _at_least(1, ())
    eps: float = _positive(0.1)
    eps_list: tuple[float, ...] = _positive(())
    delta: float = _ranged(0.05, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
    alpha: float = _positive(1.0)
    pair_count: int = _at_least(1, 10_000)
    decay_n_max: int = _ranged(  # Pⁿ(z₀, ·) has 2ⁿ atoms, at most the solver's cap
        12,
        lambda v: 1 <= v <= transport.ATOM_CAP.bit_length() - 1,
        f"lie in 1..{transport.ATOM_CAP.bit_length() - 1}",
    )
    decay_grid: int = _ranged(
        4096, lambda v: 2 <= v <= transport.ATOM_CAP, f"lie in 2..{transport.ATOM_CAP}"
    )
    opt_refinement: int = _at_least(1, 8)
    eta_override: Optional[float] = _ranged(None, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
    c1_override: Optional[float] = _positive(None)
    m_override: Optional[float] = _positive(None)
    M_override: Optional[float] = _positive(None)
    poisson_grid: int = _at_least(2, 64)
    poisson_rollouts: int = _at_least(1, 10_000)
    poisson_h_const: float = 0.5
    truncation_tol: float = _positive(1e-3)
    holder_c: float = _positive(1.0)
    holder_d: int = _at_least(1, 1)
    holder_gamma: float = _ranged(1.0, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
    lemma_probes: int = _at_least(1, 32)
    lemma_tolerance: float = _at_least(0, 1e-9)
    lemma_grid: int = _at_least(2, 4096)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _STORED:
                value = _STORED[f.type](value)
                object.__setattr__(self, f.name, value)
            if f.type in _VALUE_CHECKS:
                ok, what = _VALUE_CHECKS[f.type]
                if not ok(value):
                    raise ConfigError(f"{f.name} must be {what}, got {value!r}")
            if f.type in _ENTRY_CHECKS:
                value = tuple(value)  # a list, from JSON or from a caller, is kept as a tuple
                object.__setattr__(self, f.name, value)
                ok, what = _ENTRY_CHECKS[f.type]
                if not all(ok(v) for v in value):
                    raise ConfigError(f"every {f.name} entry must be {what}, got {list(value)!r}")
            if "range" in f.metadata and value is not None:
                ok, must = f.metadata["range"]
                entries = isinstance(value, tuple)
                if not all(map(ok, value if entries else (value,))):
                    name = f"every {f.name} entry" if entries else f.name
                    raise ConfigError(f"{name} must {must() if callable(must) else must}")
        if not all(map(_is_finite, self.target_params.values())):
            raise ConfigError(
                f"every target_params value must be a finite number, got {self.target_params!r}"
            )
        try:  # the target, checked by making it
            target = make_target(self.target_name, **self.target_params)
        except ValueError as exc:
            raise ConfigError(
                f"target_name {self.target_name!r} with target_params {self.target_params}: {exc}"
            ) from None
        if None not in (self.m_override, self.M_override) and self.m_override > self.M_override:
            raise ConfigError(f"m_override must be at most M_override = {self.M_override}")
        try:  # the class fields against each other, checked by the class
            cls = build_class(self)
            # every kind but these two bounds the loss by constants of the
            # class range and the target's range, such as B = D^2
            if self.kind not in ("contraction", "lemma"):
                loss_constants(cls, target)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # the Poisson check bounds h's loss with the class's loss constants
        if self.kind == "poisson" and not self.y_lo <= self.poisson_h_const <= self.y_hi:
            raise ConfigError(
                f"poisson_h_const must lie in the class range [y_lo, y_hi] = "
                f"[{self.y_lo}, {self.y_hi}]"
            )
        # the scaling slopes are least-squares lines through (ln 1/eps, ln n)
        if self.kind == "scaling" and len(set(self.eps_list)) == 1:
            raise ConfigError("eps_list must hold at least two distinct values for kind scaling")

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in raw:
            raise ConfigError("config needs an experiment 'kind'")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # undecodable bytes, bad JSON or an over-long integer literal
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return ExperimentConfig.from_dict(raw)


# --- model assembly ---------------------------------------------------------

def build_chain(config: ExperimentConfig) -> ContractiveChain:
    target = make_target(config.target_name, **config.target_params)
    return ContractiveChain(make_space(target, config.diameter_grid))


def build_class(config: ExperimentConfig) -> HypothesisClass:
    return HypothesisClass(
        kind=config.class_kind,
        y_lo=config.y_lo,
        y_hi=config.y_hi,
        lip_bound=config.lip_bound,
        anchor=config.anchor,
    )


def chain_eta(chain: ContractiveChain) -> float:
    return 1.0 - math.sqrt(1.0 + chain.space.target.lip**2) / 2.0


def model_constants(
    config: ExperimentConfig,
    chain: ContractiveChain,
    cls: HypothesisClass,
    m: Optional[float] = None,
    M: Optional[float] = None,
) -> bd.ModelConstants:
    """Bound inputs for a configured experiment.

    Overridden eta/C1 must stay conservative (eta no larger than the audited
    contraction margin, C1 no smaller than the diameter) so that every bound
    evaluated from them remains a true bound.
    """
    eta = chain_eta(chain)
    c1 = chain.space.diameter
    if config.eta_override is not None:
        if config.eta_override > eta + 1e-12:
            raise ConfigError(
                f"eta override {config.eta_override} exceeds the certified "
                f"contraction margin {eta}"
            )
        eta = config.eta_override
    if config.c1_override is not None:
        if config.c1_override < c1 - 1e-12:
            raise ConfigError(
                f"C1 override {config.c1_override} is below the certified "
                f"diameter {c1}"
            )
        c1 = config.c1_override
    losses = loss_constants(cls, chain.space.target)
    if losses.L_bar == 0.0:
        raise ConfigError(
            "the loss is identically zero (class range and target range are the "
            "same single point), so L_bar = 0 and no bound applies"
        )
    return bd.ModelConstants.from_chain(eta, c1, losses, m, M)


@dataclass
class _Model:
    """What a run reads of its config, each part built on first use, so a
    run builds only what it reads.  The builders are looked up in this
    module when called, so a wrapper bound there sees every build."""

    config: ExperimentConfig

    @cached_property
    def chain(self) -> ContractiveChain:
        return build_chain(self.config)

    @cached_property
    def cls(self) -> HypothesisClass:
        return build_class(self.config)

    @cached_property
    def net(self) -> HypothesisNet:
        return build_epsilon_net(self.cls, self.config.net_radius)

    @cached_property
    def pi_hat(self):
        return invariant_measure(self.chain, self.config.pi_grid)

    @cached_property
    def true(self) -> np.ndarray:
        """The true error of every net member."""
        return true_errors(self.net, self.pi_hat)

    def consts(self, m: Optional[float] = None, M: Optional[float] = None) -> bd.ModelConstants:
        return model_constants(self.config, self.chain, self.cls, m, M)

    def error_range(self) -> tuple[float, float]:
        """(m, M): `m_override` and `M_override`, or else the least and
        greatest true error over the net; the net and the invariant measure
        are built only when an end is not overridden."""
        m, M = self.config.m_override, self.config.M_override
        m = float(self.true.min()) if m is None else m
        M = float(self.true.max()) if M is None else M
        return m, M


def initial_xs(config: ExperimentConfig, pi_hat, reps: np.ndarray) -> np.ndarray:
    if config.x0_policy == "fixed":
        return np.full(reps.size, config.x0)
    s = rng.derive(config.master_seed, rng.INITIAL_STATE)
    u = rng.uniform_array(s, reps, np.zeros_like(reps))
    if config.x0_policy == "uniform":
        return u
    idx = np.minimum((u * len(pi_hat)).astype(int), len(pi_hat) - 1)
    return pi_hat.xs[idx]


# --- reports ---------------------------------------------------------------

@dataclass
class Report:
    metadata: dict[str, Any]
    columns: tuple[str, ...]
    rows: list[tuple]

    def __post_init__(self) -> None:
        # numpy scalars become plain Python values, which both formats render
        self.metadata = {k: _plain(v) for k, v in self.metadata.items()}
        self.columns = tuple(self.columns)
        self.rows = list(map(tuple, self.rows))
        kinds = set(map(type, itertools.chain.from_iterable(self.rows)))
        if any(issubclass(kind, np.generic) for kind in kinds):
            self.rows = [tuple(map(_plain, r)) for r in self.rows]


def _plain(v: Any) -> Any:
    return v.item() if isinstance(v, np.generic) else v


def _json_cell(v: Any) -> Any:
    """Non-finite floats as the strings their CSV cells hold, since JSON has
    no literal for them."""
    return repr(v) if isinstance(v, float) and not math.isfinite(v) else v


def _fmt_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_report(report: Report, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(report.metadata):
            buf.write(f"# {key}={_fmt_cell(report.metadata[key])}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.columns)
        # the csv module writes floats with repr and the rest with str, as
        # _fmt_cell does, so only columns holding other types (bool, None)
        # go through it
        cols = [
            col if set(map(type, col)) <= {str, int, float} else list(map(_fmt_cell, col))
            for col in zip(*report.rows, strict=True)
        ]
        writer.writerows(zip(*cols))
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "metadata": {k: _json_cell(v) for k, v in report.metadata.items()},
            "columns": list(report.columns),
            "rows": [[_json_cell(v) for v in r] for r in report.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


def write_report(report: Report, path: str, fmt: str = "csv") -> None:
    text = render_report(report, fmt)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# --- batched empirical statistics -------------------------------------------

def _hat_moments_at(
    blocks: Iterable[np.ndarray], target, knot_count: int, stops: tuple[int, ...]
) -> Iterator[tuple[int, HatMoments]]:
    """(n, moments of the first n states of every row) for each n of the
    increasing `stops`, from one pass over the column blocks of states that
    end at the last stop.

    The blocks are folded as they come.  The moments at an n inside a block
    are the running sum plus the moments of that block's first n - lo
    columns (lo the states before the block).  Those columns are the same
    floats, in the same layout, as the last block of a pass that ends at n,
    since the simulator's block width does not depend on n, so each n's
    moments are bit for bit those of its own pass.  An n at the end of a
    block is the running sum.
    """

    def fold(moments: Optional[HatMoments], xs: np.ndarray) -> HatMoments:
        part = HatMoments.from_samples(xs, target(xs), knot_count)
        return part if moments is None else moments + part

    moments, done, next_stop = None, 0, 0
    for xs in blocks:
        end = done + xs.shape[1]
        while stops[next_stop] < end:
            yield stops[next_stop], fold(moments, xs[:, : stops[next_stop] - done])
            next_stop += 1
        moments, done = fold(moments, xs), end
        if stops[next_stop] == end:
            yield end, moments
            next_stop += 1


def _batch_empirical_at(
    net: HypothesisNet,
    chain: ContractiveChain,
    config: ExperimentConfig,
    n_values: tuple[int, ...],
    pi_hat,
    score: Callable[[np.ndarray], np.ndarray],
) -> list[np.ndarray]:
    """`score` of the empirical errors at each n of `n_values`, in their
    order.  The errors of a block of replications, shape (members,
    replications), match `empirical_error` on the first n states of each
    trajectory; `score` reduces them column by column, and only its
    result is kept, so no run holds the errors of every replication.

    Each block of replications is simulated once, to the largest n, and
    folded into the hat-basis moments as it is drawn (`_hat_moments_at`),
    so the work is that of the largest n, not of the sum of them.  A block
    of replications holds at most `BUDGET // knot_count` of them, so memory
    does not grow with n, and many knots do not make the moments grow with
    the replications.

    For a net of several knots, a block is cut into
    min(`parallel.usable_cpus()`, replications in the block) contiguous
    parts, each its own `simulate_x_blocks` call over its lanes at the
    width the whole block gets (`block_width`).  Each part is one
    `parallel.for_each` item that folds its lanes and scores them at each n
    as its moments come, keeping only the scored result, and the parts'
    results are joined in replication order.  A row's moments depend only
    on its own states and the block width, and its errors only on its
    moments (`HypothesisNet.mean_squared_errors`), so a part's columns are
    the same floats as the undivided block's.  A part of L
    lanes holds one block of its states (L x width cells), the few
    temporaries of that size its moments are built with, and its moments
    at one n.  A one-knot net keeps one part: its moments are a running
    sum, so its fold is the simulator's per-step loop of short numpy calls,
    which a split would walk once per part.
    """
    target = chain.space.target
    stream = rng.derive(config.master_seed, rng.TRAJECTORY)
    rep_block = max(1, BUDGET // net.knot_count)
    reps_all = np.arange(config.replications, dtype=np.uint64)
    stops = tuple(sorted(set(n_values)))
    scored: list[list[np.ndarray]] = []  # per part, in replication order: one result per stop
    for lo in range(0, config.replications, rep_block):
        reps = reps_all[lo : lo + rep_block]
        parts = 1 if net.knot_count == 1 else min(parallel.usable_cpus(), reps.size)
        cuts = [reps.size * i // parts for i in range(parts + 1)]
        width = block_width(reps.size)
        by_part: list[list[np.ndarray]] = [[] for _ in range(parts)]

        def fold(i: int) -> None:
            lanes = reps[cuts[i] : cuts[i + 1]]
            blocks = simulate_x_blocks(
                initial_xs(config, pi_hat, lanes), stops[-1], stream, lanes, width=width
            )
            for _, moments in _hat_moments_at(blocks, target, net.knot_count, stops):
                by_part[i].append(score(net.mean_squared_errors(moments)))
                del moments  # not held while the next n is folded

        parallel.for_each(fold, range(parts))
        scored += by_part
    by_stop = dict(zip(stops, (np.concatenate(s, axis=-1) for s in zip(*scored))))
    return [by_stop[n] for n in n_values]


def _grid(config: ExperimentConfig) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The n and eps values of an experiment: `n_list` and `eps_list`, or
    else the single `n` and `eps`."""
    n_values = tuple(int(n) for n in config.n_list or (config.n,))
    return n_values, config.eps_list or (config.eps,)


def _exceedance_report(
    model: _Model,
    deviation: Callable[[np.ndarray], np.ndarray],
    bound: Callable[[float, int], tuple[float, bool]],
    meta: dict[str, Any],
) -> Report:
    """One row per (n, eps) of the grid, n major: how many of the trials
    (replications) have a deviation above eps, next to the tail bound.

    `deviation` maps the (members, replications) empirical errors at one n
    to one deviation per replication, column by column, since each block of
    replications is reduced as it is scored; `bound(eps, n)` gives the
    bound and its validity flag.  `low_probability_rows` lists the rows
    whose bound is below 1e-3, and `meta` adds to the metadata.
    """
    config = model.config
    n_values, eps_values = _grid(config)
    trials = config.replications
    rows: list[tuple] = []
    low_rows: list[int] = []
    deviations = _batch_empirical_at(
        model.net, model.chain, config, n_values, model.pi_hat, deviation
    )
    for n, devs in zip(n_values, deviations):
        for eps in eps_values:
            exceed = int((devs > eps).sum())
            value, valid = bound(eps, n)
            if value < 1e-3:
                low_rows.append(len(rows))
            rows.append((n, float(eps), trials, exceed, exceed / trials, value, valid))
    return Report(
        {
            **_base_metadata(config),
            **meta,
            "net_size": len(model.net),
            "low_probability_rows": ",".join(map(str, low_rows)),
        },
        ("n", "eps", "trials", "exceedances", "empirical_freq", "theoretical_bound", "bound_valid"),
        rows,
    )


# --- experiments -------------------------------------------------------------

def _base_metadata(config: ExperimentConfig) -> dict[str, Any]:
    return {"config_hash": config.digest(), "seed": config.master_seed}


def run_contraction_audit(config: ExperimentConfig) -> Report:
    chain = build_chain(config)
    target = chain.space.target
    eta = chain_eta(chain)
    c1, c2 = bd.ergodicity_constants(eta, chain.space.diameter)
    audit = transport.contraction_audit(chain, config.pair_count, config.master_seed)
    ratio_bound = 1.0 - eta

    pi_hat = invariant_measure(chain, config.decay_grid)
    z0 = graph_point(config.x0, target)
    chord = math.sqrt(1.0 + target.lip**2)
    decay_tol = chord / config.decay_grid
    steps = range(1, config.decay_n_max + 1)
    # the invariance defects of the two invariant-measure candidates: the
    # uniform pushforward must be invariant up to discretization, normalized
    # arc length only when |f'| is constant
    defect_grid = min(config.decay_grid, 128)
    candidates = (invariant_measure(chain, defect_grid), arc_length_measure(chain, defect_grid))
    pairs = [(n_step_kernel(chain, z0, n), pi_hat) for n in steps]
    pairs += [(m, kernel_pushforward(chain, m)) for m in candidates]
    *decay, pushforward_defect, arc_length_defect = transport.wasserstein1_exact_batch(pairs)
    rows: list[tuple] = []
    decay_violations = 0
    for n, w1 in zip(steps, decay):
        bound = c1 * math.exp(-c2 * n)
        ok = w1 <= bound + decay_tol + 1e-9
        decay_violations += not ok
        rows.append(("decay", float(n), 0.0, 0.0, w1, bound, ok))
    rows += [
        ("pair", x1, x2, d, w1, ratio, ratio <= ratio_bound + 1e-9)
        for x1, x2, d, w1, ratio in audit.rows
    ]

    meta = _base_metadata(config)
    meta.update(
        {
            "eta": eta,
            "c1": c1,
            "c2": c2,
            "sup_ratio": audit.sup_ratio,
            "ratio_bound": ratio_bound,
            "worst_x1": audit.worst_pair[0].x,
            "worst_x2": audit.worst_pair[1].x,
            "decay_tolerance": decay_tol,
            "invariance_defect_grid": defect_grid,
            "invariance_defect_pushforward": pushforward_defect,
            "invariance_defect_arc_length": arc_length_defect,
            "violations": int(decay_violations + (audit.sup_ratio > ratio_bound + 1e-9)),
        }
    )
    return Report(meta, ("row_kind", "x1_or_n", "x2", "rho", "w1", "ratio_or_bound", "ok"), rows)


def run_concentration_experiment(config: ExperimentConfig) -> Report:
    model = _Model(config)
    consts = model.consts()
    true = model.true
    return _exceedance_report(
        model,
        lambda emp: np.abs(emp - true[:, None]).max(axis=0),
        lambda eps, n: bd.uniform_tail_bound(eps, n, consts, covering_number=len(model.net)),
        {"L": consts.L, "L_bar": consts.L_bar, "B": consts.B, "eta": consts.eta, "c1": consts.C1},
    )


def run_asem_experiment(config: ExperimentConfig) -> Report:
    """The learner on each trajectory picks the net member of least
    empirical error (ties to the smallest index).  As the exact minimizer
    over the finite net it is a 0-ASEM for the net and, through the
    joint-Lipschitz inequality, an (L_bar * radius)-ASEM for the full class.
    """
    model = _Model(config)
    consts = model.consts()
    net, true = model.net, model.true
    opt = opt_pi(net, model.pi_hat, config.opt_refinement)

    def pick(errors: np.ndarray) -> np.ndarray:
        """Per replication, the picked member and its error: the element
        itself, since `min` may give -0.0 where `argmin` picks a +0.0."""
        picks = errors.argmin(axis=0)
        return np.stack([picks, np.take_along_axis(errors, picks[None], axis=0)[0]])

    picked, emp = _batch_empirical_at(net, model.chain, config, (config.n,), model.pi_hat, pick)[0]
    picks = picked.astype(int)
    gaps = np.abs(true[picks] - opt)
    successes = gaps < 5.0 * config.eps

    cov_n1 = covering_count(model.cls, config.eps / (4.0 * consts.L_bar))
    n1_value = bd.n1(config.eps, config.delta, consts, covering_number=cov_n1)
    rows = [
        (int(r), int(picks[r]), float(emp[r]), float(true[picks[r]]), float(gaps[r]), bool(successes[r]))
        for r in range(config.replications)
    ]
    meta = _base_metadata(config)
    meta.update(
        {
            "eps": config.eps,
            "n": config.n,
            "net_size": len(net),
            "opt_pi": opt,
            "success_freq": float(successes.mean()),
            "n1": n1_value,
            "n1_covering": cov_n1,
            "n_below_n1": bool(config.n < n1_value),
        }
    )
    return Report(
        meta,
        ("replication", "pick_index", "empirical", "true_error", "abs_gap", "success"),
        rows,
    )


def run_relative_experiment(config: ExperimentConfig) -> Report:
    model = _Model(config)
    true = model.true
    m, M = model.error_range()
    if m <= 0.0:
        raise DegenerateClassError("class error range has m = 0")
    consts = model.consts(m, M)
    xi1, xi2 = bd.xi_constants(m, M, consts)
    return _exceedance_report(
        model,
        lambda emp: (np.abs(emp - true[:, None]) / np.sqrt(true)[:, None]).max(axis=0),
        lambda eps, n: bd.relative_tail_bound(
            eps, n, consts, covering_number=covering_count(model.cls, eps / consts.L_bar)
        ),
        {"m": m, "M": M, "xi1": xi1, "xi2": xi2},
    )


def run_scaling_experiment(config: ExperimentConfig) -> Report:
    model = _Model(config)
    m, M = model.error_range()
    if m <= 0.0:
        raise DegenerateClassError("class error range has m = 0")
    consts = model.consts(m, M)

    def ln_holder(radius: float) -> float:
        return covering_bound_holder(config.holder_c, config.holder_d, config.holder_gamma, radius)

    eps_values = config.eps_list or tuple(2.0**-k for k in range(3, 9))
    rows: list[tuple] = []
    n1s, n3s = [], []
    root = math.sqrt(1.0 + 1.0 / config.alpha)
    for eps in eps_values:
        ln_cov1 = ln_holder(eps / (4.0 * consts.L_bar))
        v1 = bd.n1(eps, config.delta, consts, ln_covering=ln_cov1)
        ln_cov3 = ln_holder(math.sqrt(eps) / (consts.L_bar * root))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v3 = bd.n3(eps, config.delta, config.alpha, consts, ln_covering=ln_cov3)
        n1s.append(v1)
        n3s.append(v3)
        rows.append((float(eps), v1, v3))

    log_inv_eps = np.log(1.0 / np.asarray(eps_values))
    slope1 = float(np.polyfit(log_inv_eps, np.log(np.asarray(n1s, dtype=float)), 1)[0])
    slope3 = float(np.polyfit(log_inv_eps, np.log(np.asarray(n3s, dtype=float)), 1)[0])
    meta = _base_metadata(config)
    meta.update(
        {
            "n1_slope": slope1,
            "n3_slope": slope3,
            "holder_c": config.holder_c,
            "holder_d": config.holder_d,
            "holder_gamma": config.holder_gamma,
            "alpha": config.alpha,
            "delta": config.delta,
            "m": m,
            "M": M,
        }
    )
    return Report(meta, ("eps", "n1", "n3"), rows)


def run_bounds_calculator(config: ExperimentConfig) -> Report:
    model = _Model(config)
    m, M = model.error_range()
    consts = model.consts(m if m > 0 else None, M if m > 0 else None)

    n_values, eps_values = _grid(config)
    rows: list[tuple] = []
    for eps in eps_values:
        cov_u = covering_count(model.cls, eps / (4.0 * consts.L_bar))
        cov_r = covering_count(model.cls, eps / consts.L_bar) if consts.m is not None else None
        for n in n_values:
            sh = bd.single_h_tail_bound(eps, n, consts)
            rows.append((float(eps), n, "single_h", sh.value, sh.valid))
            un = bd.uniform_tail_bound(eps, n, consts, covering_number=cov_u)
            rows.append((float(eps), n, "uniform", un.value, un.valid))
            if cov_r is not None:
                rel = bd.relative_tail_bound(eps, n, consts, covering_number=cov_r)
                rows.append((float(eps), n, "relative", rel.value, rel.valid))
    meta = _base_metadata(config)
    meta.update(
        {
            "eta": consts.eta,
            "c1": consts.C1,
            "c2": consts.C2,
            "L": consts.L,
            "L_bar": consts.L_bar,
            "B": consts.B,
            "m": m,
            "M": M,
        }
    )
    return Report(meta, ("eps", "n", "bound_kind", "bound", "valid"), rows)


def run_poisson_check(config: ExperimentConfig) -> Report:
    model = _Model(config)
    consts = model.consts()
    chain, pi_hat = model.chain, model.pi_hat
    h = Hypothesis((config.poisson_h_const,))
    tol = config.truncation_tol
    truncation = bd.truncation_for_tolerance(consts, tol)
    estimate = bd.poisson_estimate(
        h, chain, pi_hat, consts, config.poisson_grid, truncation, config.poisson_rollouts,
        config.master_seed, tol,
    )
    residual = bd.poisson_residual_check(estimate, chain, h, pi_hat)
    norm_bound = consts.poisson_tail(0)
    sup_g = float(np.abs(estimate.values).max())
    norm_ok = sup_g <= norm_bound + estimate.mc_tolerance
    residual_ok = residual.max_residual <= residual.threshold
    rows = [(float(x), float(g)) for x, g in zip(estimate.xs, estimate.values)]
    meta = _base_metadata(config)
    meta.update(
        {
            "truncation": truncation,
            "rollouts": config.poisson_rollouts,
            "mc_tolerance": estimate.mc_tolerance,
            "norm_bound": norm_bound,
            "sup_g": sup_g,
            "norm_ok": norm_ok,
            "max_residual": residual.max_residual,
            "residual_threshold": residual.threshold,
            "interpolation_slack": residual.interpolation_slack,
            "residual_ok": residual_ok,
            "violations": int((not norm_ok) + (not residual_ok)),
        }
    )
    return Report(meta, ("x", "g_hat"), rows)


def run_lemma_check(config: ExperimentConfig) -> Report:
    chain = build_chain(config)
    report = lemma_atom_check(
        chain,
        config.lemma_probes,
        config.lemma_tolerance,
        seed=config.master_seed,
        preimage_grid=config.lemma_grid,
    )
    meta = _base_metadata(config)
    meta.update(
        {
            "passed": report.passed,
            "worst_violation": report.worst_violation,
            "worst_y": report.worst_y if report.worst_y is not None else "",
            "violations": int(not report.passed),
        }
    )
    rows = []
    if report.worst_preimages is not None:
        rows.append(
            (
                float(report.worst_y),
                float(report.worst_preimages[0]),
                float(report.worst_preimages[1]),
                float(report.worst_violation),
            )
        )
    return Report(meta, ("y", "x1", "x2", "w1_gap"), rows)


RUNNERS = {
    "contraction": run_contraction_audit,
    "concentration": run_concentration_experiment,
    "asem": run_asem_experiment,
    "relative": run_relative_experiment,
    "scaling": run_scaling_experiment,
    "bounds": run_bounds_calculator,
    "poisson": run_poisson_check,
    "lemma": run_lemma_check,
}


def run_experiment(config: ExperimentConfig) -> Report:
    return RUNNERS[config.kind](config)
