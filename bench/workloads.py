"""Workload definitions and layer predictions for the chainlearn benchmark.

A workload is a fixed list of operations; one pass runs each of them once.
An operation is one experiment, either through the public API
(`load_config`, `run_experiment`, `render_report`) or through
`chainlearn.cli.main` writing a report file.  Every config gets the
workload seed as its `master_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 1
# Never used while the benchmark or a change was tuned; a claimed gain must
# also hold at this seed.
HELD_OUT_SEED = 20211008


@dataclass(frozen=True)
class Op:
    """One operation: a subcommand, its config and the outcome it must have."""

    subcommand: str
    config: dict
    fmt: str = "csv"
    via_cli: bool = False
    expect_exit: int = 0
    expect_violations: int = 0
    # config keys replaced for the reduced-size self-check
    small: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.subcommand}.{self.fmt}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]


_MC = {"replications": 300, "n_list": [1000, 4000]}
_MC_SMALL = {"replications": 60, "n_list": [500, 1000]}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit-identity",
            "certified staircase W1 only: 1e4 two-atom solves plus 12 decay solves up to "
            "4096x4096; exercises W1 per-call cost, bypasses simulation and net evaluation",
            (
                Op(
                    "audit-contraction",
                    {
                        "kind": "contraction",
                        "target_name": "identity",
                        "pair_count": 10_000,
                        "decay_grid": 4096,
                        "decay_n_max": 12,
                    },
                    small={"pair_count": 2000, "decay_grid": 1024, "decay_n_max": 10},
                ),
            ),
        ),
        Workload(
            "audit-tent",
            "non-monotone tent cost defeats the certificate, so 8 HiGHS LP solves dominate; "
            "exercises the assignment and LP routes, bypasses net evaluation",
            (
                Op(
                    "audit-contraction",
                    {
                        "kind": "contraction",
                        "target_name": "tent",
                        "pair_count": 2000,
                        "decay_grid": 1024,
                    },
                    small={"pair_count": 500, "decay_grid": 512, "decay_n_max": 9},
                ),
            ),
        ),
        Workload(
            "mc-lipschitz",
            "178-member Lipschitz net scored on 500 trajectories; exercises per-member net "
            "evaluation, which dominates, and bypasses W1",
            (
                Op(
                    "concentration",
                    {
                        "kind": "concentration",
                        "class_kind": "lipschitz",
                        "lip_bound": 1.0,
                        "net_radius": 0.5,
                        "replications": 500,
                        "n_list": [1000, 4000],
                        "eps_list": [0.05, 0.1],
                    },
                    small={"replications": 100, "n_list": [500, 2000]},
                ),
            ),
        ),
        Workload(
            "suite",
            "all eight subcommands through cli.main, half JSON, half CSV; the known "
            "poisson-check --format json TypeError counts as failed (failed_ratio 1/8)",
            (
                Op(
                    "audit-contraction",
                    {
                        "kind": "contraction",
                        "target_name": "identity",
                        "pair_count": 500,
                        "decay_grid": 1024,
                        "decay_n_max": 10,
                    },
                    via_cli=True,
                    small={"pair_count": 100, "decay_grid": 256, "decay_n_max": 8},
                ),
                Op(
                    "concentration",
                    {"kind": "concentration", "class_kind": "constants", **_MC,
                     "eps_list": [0.05, 0.1]},
                    via_cli=True,
                    small=_MC_SMALL,
                ),
                Op(
                    "asem",
                    {"kind": "asem", "class_kind": "constants", "replications": 300,
                     "n": 4000, "opt_refinement": 32},
                    fmt="json",
                    via_cli=True,
                    small={"replications": 60, "n": 1000},
                ),
                Op(
                    "relative",
                    {"kind": "relative", "class_kind": "constants", **_MC,
                     "eps_list": [0.2, 0.4]},
                    via_cli=True,
                    small=_MC_SMALL,
                ),
                Op("scaling", {"kind": "scaling", "class_kind": "constants"}, via_cli=True),
                Op(
                    "bounds",
                    {"kind": "bounds", "class_kind": "constants",
                     "n_list": [1000, 10_000], "eps_list": [0.05, 0.1]},
                    fmt="json",
                    via_cli=True,
                ),
                Op(
                    "poisson-check",
                    {"kind": "poisson", "poisson_rollouts": 20_000},
                    fmt="json",
                    via_cli=True,
                    small={"poisson_rollouts": 4000},
                ),
                Op(
                    "lemma-check",
                    {"kind": "lemma", "target_name": "tent"},
                    fmt="json",
                    via_cli=True,
                    expect_exit=2,
                    expect_violations=1,
                ),
            ),
        ),
    )
}


def configs(workload: Workload, seed: int, small: bool = False) -> list[dict]:
    """The config of every operation, seeded and optionally reduced."""
    return [
        {**op.config, **(op.small if small else {}), "master_seed": seed}
        for op in workload.ops
    ]


# --- predictions --------------------------------------------------------------
#
# Written down before measuring: which end-to-end metric each layer metric
# should move, on which workload it does most of its work, and where it should
# be near zero.  A time metric is "near zero" when its share of the traced
# pass wall time is below NEAR_ZERO_SHARE.  Workloads not listed under "on"
# are predicted near zero.

NEAR_ZERO_SHARE = 0.05
DOMINANT_SHARE = 0.5


def _pred(metric: str, moves: str, on: tuple[str, ...]) -> dict:
    return {"metric": metric, "moves": moves, "on": on}


_AUDITS = ("audit-identity", "audit-tent")

PREDICTIONS = [
    _pred("rng.busy_s", "wall_s", ("suite", "mc-lipschitz")),
    _pred("chain.simulate.self_s", "wall_s", ("suite", "mc-lipschitz")),
    _pred("chain.kernel.calls", "wall_s", ("audit-identity",)),
    _pred("chain.lemma.self_s", "wall_s", ("suite",)),
    _pred("state_space.diameter.busy_s", "wall_s", ("suite",)),
    _pred("state_space.measure.busy_s", "wall_s", ("audit-identity",)),
    _pred("transport.w1.busy_s", "wall_s", _AUDITS),
    _pred("transport.w1.cost_entries", "peak_rss_mb", ("audit-identity",)),
    _pred("transport.lp.busy_s", "wall_s", ("audit-tent",)),
    _pred("transport.assignment.busy_s", "wall_s", ("audit-tent",)),
    _pred("transport.audit.self_s", "wall_s", ("audit-identity",)),
    _pred("hypothesis.net.busy_s", "wall_s", ("suite",)),
    _pred("hypothesis.eval.busy_s", "wall_s", ("mc-lipschitz",)),
    _pred("learner.true_errors.busy_s", "wall_s", ("suite",)),
    _pred("learner.opt_pi.busy_s", "wall_s", ("suite",)),
    _pred("bounds.poisson.self_s", "wall_s", ("suite",)),
    _pred("bounds.calc.busy_s", "wall_s", ("suite",)),
    _pred("harness.mc.self_s", "wall_s", ("mc-lipschitz", "suite")),
    _pred("harness.experiment.contraction.busy_s", "wall_s", ("suite",) + _AUDITS),
    _pred("harness.experiment.concentration.busy_s", "wall_s", ("suite", "mc-lipschitz")),
    *(
        _pred(f"harness.experiment.{kind}.busy_s", "wall_s", ("suite",))
        for kind in ("asem", "relative", "scaling", "bounds", "poisson", "lemma")
    ),
    _pred("harness.render.busy_s", "wall_s", ("audit-identity", "suite")),
    _pred("cli.main.self_s", "wall_s", ("suite",)),
]

# The layers that should take most of a traced pass on each workload.
DOMINANT = {
    "audit-identity": ("transport.w1.busy_s",),
    "audit-tent": ("transport.lp.busy_s",),
    "mc-lipschitz": ("hypothesis.eval.busy_s",),
    "suite": ("rng.busy_s", "chain.simulate.self_s", "bounds.poisson.self_s"),
}


def check_predictions(workload: str, layers: dict[str, float]) -> list[str]:
    """Mismatches between one workload's traced layer metrics and the
    predictions; `layers` maps metric name to its per-pass value and must
    hold `trace.pass_s`."""
    wall = layers["trace.pass_s"]
    problems = []
    for pred in PREDICTIONS:
        value = layers.get(pred["metric"], 0.0)
        if workload in pred["on"]:
            if value <= 0:
                problems.append(f"{pred['metric']} is 0, predicted to do work here")
        elif pred["metric"].endswith("_s") and value / wall >= NEAR_ZERO_SHARE:
            problems.append(
                f"{pred['metric']} takes {value / wall:.1%} of the pass, "
                f"predicted near zero (< {NEAR_ZERO_SHARE:.0%})"
            )
    group = DOMINANT[workload]
    share = sum(layers.get(m, 0.0) for m in group) / wall
    if share < DOMINANT_SHARE:
        problems.append(
            f"{' + '.join(group)} takes {share:.1%} of the pass, "
            f"predicted dominant (>= {DOMINANT_SHARE:.0%})"
        )
    return problems
