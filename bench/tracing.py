"""Span tracing from outside the package.

`Tracer.install` wraps the public functions of every chainlearn module, a
few private stages and the two SciPy solvers the transport module calls.
Each wrapper goes into every namespace that binds the wrapped object: module
globals (``harness`` imports ``simulate_x_batch`` by name, ``transport``
calls ``linprog`` through its own globals), dicts held in module globals
(``harness.RUNNERS``) and class attributes for the wrapped methods.  A span
records name, start, end, parent and optional counts; spans stay in memory
until the caller writes them out.  `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable

import numpy as np

CountFn = Callable[[tuple, dict, Any], dict]


def _size(key):
    return lambda args, kwargs, out: {key: int(np.size(out))}


def _len(key):
    return lambda args, kwargs, out: {key: len(out)}


def _certified(args, kwargs, out):
    return {"certified": int(out is not None)}


def _linprog(args, kwargs, out):
    c = args[0] if args else kwargs["c"]
    return {"vars": int(np.size(c)), "iterations": int(getattr(out, "nit", 0))}


def _poisson_steps(args, kwargs, out):
    return {"steps": int(out.xs.size * out.rollouts * (out.truncation + 1))}


def _render_bytes(args, kwargs, out):
    return {"bytes": len(out.encode())}


# Counts attached to spans, by span name.
COUNTERS: dict[str, CountFn] = {
    "rng.word": lambda args, kwargs, out: {"words": 1},
    "rng.word_array": _size("words"),
    "chain.simulate_x_batch": _size("steps"),
    "chain.trajectory": _len("steps"),
    "chain.one_step_kernel": _len("atoms"),
    "chain.n_step_kernel": _len("atoms"),
    "chain.kernel_pushforward": _len("atoms"),
    "transport._cost_matrix": _size("entries"),
    "transport._certified_monotone": _certified,
    "transport.linprog": _linprog,
    "hypothesis.build_epsilon_net": _len("members"),
    "hypothesis.Hypothesis.__call__": _size("points"),
    "hypothesis.HypothesisNet.member_matrix": _size("points"),
    "bounds.poisson_estimate": _poisson_steps,
    "harness.render_report": _render_bytes,
}

# Private or foreign callables wrapped besides the public functions:
# (module, attribute).
EXTRA_FUNCTIONS = (
    ("harness", "_batch_empirical"),
    ("transport", "_cost_matrix"),
    ("transport", "_certified_monotone"),
    ("transport", "_assignment"),
    ("transport", "_transportation_lp"),
    ("transport", "linprog"),
    ("transport", "linear_sum_assignment"),
)

# Methods wrapped on their class: (module, class, attribute).
METHODS = (
    ("state_space", "DiscreteMeasure", "on_graph"),
    ("state_space", "DiscreteMeasure", "merged"),
    ("hypothesis", "Hypothesis", "__call__"),
    ("hypothesis", "HypothesisNet", "member_matrix"),
)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Callable[[Any], None], Any]] = []

    def reset(self) -> list[list]:
        """Start a new span list and return the previous one."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("chainlearn.") and mod is not None
        }
        wrappers: dict[int, Callable] = {}
        for short, mod in modules.items():
            for attr, val in vars(mod).items():
                if (
                    inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(val)] = self._wrap(f"{short}.{attr}", val)
        for short, attr in EXTRA_FUNCTIONS:
            val = getattr(modules.get(short), attr, None)
            if callable(val) and id(val) not in wrappers:
                wrappers[id(val)] = self._wrap(f"{short}.{attr}", val)

        namespaces = [vars(m) for m in modules.values()]
        namespaces.append(vars(sys.modules["chainlearn"]))
        for ns in namespaces:
            for key, val in list(ns.items()):
                if id(val) in wrappers:
                    self._rebind(ns, key, wrappers[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers:
                            self._rebind(val, k, wrappers[id(v)])

        for short, cls_name, attr in METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(cls, attr, new)
            self._restore.append(
                (lambda old, cls=cls, attr=attr: setattr(cls, attr, old), raw)
            )

    def _rebind(self, ns: dict, key: Any, new: Callable) -> None:
        old = ns[key]
        ns[key] = new
        self._restore.append((lambda value, ns=ns, key=key: ns.__setitem__(key, value), old))

    def uninstall(self) -> None:
        for put_back, old in reversed(self._restore):
            put_back(old)
        self._restore.clear()


# --- per-layer metrics ---------------------------------------------------------

class _Pass:
    """Index over the spans of one traced pass."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.by_name: dict[str, list[int]] = {}
        self.children: list[list[int]] = [[] for _ in spans]
        for i, rec in enumerate(spans):
            self.by_name.setdefault(rec[0], []).append(i)
            if rec[3] >= 0:
                self.children[rec[3]].append(i)

    def names(self, prefix: str) -> set[str]:
        return {n for n in self.by_name if n.partition(".")[0] == prefix}

    def _each(self, names):
        for name in names:
            for i in self.by_name.get(name, ()):
                yield i, self.spans[i]

    def _outermost(self, rec, names) -> bool:
        p = rec[3]
        while p >= 0 and self.spans[p][0] not in names:
            p = self.spans[p][3]
        return p < 0

    def busy(self, names) -> float:
        """Time covered by spans in `names`, counting nested ones once."""
        return sum(
            rec[2] - rec[1] for _, rec in self._each(names) if self._outermost(rec, names)
        )

    def self_time(self, names) -> float:
        """Time in spans of the layer `names` minus the time covered by
        child spans outside the layer."""
        return sum(
            rec[2] - rec[1] - self._foreign(i, names)
            for i, rec in self._each(names)
            if self._outermost(rec, names)
        )

    def _foreign(self, i: int, names) -> float:
        total = 0.0
        for c in self.children[i]:
            rec = self.spans[c]
            total += self._foreign(c, names) if rec[0] in names else rec[2] - rec[1]
        return total

    def count(self, names, key) -> int:
        return sum(rec[4].get(key, 0) for _, rec in self._each(names) if rec[4])

    def calls(self, names) -> int:
        return sum(len(self.by_name.get(name, ())) for name in names)

    def durations(self, names) -> np.ndarray:
        return np.array([rec[2] - rec[1] for _, rec in self._each(names)])

    def routes(self) -> dict[str, int]:
        """Route taken by each `wasserstein1_exact` call, from its descendants."""
        rank = {"certified": 0, "assignment": 1, "lp": 2}
        marks = {
            "transport._transportation_lp": "lp",
            "transport.linprog": "lp",
            "transport._assignment": "assignment",
            "transport.linear_sum_assignment": "assignment",
            "transport._certified_monotone": "certified",
        }
        route_of: dict[int, str] = {}
        for _, rec in self._each(marks):
            route = marks[rec[0]]
            if route == "certified" and not (rec[4] and rec[4]["certified"]):
                continue
            p = rec[3]
            while p >= 0 and self.spans[p][0] != "transport.wasserstein1_exact":
                p = self.spans[p][3]
            if p >= 0 and rank[route] >= rank[route_of.get(p, "certified")]:
                route_of[p] = route
        out = dict.fromkeys(rank, 0)
        for route in route_of.values():
            out[route] += 1
        return out


def layer_metrics(spans: list[list], runners: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `runners` maps each experiment kind to the name of its runner function
    in ``harness``.
    """
    t = _Pass(spans)
    rng = t.names("rng")
    w1 = {"transport.wasserstein1_exact"}
    kernel = {"chain.one_step_kernel", "chain.n_step_kernel", "chain.kernel_pushforward"}
    measure = {"state_space.DiscreteMeasure.on_graph", "state_space.DiscreteMeasure.merged"}
    lp = {"transport._transportation_lp", "transport.linprog"}
    assignment = {"transport._assignment", "transport.linear_sum_assignment"}
    evals = {"hypothesis.Hypothesis.__call__", "hypothesis.HypothesisNet.member_matrix"}
    sim = {"chain.simulate_x_batch", "chain.trajectory"}
    poisson = {"bounds.poisson_estimate"}
    net = {"hypothesis.build_epsilon_net"}
    linprog = {"transport.linprog"}
    render = {"harness.render_report"}
    # argument parsing, config load and file write, without the experiment
    # and the rendering it triggers
    cli = t.names("cli") | {"harness.load_config", "harness.write_report"}

    w1_durations = t.durations(w1)
    routes = t.routes()
    m = {
        "rng.words": t.count(rng, "words"),
        "rng.busy_s": t.busy(rng),
        "chain.simulate.steps": t.count(sim, "steps"),
        "chain.simulate.self_s": t.self_time(sim),
        "chain.kernel.calls": t.calls(kernel),
        "chain.kernel.atoms": t.count(kernel, "atoms"),
        "chain.lemma.self_s": t.self_time({"chain.lemma_atom_check"}),
        "state_space.diameter.busy_s": t.busy({"state_space.curve_diameter"}),
        "state_space.measure.calls": t.calls(measure),
        "state_space.measure.busy_s": t.busy(measure),
        "transport.w1.calls": len(w1_durations),
        "transport.w1.busy_s": t.busy(w1),
        "transport.w1.p50_s": float(np.percentile(w1_durations, 50)) if w1_durations.size else 0.0,
        "transport.w1.p99_s": float(np.percentile(w1_durations, 99)) if w1_durations.size else 0.0,
        "transport.w1.cost_entries": t.count({"transport._cost_matrix"}, "entries"),
        "transport.route.certified": routes["certified"],
        "transport.route.assignment": routes["assignment"],
        "transport.route.lp": routes["lp"],
        "transport.lp.vars": t.count(linprog, "vars"),
        "transport.lp.iterations": t.count(linprog, "iterations"),
        "transport.lp.busy_s": t.busy(lp),
        "transport.assignment.busy_s": t.busy(assignment),
        "transport.audit.self_s": t.self_time({"transport.contraction_audit"}),
        "hypothesis.net.members": t.count(net, "members"),
        "hypothesis.net.busy_s": t.busy(net),
        "hypothesis.eval.points": t.count(evals, "points"),
        "hypothesis.eval.busy_s": t.busy(evals),
        "learner.true_errors.busy_s": t.busy({"learner.true_errors", "learner.true_error"}),
        "learner.opt_pi.busy_s": t.busy({"learner.opt_pi"}),
        "bounds.poisson.steps": t.count(poisson, "steps"),
        "bounds.poisson.self_s": t.self_time(poisson),
        "bounds.calc.busy_s": t.busy(t.names("bounds") - poisson),
        "harness.mc.self_s": t.self_time({"harness._batch_empirical"}),
        "harness.render.busy_s": t.busy(render),
        "harness.render.bytes": t.count(render, "bytes"),
        "cli.main.self_s": t.self_time(cli),
        "trace.spans": len(spans),
    }
    for kind, fn_name in runners.items():
        m[f"harness.experiment.{kind}.busy_s"] = t.busy({f"harness.{fn_name}"})
    return m


def write_spans(path: str, passes: list[list[list]]) -> None:
    """Spans of every traced pass as JSON lines."""
    with open(path, "w") as fh:
        for p, spans in enumerate(passes):
            for i, (name, start, end, parent, counts) in enumerate(spans):
                extra = "" if counts is None else ', "counts": ' + _json_counts(counts)
                fh.write(
                    f'{{"pass": {p}, "id": {i}, "name": "{name}", "start": {start!r}, '
                    f'"end": {end!r}, "parent": {parent}{extra}}}\n'
                )


def _json_counts(counts: dict) -> str:
    return "{" + ", ".join(f'"{k}": {v}' for k, v in counts.items()) + "}"
