"""chainlearn benchmark: run one workload, check its outputs, print metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in `workloads.py`.  Everything runs in this process,
single-threaded on the Python side, except the set-up probes: fresh
processes started one after another before the first pass.

With ``--trace 0`` the run measures end to end.  It repeats passes over the
workload's operations for about S seconds (at least three passes) and
reports per pass the median wall time (``wall_s``), the median user+system
CPU time (``cpu_s``), the median set-up time of fresh processes
(``setup_s``), the peak resident memory of this process (``peak_rss_mb``)
and the share of operations that succeeded (``success_ratio``; the printed
``failed_ratio`` is one minus it).

With ``--trace 1`` passes alternate untraced and traced, starting untraced.
Traced passes record spans through `tracing.Tracer`; the run reports the
median per-layer metrics of the traced passes, the tracing overhead
(median traced minus median untraced pass wall time) and whether the
predicted dominant layers held.  Spans are written to ``bench/_work``.

An operation fails when an exception escapes, its exit code or violation
count differs from the expected one, its report bytes change between passes
(traced and untraced alike), or, at the default seed, its report departs
from the reference in ``bench/reference`` beyond the tolerance stated in
`reports.py`.  ``correct`` is false when any operation that completed
produced a wrong output; an operation that raised has no output and is
counted in ``failed`` only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference"

sys.path.insert(0, str(BENCH))

import reports  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 2


def _import_chainlearn():
    """Import chainlearn from this checkout's ``src`` and nowhere else."""
    if not (SRC / "chainlearn" / "__init__.py").is_file():
        raise SystemExit(f"error: no chainlearn sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chainlearn
    from chainlearn import cli, harness

    if Path(chainlearn.__file__).resolve().parent != SRC / "chainlearn":
        raise SystemExit(f"error: imported chainlearn from {chainlearn.__file__}")
    return cli, harness


def _setup_seconds(config_paths: list[Path]) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *map(str, config_paths)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "default_seed": wl.DEFAULT_SEED,
        "held_out_seed": wl.HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class OpState:
    """Outcome of one operation across the passes of a run."""

    def __init__(self, op: wl.Op) -> None:
        self.op = op
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.errors: list[str] = []
        self.text: str | None = None

    def fail(self, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong |= wrong
        if message not in self.errors:
            self.errors.append(message)


class Runner:
    def __init__(self, workload: wl.Workload, config_paths: list[Path], out_dir: Path):
        self.cli, self.harness = _import_chainlearn()
        self.ops = [OpState(op) for op in workload.ops]
        self.paths = config_paths
        self.outs = [out_dir / f"{i}-{op.label}" for i, op in enumerate(workload.ops)]
        # the API operations use configs loaded and validated once, before
        # the first pass
        self.configs = [
            None if op.via_cli else self.harness.load_config(str(p))
            for op, p in zip(workload.ops, config_paths)
        ]

    def _execute(self, i: int) -> tuple[int, str | None]:
        op = self.ops[i].op
        if op.via_cli:
            out = self.outs[i]
            out.unlink(missing_ok=True)
            code = self.cli.main(
                [op.subcommand, "--config", str(self.paths[i]), "--out", str(out),
                 "--format", op.fmt]
            )
            return code, out.read_text() if out.exists() else None
        report = self.harness.run_experiment(self.configs[i])
        text = self.harness.render_report(report, op.fmt)
        return (2 if int(report.metadata.get("violations", 0)) > 0 else 0), text

    def run_pass(self) -> list:
        """Run every operation once; an outcome is (exit code, text) or the
        exception that escaped."""
        outcomes = []
        for i in range(len(self.ops)):
            try:
                outcomes.append(self._execute(i))
            except Exception as exc:  # a failed operation; the pass goes on
                outcomes.append(exc)
        return outcomes

    def check_pass(self, outcomes: list) -> None:
        for state, outcome in zip(self.ops, outcomes):
            op = state.op
            state.attempted += 1
            if isinstance(outcome, Exception):
                state.fail(f"{type(outcome).__name__}: {outcome}", wrong=False)
                continue
            code, text = outcome
            if code != op.expect_exit:
                state.fail(f"exit code {code}, expected {op.expect_exit}", wrong=True)
            elif text is None:
                state.fail("no report written", wrong=True)
            elif (v := reports.violations(reports.parse(text, op.fmt))) != op.expect_violations:
                state.fail(f"{v} violations, expected {op.expect_violations}", wrong=True)
            elif state.text is None:
                state.text = text
            elif text != state.text:
                state.fail("report bytes changed between passes", wrong=True)

    def check_reference(self, workload: str) -> None:
        for state in self.ops:
            if state.text is None:
                continue
            path = REFERENCE / workload / state.op.label
            if path.with_name(path.name + ".missing").is_file():
                continue  # failed when the references were made; nothing to compare
            if path.is_file():
                diffs = reports.compare(state.text, path.read_text(), state.op.fmt)
                problem = diffs and f"differs from reference in {len(diffs)} places, first: {diffs[0]}"
            else:
                problem = f"reference {path.relative_to(ROOT)} is missing"
            if problem:
                # the report bytes were the same on every pass, so every
                # attempt produced the wrong report
                state.failed = state.attempted
                state.wrong = True
                state.errors.append(problem)


def write_configs(workload: wl.Workload, seed: int, small: bool, work: Path) -> list[Path]:
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (op, cfg) in enumerate(zip(workload.ops, wl.configs(workload, seed, small))):
        path = cfg_dir / f"{i}-{op.subcommand}.json"
        path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
        paths.append(path)
    return paths


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Run one workload and return the result with its details."""
    workload = wl.WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}{'-small' if small else ''}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    config_paths = write_configs(workload, seed, small, work)
    runner = Runner(workload, config_paths, out_dir)
    setup = [] if trace else [_setup_seconds(config_paths) for _ in range(setup_samples)]

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        runners = {kind: fn.__name__ for kind, fn in runner.harness.RUNNERS.items()}
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    layer_samples: list[dict] = []
    span_passes: list[list] = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            outcomes = runner.run_pass()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        runner.check_pass(outcomes)
        walls[traced].append(wall)
        if traced:
            spans = tracer.reset()
            span_passes.append(spans)
            layer_samples.append({**tracing.layer_metrics(spans, runners), "trace.pass_s": wall})
        else:
            cpus.append(cpu)
        done = len(walls[False]) + len(walls[True])
        least = MIN_TRACE_PASSES if trace else MIN_PASSES
        if done >= least and time.perf_counter() - begin + wall > seconds:
            break

    if seed == wl.DEFAULT_SEED and not small:
        runner.check_reference(name)

    attempted = sum(s.attempted for s in runner.ops)
    failed = sum(s.failed for s in runner.ops)
    result = {
        "correct": not any(s.wrong for s in runner.ops),
        "attempted": attempted,
        "failed": failed,
        "ops": [
            {"op": s.op.label, "attempted": s.attempted, "failed": s.failed,
             "errors": s.errors}
            for s in runner.ops
        ],
        "texts": {s.op.label: s.text for s in runner.ops},
        "meta": run_metadata(name, seed, int(seconds), int(trace)),
    }
    if trace:
        layers = {
            key: statistics.median(sample[key] for sample in layer_samples)
            for key in layer_samples[0]
        }
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
            walls[False]
        )
        result["layers"] = layers
        result["samples"] = {"traced": len(walls[True]), "untraced": len(walls[False])}
        result["prediction_problems"] = wl.check_predictions(name, layers)
        spans_path = work / "spans.jsonl"
        tracing.write_spans(str(spans_path), span_passes)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        result["samples"] = {"passes": len(walls[False]), "setup": len(setup)}
        result["pass_walls"] = walls[False]
        result["pass_cpus"] = cpus
        result["setup_samples"] = setup
        result["end_to_end"] = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (attempted - failed) / attempted,
        }
    return result


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report_lines(result: dict, units: dict[str, str]) -> list[str]:
    meta = result["meta"]
    lines = [
        f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
        f"samples {result['samples']}"
    ]
    for op in result["ops"]:
        lines.append(f"  op {op['op']}: {op['attempted']} attempted, {op['failed']} failed")
        lines.extend(f"    {e}" for e in op["errors"])
    if "end_to_end" in result:
        e2e = result["end_to_end"]
        n = result["samples"]
        notes = {
            "wall_s": f"median of {n['passes']} passes",
            "cpu_s": f"median of {n['passes']} passes",
            "setup_s": f"median of {n['setup']} fresh processes",
            "peak_rss_mb": "this process",
            "success_ratio": f"{result['attempted'] - result['failed']} of {result['attempted']} operations",
        }
        for key, value in e2e.items():
            lines.append(f"  {key:<14} {value:.6g} {units[key]}  ({notes[key]})")
        lines.append(
            f"  {'failed_ratio':<14} {result['failed'] / result['attempted']:.6g} ratio"
            f"  ({result['failed']} of {result['attempted']} operations)"
        )
    else:
        layers = result["layers"]
        wall = layers["trace.pass_s"]
        for key in sorted(layers):
            share = (
                f"  {layers[key] / wall:6.1%} of pass"
                if key.endswith(("busy_s", "self_s", "overhead_s")) else ""
            )
            lines.append(f"  {key:<42} {layers[key]:.6g} {units[key]}{share}")
        problems = result["prediction_problems"]
        if problems:
            lines.extend(f"  PREDICTION NOT MET: {p}" for p in problems)
        else:
            lines.append("  predictions hold")
        lines.append(f"  spans written to {result['spans_file']}")
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    return lines


def result_line(result: dict, units: dict[str, str]) -> str:
    source = result["end_to_end"] if "end_to_end" in result else result["layers"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in source.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    unit_of = units()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    details = {k: v for k, v in result.items() if k != "texts"}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n"
    )
    print("\n".join(report_lines(result, unit_of)))
    print(result_line(result, unit_of))
    return 0


if __name__ == "__main__":
    sys.exit(main())
