"""Self-check of the benchmark, at reduced workload sizes.

Usage (from the repository root): python3 bench/selfcheck.py

For every workload it makes one untraced and one traced run with the
reduced configs (`Op.small`) and checks that

1. every metric named in BENCHMARK.json is emitted with its unit: the
   end-to-end metrics untraced, the per-layer metrics traced;
2. traced and untraced runs produce identical report bytes, and every run
   passes its own output checks;
3. the traced layer shares match the predictions in `workloads.py`.

It also checks that the reference comparison passes a last-bit float change
and fails a changed verdict, a changed count, a dropped row and a renamed
column.  Exits 1 if a check of the benchmark itself (1, 2 or the
comparison) fails.  A prediction that does not hold is a finding about the
program, not a defect of the benchmark: it is printed and leaves the exit
status alone, and the workloads are not re-sized to make it hold.  Shares
at reduced size can differ from full size; ``run.py --trace 1`` checks the
same predictions at full size.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import reports
import run
import workloads as wl


def _emitted(result: dict, spec: list[dict]) -> list[str]:
    line = json.loads(run.result_line(result, run.units()))
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(f"metrics missing {missing}, unexpected {extra}, wrong unit {units}")
    return problems


def check_workload(name: str, spec: dict) -> tuple[list[str], list[str]]:
    """(failures, prediction mismatches) of one workload at reduced size."""
    plain = run.measure(name, wl.DEFAULT_SEED, 1, trace=False, small=True, setup_samples=1)
    traced = run.measure(name, wl.DEFAULT_SEED, 1, trace=True, small=True)
    failures = _emitted(plain, spec["end_to_end"]) + _emitted(traced, spec["per_layer"])
    for label, result in (("untraced", plain), ("traced", traced)):
        if not result["correct"]:
            failures.append(f"{label} run produced a wrong output: {result['ops']}")
    for label, text in plain["texts"].items():
        if text != traced["texts"][label]:
            failures.append(f"{label}: traced and untraced report bytes differ")
    return failures, traced["prediction_problems"]


def _as_cell(old, new):
    """`new` in the representation of `old`; CSV cells are strings."""
    if not isinstance(old, str):
        return new
    if isinstance(new, bool):
        return "true" if new else "false"
    return repr(new)


def _mutations(columns: list[str], float_col: str, bool_col: str, count_col: str):
    """(description, mutate, should_match) cases on a parsed report."""

    def change(col: str, fn):
        def mutate(rep):
            row = rep["rows"][0]
            i = columns.index(col)
            row[i] = _as_cell(row[i], fn(row[i]))

        return mutate

    return [
        ("last-bit change", change(float_col, lambda v: math.nextafter(float(v), math.inf)), True),
        ("flipped verdict", change(bool_col, lambda v: v == "false" if isinstance(v, str) else not v), False),
        ("count + 1", change(count_col, lambda v: int(v) + 1), False),
        ("row dropped", lambda rep: rep["rows"].pop(), False),
        ("column renamed", lambda rep: rep["columns"].__setitem__(0, "renamed"), False),
    ]


def check_tolerance() -> list[str]:
    failures = []
    cases = (
        ("suite/concentration.csv", "csv", "theoretical_bound", "bound_valid", "exceedances"),
        ("suite/asem.json", "json", "empirical", "success", "pick_index"),
    )
    for rel, fmt, float_col, bool_col, count_col in cases:
        base = reports.parse((run.REFERENCE / rel).read_text(), fmt)
        for what, mutate, should_match in _mutations(base["columns"], float_col, bool_col, count_col):
            changed = copy.deepcopy(base)
            mutate(changed)
            matched = not reports.differences(changed, base)
            if matched != should_match:
                failures.append(
                    f"{rel}: {what} {'failed' if should_match else 'passed'} the comparison"
                )
    return failures


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = [f"tolerance: {p}" for p in check_tolerance()]
    mismatches = []
    for name in wl.WORKLOADS:
        fails, preds = check_workload(name, spec)
        failures += [f"{name}: {p}" for p in fails]
        mismatches += [f"{name}: {p}" for p in preds]
        print(f"{name}: {len(fails)} failures, {len(preds)} prediction mismatches", flush=True)
    for line in failures:
        print("FAIL", line)
    for line in mismatches:
        print("PREDICTION NOT MET", line)
    print(
        f"self-check {'failed' if failures else 'passed'}; "
        f"{len(mismatches)} predictions not met"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
