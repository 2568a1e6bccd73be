"""Write the reference reports of every workload at the default seed.

Usage (from the repository root): python3 bench/make_reference.py

Each operation's report goes to ``bench/reference/<workload>/<subcommand>.<fmt>``.
An operation that fails gets ``<subcommand>.<fmt>.missing`` with the error
instead, and `run.py` skips the comparison for it.
"""

import shutil

import run
import workloads as wl


def main() -> None:
    for name, workload in wl.WORKLOADS.items():
        work = run.WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        paths = run.write_configs(workload, wl.DEFAULT_SEED, False, work)
        runner = run.Runner(workload, paths, work / "out")
        runner.check_pass(runner.run_pass())
        target = run.REFERENCE / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for state in runner.ops:
            if state.failed:
                (target / (state.op.label + ".missing")).write_text(
                    "\n".join(state.errors) + "\n"
                )
            else:
                (target / state.op.label).write_text(state.text)
            print(name, state.op.label, "failed" if state.failed else "written")


if __name__ == "__main__":
    main()
