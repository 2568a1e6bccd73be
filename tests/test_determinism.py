"""Reports are the same bytes on every run: the reduced-size benchmark configs
(`bench/workloads.py`), rendered through `cli.main` at the benchmark's two
seeds, hash to the values pinned here.  The three `parallel.for_each`
callers (the W1 batch of the tent audit, the multi-knot Monte Carlo fold of
`mc-lipschitz` and the Poisson rollouts of `poisson-check`) give the same
hashes in a process pinned to one CPU, and every op gives them in a process
on another OpenBLAS kernel (`OPENBLAS_CORETYPE=Prescott`) and in one whose
numpy loops dispatch to no AVX2 or AVX-512 code
(`NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3"`).

A change that alters reports on purpose updates `PINNED` and says so.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainlearn.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 20211008)


def _workloads():
    """`bench/workloads.py`, loaded by path: `bench` is not a package."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def render(work: str, only: tuple[str, ...] | None = None) -> dict[str, list]:
    """(exit code, sha256 of the report) of every reduced-size op at each
    seed, keyed workload/op label/seed, or of the ops named workload/op
    label in `only`."""
    wl = _workloads()
    out = {}
    for name, workload in sorted(wl.WORKLOADS.items()):
        for seed in SEEDS:
            for op, config in zip(workload.ops, wl.configs(workload, seed, small=True)):
                if only is not None and f"{name}/{op.label}" not in only:
                    continue
                config_path = os.path.join(work, "config.json")
                report_path = os.path.join(work, f"{name}.{op.label}.{seed}")
                with open(config_path, "w") as fh:
                    json.dump(config, fh)
                code = main([op.subcommand, "--config", config_path, "--out", report_path,
                             "--format", op.fmt])
                with open(report_path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                out[f"{name}/{op.label}/{seed}"] = [code, digest]
    return out


# (exit code, sha256) of each reduced-size report; the lemma check exits 2
PINNED = {
    "audit-identity/audit-contraction.csv/1": [
        0, "f045ff30ebf3fde8a21a7b714eae3242a1a416d688b735d789d75c43c77921cd"],
    "audit-identity/audit-contraction.csv/20211008": [
        0, "4447d8a910618217e9d6eee4114f58b488c35058c00bd8320cf886b6b26273bc"],
    "audit-tent/audit-contraction.csv/1": [
        0, "b5d690610336da61f593fb792f9e0bb5da6c3ca86f494a3e19b10051d2dfc2c1"],
    "audit-tent/audit-contraction.csv/20211008": [
        0, "44c32f619b036ae48dca0bcfdceffeebc9b7825524e75c140e05233103a06448"],
    "mc-lipschitz/concentration.csv/1": [
        0, "c140263fe58931f1edbf5dd1b2b8b62ef34e62b66e366278c9fe0bb3aa3913b5"],
    "mc-lipschitz/concentration.csv/20211008": [
        0, "ce833633214cc3157b44a29ecaa57764f293b09cd48d697e6da80ec405a08628"],
    "suite/asem.json/1": [
        0, "274d0d8f274d37279cb45c6dc149086d2670929fbe25bbab3f3ab0f5e52bc262"],
    "suite/asem.json/20211008": [
        0, "41e0e5ff8d9dfb38e6b3d279227c7dcbd19391913ab2c341ebbe1c4c47e01730"],
    "suite/audit-contraction.csv/1": [
        0, "4eb08ed51366290ff5b5a787da73ca91d66dc8c8826d6b9ea35931346e963374"],
    "suite/audit-contraction.csv/20211008": [
        0, "de3f9f16fcc08e01e9a8bd9f9cbcc0202cf89adbc39b3a292cfe839b8d1ad06f"],
    "suite/bounds.json/1": [
        0, "271e9f6699694ed1c04cbb14a36cbc50c1141f1a2d6fda6be9ddff806ec1356a"],
    "suite/bounds.json/20211008": [
        0, "a89dfca444c988554deeef1a324ab64c38a59be5b8f46d3817953ff0799d6440"],
    "suite/concentration.csv/1": [
        0, "d896553154ad7d6ecd91f690f0a00f26c604546586e0eccc635ea3943bedff8f"],
    "suite/concentration.csv/20211008": [
        0, "781516849f4402b574d4b67b52f42746411aacfd793e82d02857e219a151afcb"],
    "suite/lemma-check.json/1": [
        2, "033ec7fe7fa071a4ca632ab6519911e2e4702fd270c5f2672911ff42f722de8e"],
    "suite/lemma-check.json/20211008": [
        2, "08df40b637f437c3b6b491cff22ec65afec15878588acf16ae7c74cb1984345b"],
    "suite/poisson-check.json/1": [
        0, "91b682a5b4f591610ffcfb5571d373379d7e7a5aa838d868f5c3d0b595e5a531"],
    "suite/poisson-check.json/20211008": [
        0, "390a8c32644dc58abb26b1ecd7b4a498945f3eedee4f87ade411787a091d3894"],
    "suite/relative.csv/1": [
        0, "12599af5ef26f931bd8636fefcdc3c6126339b834637b76f959650fc81985fc2"],
    "suite/relative.csv/20211008": [
        0, "780bb623620380e4073a8288be951534ff4ff4281fdd67b3c776b90533a0038d"],
    "suite/scaling.csv/1": [
        0, "715c26ceea9deff0f2c5100223d15ec07b3509427dde7c4b77208d70930c3928"],
    "suite/scaling.csv/20211008": [
        0, "e3e5db3bb0d051e58769458bbd29c178d57d95f40527982b101846531844afe7"],
}

# the ops whose work runs on `parallel.for_each`: the tent audit's W1 pairs
# past the line bound, and the two Monte Carlo folds
THREADED = (
    "audit-tent/audit-contraction.csv",
    "mc-lipschitz/concentration.csv",
    "suite/poisson-check.json",
)


def test_reduced_bench_reports_hash_to_pinned_values(tmp_path, capsys):
    got = render(str(tmp_path))
    capsys.readouterr()  # the lemma check's exit-2 notices
    assert got == PINNED


# the child pins itself to one CPU when argv[4] says so, before chainlearn
# runs anything, then renders the ops named in argv[2] (every op when it is
# empty) with this module's `render`
_CHILD = """
import importlib.util, json, os, sys
if sys.argv[4] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
spec = importlib.util.spec_from_file_location("determinism", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
from chainlearn import parallel
hashes = module.render(sys.argv[3], tuple(sys.argv[2].split(",")) if sys.argv[2] else None)
print(json.dumps({"cpus": parallel.usable_cpus(), "settings": module.settings(),
                  "hashes": hashes}))
"""


def _child(tmp_path, env_update: dict, only: tuple[str, ...] = (), one_cpu: bool = False):
    import chainlearn

    env = {**os.environ, **env_update}
    src = str(Path(chainlearn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, __file__, ",".join(only), str(tmp_path),
         "one-cpu" if one_cpu else "all-cpus"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _openblas_core():
    """The name of the kernel numpy's bundled OpenBLAS runs, or None where
    numpy bundles no scipy-openblas library."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if not libs:
        return None
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_  # numpy's loaded copy
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _dispatch_targets():
    """The sorted CPU targets numpy's loops dispatch to, or None where numpy
    has no `opt_func_info` to say so."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    return sorted({sig["current"] for sigs in opt_func_info().values() for sig in sigs.values()})


def settings() -> dict:
    return {"openblas_core": _openblas_core(), "dispatch": _dispatch_targets()}


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity to pin a process"
)
def test_threaded_folds_give_the_pinned_bytes_on_one_cpu(tmp_path):
    child = _child(tmp_path, {}, THREADED, one_cpu=True)
    assert child["cpus"] == 1
    assert len(child["hashes"]) == len(THREADED) * len(SEEDS)
    assert child["hashes"] == {k: PINNED[k] for k in child["hashes"]}


DISABLED = ("X86_V4", "X86_V3")
VARIANTS = {
    "OPENBLAS_CORETYPE": ("Prescott", "openblas_core"),
    "NPY_DISABLE_CPU_FEATURES": (" ".join(DISABLED), "dispatch"),
}


@pytest.fixture(scope="module")
def variant(request, tmp_path_factory) -> dict[str, list]:
    """The hashes of every op in a child with the variable `request.param`
    set.  The child reports what it ran on, since numpy ignores a feature
    name it does not know without a warning, and OpenBLAS a core it cannot
    run; a variant that did not take effect is skipped."""
    variable = request.param
    value, reading = VARIANTS[variable]
    here = settings()[reading]
    if here is None:
        pytest.skip(f"{reading} cannot be read here, so {variable}={value} cannot be checked")
    child = _child(tmp_path_factory.mktemp("variant"), {variable: value})
    there = child["settings"][reading]
    if there == here or (reading == "dispatch" and set(DISABLED) & set(there)):
        pytest.skip(f"{variable}={value} did not take effect: {reading} {here} -> {there}")
    assert child["hashes"].keys() == PINNED.keys()
    return child["hashes"]


@pytest.mark.parametrize(
    "variant", ["NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"], indirect=True,
    ids=["dispatch", "openblas"],
)
def test_reports_give_the_pinned_bytes_on_other_kernels(variant):
    assert variant == PINNED
