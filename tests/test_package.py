import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import chainlearn


def test_public_surface_resolves():
    chain = importlib.import_module("chainlearn.chain")
    missing = [name for name in chain.__all__ if not hasattr(chain, name)]
    assert missing == []

    tree = ast.parse(Path(chainlearn.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"chainlearn.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                assert hasattr(chainlearn, alias.asname or alias.name)

    # no re-exported name may shadow a submodule of the same name
    import chainlearn.loss as loss_module

    assert loss_module is importlib.import_module("chainlearn.loss")


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported on the first LP solve and the thread pool on the first
    # parallel Poisson fold, not with the package; and numpy is the one
    # third-party package the import loads (beside what the interpreter's
    # start-up loads), since every process that runs a report pays for it
    src = os.path.dirname(os.path.dirname(chainlearn.__file__))
    code = (
        "import sys; before = set(sys.modules); import chainlearn.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent')))); "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - sys.stdlib_module_names))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['chainlearn', 'numpy']"]


def test_chain_module_loads_no_transport():
    # transport imports chain's closed-form one-step W1, so chain must not
    # import transport back; the package __init__ imports every module, so
    # the package is stubbed to load chain alone
    code = (
        "import importlib, sys, types; "
        "pkg = types.ModuleType('chainlearn'); "
        f"pkg.__path__ = [{os.path.dirname(chainlearn.__file__)!r}]; "
        "sys.modules['chainlearn'] = pkg; "
        "importlib.import_module('chainlearn.chain'); "
        "print(sorted(m for m in sys.modules if m.startswith('chainlearn.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['chainlearn.chain', 'chainlearn.rng', 'chainlearn.state_space']"


def test_blas_products_stay_in_the_oracle():
    # a threaded BLAS product wakes helper threads that spin through the
    # rest of a pass, and makes a result depend on the BLAS build and on the
    # shape of the call; only the Kantorovich-Rubinstein oracle may use one
    package = Path(chainlearn.__file__).parent
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}"
        blas = (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dot", "matmul")
        )
        if blas:
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == {"transport.kr_dual_lower"}


def call_sites(names) -> set[tuple[str, str]]:
    """(scope, callee) of every call in the package whose callee's last
    dotted name is in `names`; the scope is module.function."""
    package = Path(chainlearn.__file__).parent
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if callee.split(".")[-1] in names:
                found.add((scope, callee))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_one_lp_solve_in_the_package():
    # route 2 is the one LP path: only `transport._transportation_lp` calls
    # the lazy `transport.linprog` wrapper, and only the wrapper reaches
    # scipy's `linprog`, so no second LP route can appear beside the one
    # seeded by the staircase duals
    assert call_sites({"linprog"}) == {
        ("transport._transportation_lp", "linprog"),
        ("transport.linprog", "optimize.linprog"),
    }


def test_one_staircase_and_one_dual_sweep_per_solve():
    # `_optimal_plan` is the one per-pair solve: only it sweeps the
    # staircase duals, so one sweep serves both the block check and route
    # 2's first pricing, and only it and the oracle
    # `wasserstein1_monotone_upper` build a staircase
    assert call_sites({"_staircase", "_stair_duals"}) == {
        ("transport._optimal_plan", "_staircase"),
        ("transport._optimal_plan", "_stair_duals"),
        ("transport.wasserstein1_monotone_upper", "_staircase"),
    }


def test_one_bit_stream_and_one_recursion_in_the_package():
    # the splitmix multipliers live only in `rng`; the bit-level draws are
    # made by the one float simulator (`chain.simulate_x_blocks`, one call
    # site each) and the exact dyadic oracle, so `bounds` and `harness`
    # reach branch bits only through the simulator; and the step's halving,
    # x_k = (x_{k-1} + b)/2 computed in place, appears only in the
    # simulator, so no fused copy of it can sit beside a fold
    package = Path(chainlearn.__file__).parent
    mixer = {
        chainlearn.rng._LANE_MUL,
        chainlearn.rng._INDEX_MUL,
        chainlearn.rng._PURPOSE_MUL,
        0xBF58476D1CE4E5B9,
        0x94D049BB133111EB,
    }
    bit_level = {"bit", "word", "bit_keys", "keyed_bits", "lane_keys", "keyed_words"}
    constants, draws, halvings = set(), [], set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value in mixer:
            constants.add(scope.partition(".")[0])
        if isinstance(node, ast.Call) and scope.partition(".")[0] != "rng":
            callee = ast.unparse(node.func)
            if callee.split(".")[-1] in bit_level:
                draws.append((scope, callee))
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.value, ast.Constant)
            and (
                (isinstance(node.op, ast.Mult) and node.value.value == 0.5)
                or (isinstance(node.op, ast.Div) and node.value.value == 2)
            )
        ):
            halvings.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert constants == {"rng"}
    assert sorted(draws) == [
        ("chain.simulate_x_blocks", "rng.bit_keys"),
        ("chain.simulate_x_blocks", "rng.keyed_bits"),
        ("chain.trajectory_exact", "rng.bit"),
    ]
    assert halvings == {"chain.simulate_x_blocks"}


# What no subcommand reaches, each an oracle or an assumption check that the
# tests use; anything else `cli.main` does not reach is dead code.
ORACLES = {
    "transport.kr_dual_lower": "Kantorovich-Rubinstein lower bound, W1 from below",
    "transport.wasserstein1_monotone_upper": "monotone coupling, W1 from above",
    "transport.wasserstein1_exact": "one pair's W1 and its plan; runs take costs in batches",
    "chain.trajectory_exact": "exact dyadic trajectory, the non-irreducibility witness",
    "loss.verify_a2": "checks the joint-Lipschitz constants L and L_bar",
    "loss._corner_hypotheses": "the extreme members verify_a2 probes",
    "loss.loss_composite": "the pointwise loss verify_a2 compares",
    "hypothesis.class_metric": "the sup distance between members in verify_a2",
    "state_space.rho": "the distance between two states in verify_a2",
    "hypothesis.random_member": "random members for verify_a2 and the covering probe",
    "learner.empirical_error": "pointwise empirical error, the hat-moment scorer's oracle",
    "hypothesis.net_covering_probe": "checks a net's covering radius",
    "state_space.verify_target_lipschitz": "checks the target's Lipschitz constant",
    "state_space.DiscreteMeasure.points": "atoms as points, for brute-force transport costs",
}


def unreached_from_the_cli() -> set[str]:
    """The top-level functions and classes and the methods of the package
    that a name-based walk from `cli.main` and the module-level statements
    does not reach.  A definition is reached when reached code names it, as
    a name or an attribute, whatever the object; a dunder method, also when
    its class is reached.  Reached code is a reached function or method
    whole, a class's statements other than its methods, and the module-level
    statements other than imports and definitions."""
    package = Path(chainlearn.__file__).parent
    defs = {}  # qualified name -> (name, node, qualified name of its class or None)
    roots = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qualified = f"{path.stem}.{node.name}"
                defs[qualified] = (node.name, node, None)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{qualified}.{item.name}"] = (item.name, item, qualified)
            elif not isinstance(node, (ast.FunctionDef, ast.Import, ast.ImportFrom)):
                roots.append(node)
    roots.append(defs["cli.main"][1])

    def code(node):
        if isinstance(node, ast.ClassDef):
            yield from node.bases + node.keywords + node.decorator_list
            yield from (s for s in node.body if not isinstance(s, ast.FunctionDef))
        else:
            yield node

    names, reached, todo = set(), {"cli.main"}, roots
    while True:
        for n in (n for part in todo for n in ast.walk(part)):
            if isinstance(n, (ast.Name, ast.Attribute)):
                names.add(n.id if isinstance(n, ast.Name) else n.attr)
        new = [
            q for q, (name, _, owner) in defs.items()
            if q not in reached
            and (name in names or (name[:2] == name[-2:] == "__" and owner in reached))
        ]
        if not new:
            return set(defs) - reached
        reached.update(new)
        todo = [c for q in new for c in code(defs[q][1])]


def test_src_holds_only_what_a_run_or_a_named_oracle_reaches():
    assert unreached_from_the_cli() == set(ORACLES)
