import ast
import importlib
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
