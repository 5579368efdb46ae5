"""The package imports only the standard library and itself at runtime,
and writes its orbits from the one rearrangement walk in `combinat`: only
the oracle, which must not share that walk, enumerates permutations."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jackpoly"


def test_package_imports_only_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "jackpoly" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}")


def test_permutations_only_in_the_oracle():
    files = sorted(path for path in SRC.glob("*.py") if path.name != "oracle.py")
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                used = any(alias.name in ("permutations", "*") for alias in node.names)
            else:
                used = isinstance(node, ast.Attribute) and node.attr == "permutations"
            assert not used, f"{path.name}:{node.lineno} uses itertools.permutations"
