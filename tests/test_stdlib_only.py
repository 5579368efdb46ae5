"""The package imports only the standard library and itself at runtime,
and writes its orbits from the one rearrangement walk in `combinat`: only
the oracle, which must not share that walk, enumerates permutations.  No
Z[alpha] product the checks pack is expanded first: a Factored is packed
by its `at`, only `qalpha` expands one, and the kernels are built on ints.
The rows apply the operators at a point and build no field element but
in the controls."""

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


def _name(node):
    """The called or named identifier of a Name or an Attribute, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_no_pack_takes_an_expanded_product():
    files = sorted(SRC.glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) == "pack":
                assert not any(isinstance(arg, ast.Call) and _name(arg.func) == "poly"
                               for arg in node.args), (
                    f"{path.name}:{node.lineno} packs a .poly() expansion; use .at(k)")


def test_only_qalpha_expands_a_Factored_product():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "qalpha.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "poly"), f"{path.name}:{node.lineno} calls .poly()"


def test_verify_reads_node_products_as_Factored():
    """The rows read every closed form as a Factored, packed by at(K); a
    node product in Q(alpha) (scalars.const_*) only clears a cached family
    (_integral) or perturbs a control's input (_controls)."""
    tree = ast.parse((SRC / "verify.py").read_text())
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name not in ("_integral", "_controls"):
            for node in ast.walk(fn):
                assert not (isinstance(node, ast.Attribute) and node.attr.startswith("const_")
                            and _name(node.value) == "scalars"), (
                    f"verify.py:{node.lineno} reads scalars.{node.attr} in {fn.name}")


def test_the_kernels_multiply_no_int_tuples():
    tree = ast.parse((SRC / "polyalg.py").read_text())
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "kernel_numerators")
    named = {_name(node) for node in ast.walk(build)}
    assert "poly_mul" not in named and "poly_add" not in named


def test_verify_applies_the_operators_at_a_point():
    """The symbolic alpha of cherednik_apply and d2_apply serves the API and
    the tests: every call in verify passes its alpha, and only the controls
    build a field element from a Fraction (AlphaRational.from_fraction)."""
    tree = ast.parse((SRC / "verify.py").read_text())
    arity = {"cherednik_apply": 3, "d2_apply": 2}
    for top in tree.body:  # the registry's lambdas included
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            if name in arity:
                assert (len(node.args) == arity[name]
                        or any(kw.arg == "alpha" for kw in node.keywords)), (
                    f"verify.py:{node.lineno} calls {name} at the symbolic alpha")
            assert not (name == "from_fraction" and where != "_controls"), (
                f"verify.py:{node.lineno} calls AlphaRational.from_fraction in {where}")
