"""The package imports only the standard library and itself at runtime,
and writes its orbits from the one rearrangement walk in `combinat`: only
the oracle, which must not share that walk, enumerates permutations.  No
Z[alpha] product the checks pack is expanded first: a Factored is packed
by its `at`, only `qalpha` expands one, and the kernels are built on ints.
The rows apply the operators at a point and build no field element but
in the controls, and verify reads jack only through its public names.
Every module-level memo is listed in `jackpoly._MEMOS`, which
`clear_caches` and the tests' fresh caches read."""

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


def test_MEMOS_names_every_module_level_memo():
    """Each module-level `NAME: dict = {}` of the package is in _MEMOS, and
    _MEMOS names nothing else, so clear_caches() cannot miss a memo."""
    import jackpoly
    declared = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                    and _name(node.annotation) == "dict" and isinstance(node.value, ast.Dict)
                    and not node.value.keys):
                declared.add((path.stem, node.target.id))
    listed = {(module.__name__.rsplit(".", 1)[1], name)
              for module, names in jackpoly._MEMOS.items() for name in names}
    assert declared and listed == declared, (listed - declared, declared - listed)


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
    """The rows read every closed form as a Factored, packed by at(K) or
    evaluated by eval_at: verify reads no node product in Q(alpha)
    (scalars.const_*) anywhere, the controls included."""
    for node in ast.walk(ast.parse((SRC / "verify.py").read_text())):
        assert not (isinstance(node, ast.Attribute) and node.attr.startswith("const_")
                    and _name(node.value) == "scalars"), (
            f"verify.py:{node.lineno} reads scalars.{node.attr}")


def test_verify_reads_jack_through_its_public_names():
    """verify reads the families through build_E, build_P, build_S and the
    integral forms jack.integral serves, never a private name of jack."""
    for node in ast.walk(ast.parse((SRC / "verify.py").read_text())):
        assert not (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and _name(node.value) == "jack"), f"verify.py:{node.lineno} reads jack.{node.attr}"


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
