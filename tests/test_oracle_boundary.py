"""The oracle stays independent of the code it checks, and each kernel
row that reads slices builds its kernels once.

`oracle` works on Fraction dicts alone, so it imports neither the
construction (`jack`) nor the polynomial layer (`polyalg`).  The rows
omega.pairing-diagonal and pi.v-stability build one kernel per swept N and
reuse it for every degree and label.
"""

import ast
import pathlib

from jackpoly import polyalg, verify

ORACLE = pathlib.Path(__file__).resolve().parent.parent / "src" / "jackpoly" / "oracle.py"


def _imported(path):
    """Every module, and every module.name, that an import in the file names;
    relative imports resolved against the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "jackpoly." + module if module else "jackpoly"
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_oracle_imports_neither_jack_nor_polyalg():
    for name in _imported(ORACLE):
        for banned in ("jackpoly.jack", "jackpoly.polyalg"):
            assert name != banned and not name.startswith(banned + "."), (
                f"oracle.py imports {name}")


def _count_kernel_builds(monkeypatch):
    """Record every build of a kernel's Z[alpha] numerators, by kernel: the
    rows read polyalg.kernel_numerators, and omega_truncated and
    pi_truncated call it too."""
    calls = []
    build = polyalg.kernel_numerators

    def counted(n, bound, diagonal):
        calls.append("omega" if diagonal else "pi")
        return build(n, bound, diagonal)

    monkeypatch.setattr(polyalg, "kernel_numerators", counted)
    return calls


def test_omega_pairing_builds_one_kernel_per_N(monkeypatch):
    calls = _count_kernel_builds(monkeypatch)
    result = verify.CHECKS["omega.pairing-diagonal"](verify.Bounds())
    assert result.status == "pass", result.witness
    assert result.params["N"] == [2, 3, 4] and result.cases == 65
    assert calls == ["omega"] * 3


def test_v_stability_builds_two_kernels(monkeypatch):
    calls = _count_kernel_builds(monkeypatch)
    result = verify.CHECKS["pi.v-stability"](verify.Bounds())
    assert result.status == "pass", result.witness
    assert calls == ["pi"] * 2
