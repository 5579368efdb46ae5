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
    """Record the outermost calls to the two kernel builders (omega_truncated
    itself calls pi_truncated)."""
    calls, depth = [], [0]

    def counting(name, build):
        def counted(*args):
            if not depth[0]:
                calls.append(name)
            depth[0] += 1
            try:
                return build(*args)
            finally:
                depth[0] -= 1
        return counted

    for name in ("omega_truncated", "pi_truncated"):
        monkeypatch.setattr(polyalg, name, counting(name, getattr(polyalg, name)))
    return calls


def test_omega_pairing_builds_one_kernel_per_N(monkeypatch):
    calls = _count_kernel_builds(monkeypatch)
    result = verify.CHECKS["omega.pairing-diagonal"](verify.Bounds())
    assert result.status == "pass", result.witness
    assert result.params["N"] == [2, 3, 4] and result.cases == 65
    assert calls == ["omega_truncated"] * 3


def test_v_stability_builds_two_kernels(monkeypatch):
    calls = _count_kernel_builds(monkeypatch)
    result = verify.CHECKS["pi.v-stability"](verify.Bounds())
    assert result.status == "pass", result.witness
    assert calls == ["pi_truncated"] * 2
