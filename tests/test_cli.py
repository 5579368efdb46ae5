import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from jackpoly import cli, combinat, jack, polyalg, qalpha, scalars, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestCompute:
    def test_E_text(self, capsys):
        code, out = run_cli(capsys, "compute", "E", "1,0", "--N", "2")
        assert code == 0
        assert out.strip() == "((1)/(α + 1))*z2 + z1"

    def test_P_m_basis(self, capsys):
        code, out = run_cli(capsys, "compute", "P", "2", "--N", "2")
        assert code == 0
        assert out.strip() == "m[2] + ((2)/(α + 1))*m[1,1]"

    def test_S_text(self, capsys):
        code, out = run_cli(capsys, "compute", "S", "1,0")
        assert code == 0
        assert out.strip() == "-x2 + x1"

    def test_json_byte_stable(self, capsys):
        _, out1 = run_cli(capsys, "compute", "E", "2,1,0", "--format", "json")
        _, out2 = run_cli(capsys, "compute", "E", "2,1,0", "--format", "json")
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["N"] == 3
        exps = [tuple(t["exp"]) for t in obj["terms"]]
        assert exps == sorted(exps)

    def test_specialization(self, capsys):
        code, out = run_cli(capsys, "compute", "E", "1,0", "--alpha", "2")
        assert code == 0
        assert out.strip() == "(1/3)*z2 + z1"

    def test_specialized_json_and_text_share_terms(self, capsys):
        # at alpha = -2 the coefficient of z1*z2*z3 in E_(2,1,0) vanishes
        argv = ("compute", "E", "2,1,0", "--alpha=-2")
        _, text = run_cli(capsys, *argv)
        _, out = run_cli(capsys, *argv, "--format", "json")
        text_exps = set()
        for chunk in re.split(r" [+-] ", text.strip()):
            exp = [0, 0, 0]
            for i, k in re.findall(r"z(\d+)(?:\^(\d+))?", chunk):
                exp[int(i) - 1] = int(k or 1)
            text_exps.add(tuple(exp))
        terms = json.loads(out)["terms"]
        assert {tuple(t["exp"]) for t in terms} == text_exps
        assert (1, 1, 1) not in text_exps and "0" not in [t["coeff"] for t in terms]

    def test_bad_index_exits_2(self, capsys):
        # jack's own label check, reported as a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "P", "1,2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: (1, 2) is not weakly decreasing\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "S", "1,1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: (1, 1) must be strictly decreasing\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "E", "1,x"])
        assert exc.value.code == 2

    def test_alpha_pole_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "E", "1,0", "--alpha", "-1"])
        assert exc.value.code == 2
        assert "pole at alpha = -1" in capsys.readouterr().err

    def test_alpha_zero_denominator_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "E", "1,0", "--alpha", "1/0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jackpoly compute")
        assert "cannot parse rational '1/0'" in err

    def test_negative_alpha_equals_form(self, capsys):
        code, out = run_cli(capsys, "compute", "E", "1,0", "--alpha=-1/2")
        assert code == 0
        assert out.strip() == "(2)*z2 + z1"

    @pytest.mark.parametrize("argv, want", [
        (["E", "1200"], "z1^1200"),
        (["P", "1200", "--N", "1"], "m[1200]"),
    ])
    def test_long_raising_chain(self, capsys, fresh_caches, argv, want):
        # 1200 raising steps from the zero label, far past the interpreter's
        # recursion limit
        code, out = run_cli(capsys, "compute", *argv)
        assert code == 0
        assert out.strip() == want


class TestConstants:
    def test_text_rows(self, capsys):
        code, out = run_cli(capsys, "constants", "1,0")
        assert code == 0
        assert "d = α + 1" in out
        assert "dp = α" in out
        assert "u = (α)/(α + 1)" in out

    def test_zero_row(self, capsys):
        code, out = run_cli(capsys, "constants", "0,0")
        assert code == 0
        for line in out.strip().splitlines():
            assert line.split("=")[1].strip() == "1"

    def test_json(self, capsys):
        code, out = run_cli(capsys, "constants", "0,1", "--format", "json")
        obj = json.loads(out)
        assert obj["u"] == {"num": [1, 1], "den": [2, 1]}

    def test_alpha_pole_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", "1,0", "--alpha", "-1"])
        assert exc.value.code == 2
        assert "pole at alpha = -1" in capsys.readouterr().err

    def test_alpha_zero_denominator_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", "1,0", "--alpha=2/0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jackpoly constants")
        assert "cannot parse rational '2/0'" in err


class TestVerify:
    def test_filter_and_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--filter", "value-at-ones",
                            "--N", "2", "--deg", "2")
        assert code == 0
        assert "PASS" in out and "E.value-at-ones" in out

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "verify", "--filter", "hook",
                            "--N", "2", "--deg", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["fail"] == 0
        assert obj["checks"][0]["name"] == "P.value-and-hook"

    def test_skip_when_k_missing(self, capsys):
        code, out = run_cli(capsys, "verify", "--filter", "S.norm",
                            "--N", "2", "--deg", "2", "--k", "1")
        assert code == 0
        assert "SKIP" in out
        code, out = run_cli(capsys, "verify", "--filter", "S.norm",
                            "--N", "2", "--deg", "2", "--k", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["skipped"] == 1
        assert obj["checks"][0]["witness"] == "needs k in {1,2}"

    def test_invalid_args_exit_2(self, capsys):
        for argv in (["verify", "--deg", "-1"],
                     ["verify", "--k", "0,1"],
                     ["verify", "--r", "1,zz"],
                     ["verify", "--filter", "no-such-check"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2

    def test_N_below_2_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--N", "1", "--filter", "value-at-ones"])
        assert exc.value.code == 2

    def test_unparsable_k_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--k", "1,x"])
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--k", "1,1"), ("--r", "1,2/2")],
                             ids=["k", "r"])
    def test_repeated_entry_exits_2(self, capsys, flag, value):
        # a repeated value would be swept twice, doubling the cases it reports
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--N", "2", "--deg", "2", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: jackpoly verify")
        assert f"{flag} entries must be distinct" in captured.err

    def test_error_prints_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--k", "1,x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: jackpoly verify")

    def test_clamp_is_reported(self, capsys):
        argv = ["verify", "--N", "6", "--deg", "8", "--filter", "E.eigen"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "clamped: N 6 -> 4, deg 8 -> 5, deg(N=4) 8 -> 3" in out
        code, out = run_cli(capsys, *argv, "--format", "json")
        (check,) = json.loads(out)["checks"]
        assert check["params"]["N"] == [2, 3, 4] and check["params"]["deg"] == 5
        assert check["clamped"] == [
            {"bound": "N", "requested": 6, "effective": 4},
            {"bound": "deg", "requested": 8, "effective": 5},
            {"bound": "deg(N=4)", "requested": 8, "effective": 3}]
        assert check["cases"] == 112

    def test_every_result_counts_its_cases(self, capsys):
        code, out = run_cli(capsys, "verify", "--N", "2", "--deg", "2",
                            "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == 29
        for check in checks:
            assert check["cases"] >= 1, check["name"]
            assert isinstance(check["clamped"], list)

    def test_deterministic_report(self, capsys):
        _, out1 = run_cli(capsys, "verify", "--filter", "society", "--deg", "3")
        _, out2 = run_cli(capsys, "verify", "--filter", "society", "--deg", "3")
        strip = lambda s: [l.split("(")[0] for l in s.splitlines()]
        assert strip(out1) == strip(out2)

    def test_parallel_workers(self, capsys):
        code, out = run_cli(capsys, "verify", "--filter", "binomial",
                            "--N", "2", "--deg", "2", "--jobs", "2")
        assert code == 0
        assert out.count("PASS") == 2

    def test_workers_capped_at_check_count(self, capsys, monkeypatch):
        # a fake pool records the requested size and maps in this process,
        # so no worker is started at the large value
        import concurrent.futures
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        code, out = run_cli(capsys, "verify", "--filter", "binomial",
                            "--N", "2", "--deg", "2", "--jobs", "500")
        assert code == 0 and out.count("PASS") == 2
        assert sizes == [2]

    def test_failing_check_exits_1_with_witness(self, capsys, monkeypatch):
        from jackpoly import verify

        def broken(bounds):
            return verify.CheckResult("zz.injected", {"n": 1}, "fail",
                                      "label=(1,0) lhs=0 rhs=1")

        monkeypatch.setitem(verify.CHECKS, "zz.injected", broken)
        code, out = run_cli(capsys, "verify", "--filter", "zz.injected")
        assert code == 1
        assert "FAIL" in out and "witness: label=(1,0) lhs=0 rhs=1" in out

    def test_crashing_check_reports_fail(self, capsys, monkeypatch):
        from jackpoly import verify

        def crashing(bounds):
            raise RuntimeError("boom")

        monkeypatch.setitem(verify.CHECKS, "zz.crash", crashing)
        code, out = run_cli(capsys, "verify", "--filter", "zz.crash")
        assert code == 1
        assert "exception" in out and "boom" in out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "jackpoly", "compute", "E", "0,1"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "z2"


@pytest.mark.parametrize("argv", [
    ["compute", "E", "2,1,0"],
    ["verify", "--filter", "cauchy", "--N", "2", "--deg", "1"],
])
def test_closed_pipe_exits_quietly(argv):
    """A reader that closes its end of the pipe before the first write
    leaves no traceback, and the exit code is the command's own."""
    proc = subprocess.Popen([sys.executable, "-m", "jackpoly", *argv], env=_src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert "Traceback" not in err and "Error" not in err, err


BIG = "99999999999999999999"  # above sys.maxsize on every platform


class TestOversized:
    """A part, --N or --deg above sys.maxsize is refused by the parser:
    before, the first five ended in an OverflowError traceback, the next two
    never finished (the expand one allocating without bound), expand omega
    at such a --deg ended in an OverflowError traceback and expand binomial
    looped without end."""

    @pytest.mark.parametrize("argv, message", [
        (["compute", "E", BIG], f"parts above 9223372036854775807 in '{BIG}'"),
        (["compute", "P", BIG], f"parts above 9223372036854775807 in '{BIG}'"),
        (["compute", "S", BIG], f"parts above 9223372036854775807 in '{BIG}'"),
        (["compute", "E", "5,0", "--N", BIG], f"argument --N: {BIG} is above 9223372036854775807"),
        (["constants", "1,0", "--N", BIG], f"argument --N: {BIG} is above 9223372036854775807"),
        (["constants", BIG], f"parts above 9223372036854775807 in '{BIG}'"),
        (["expand", "omega", "--N", BIG, "--deg", "0"],
         f"argument --N: {BIG} is above 9223372036854775807"),
        (["expand", "omega", "--N", "1", "--deg", str(sys.maxsize + 1)],
         f"argument --deg: {sys.maxsize + 1} is above 9223372036854775807"),
        (["expand", "binomial", "--N", "1", "--deg", BIG, "--r", "1"],
         f"argument --deg: {BIG} is above 9223372036854775807"),
        (["verify", "--deg", BIG], f"argument --deg: {BIG} is above 9223372036854775807"),
    ], ids=["E", "P", "S", "compute-N", "constants-N", "constants", "expand-N", "expand-deg",
            "expand-binomial-deg", "verify-deg"])
    def test_exits_2_with_a_message(self, capsys, monkeypatch, argv, message):
        # a regression reaches the computation and fails at once instead of hanging
        def unreachable(*args):
            raise AssertionError("the oversized input reached the computation")
        monkeypatch.setattr(combinat, "diagram_nodes", unreachable)
        monkeypatch.setattr(polyalg, "kernel_numerators", unreachable)
        assert sys.maxsize < int(BIG)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: jackpoly {argv[0]}")
        assert captured.err.endswith(f"error: {message}\n"), captured.err

    @pytest.mark.parametrize("argv", [
        ["compute", "E", BIG], ["compute", "E", "5,0", "--N", BIG],
        ["constants", "1,0", "--N", BIG]], ids=["E", "compute-N", "constants-N"])
    def test_no_traceback(self, argv):
        proc = subprocess.run([sys.executable, "-m", "jackpoly", *argv], env=_src_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "above 9223372036854775807" in proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr


class TestOutOfMemory:
    """A MemoryError inside a subcommand exits 2 with a message.  The
    allocating call is patched to raise, so that no test allocates."""

    @pytest.mark.parametrize("module, name, argv", [
        (jack, "build_E", ["compute", "E", "1,0", "--N", "4"]),
        (scalars, "const_d", ["constants", "1,0"]),
        (cli, "omega_truncated", ["expand", "omega", "--N", "2", "--deg", "1"]),
        (verify, "run_checks", ["verify"]),
    ], ids=["compute", "constants", "expand", "verify"])
    def test_exit_2(self, capsys, monkeypatch, module, name, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(module, name, exhausted)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: jackpoly {argv[0]}")
        assert captured.err.endswith(
            "error: out of memory: the request is too large to serve\n"), captured.err


class TestExpand:
    def test_omega_with_coeffs(self, capsys):
        code, out = run_cli(capsys, "expand", "omega", "--N", "2", "--deg", "1",
                            "--coeffs")
        assert code == 0
        assert "x1*y1" in out
        assert "[1, 0] -> (α + 1)/(α)" in out

    def test_pi_text(self, capsys):
        code, out = run_cli(capsys, "expand", "pi", "--N", "2", "--deg", "1")
        assert code == 0
        assert out.count("(1)/(α)") == 4

    def test_binomial_table(self, capsys):
        code, out = run_cli(capsys, "expand", "binomial", "--N", "2", "--deg", "2",
                            "--r", "1")
        assert code == 0
        assert "[1, 0] -> 1" in out

    def test_N_below_1_exits_2(self, capsys):
        for kernel, n in (("omega", "0"), ("pi", "-1"), ("binomial", "0")):
            with pytest.raises(SystemExit) as exc:
                cli.main(["expand", kernel, "--N", n, "--deg", "1", "--r", "1"])
            assert exc.value.code == 2
            assert "--N" in capsys.readouterr().err

    def test_unknown_option_prints_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "pi", "--N", "2", "--deg", "1", "--alpha", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jackpoly expand")
        assert "unrecognized arguments: --alpha 1" in err

    def test_binomial_needs_r(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "binomial", "--N", "2", "--deg", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["omega", "--coeffs", "--format", "json"], "--coeffs"),
        (["pi", "--coeffs", "--format", "json"], "--coeffs"),
        (["binomial", "--r", "1", "--format", "json"], "text only"),
        (["omega", "--shifted"], "--shifted"),
        (["binomial", "--r", "1", "--shifted"], "--shifted"),
        (["omega", "--r", "1"], "--r"),
        (["pi", "--r", "1"], "--r"),
        (["binomial", "--r", "1", "--coeffs"], "--coeffs"),
    ], ids=["omega-coeffs-json", "pi-coeffs-json", "binomial-json",
            "omega-shifted", "binomial-shifted", "omega-r", "pi-r", "binomial-coeffs"])
    def test_unsupported_combination_exits_2(self, capsys, argv, message):
        # each would otherwise exit 0 with output that ignores the request:
        # text after the JSON document, a text table, an unshifted kernel,
        # or the same table with and without --coeffs
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", *argv, "--N", "2", "--deg", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: jackpoly expand")
        assert message in captured.err

    def test_expand_json_byte_stable(self, capsys):
        _, out1 = run_cli(capsys, "expand", "omega", "--N", "2", "--deg", "2",
                          "--format", "json")
        _, out2 = run_cli(capsys, "expand", "omega", "--N", "2", "--deg", "2",
                          "--format", "json")
        assert out1 == out2


# compute in text, JSON and at a point, constants with and without a point,
# and every expand table
FIELD_FREE = [
    ["compute", "E", "2,0,1"], ["compute", "E", "1,2", "--N", "3", "--format", "json"],
    ["compute", "E", "3,1", "--alpha", "3/2"],
    ["compute", "P", "3,2,1"], ["compute", "P", "2,1", "--N", "3", "--format", "json"],
    ["compute", "P", "3,1", "--N", "3", "--alpha", "3/2"],
    ["compute", "S", "3,1,0"], ["compute", "S", "4,1,0", "--format", "json"],
    ["compute", "S", "4,2", "--N", "3", "--alpha=-1/2"],
    ["constants", "2,0,1"], ["constants", "1,2", "--N", "3", "--alpha", "5/2"],
    ["expand", "omega", "--N", "2", "--deg", "3", "--coeffs"],
    ["expand", "omega", "--N", "2", "--deg", "2", "--format", "json"],
    ["expand", "pi", "--N", "3", "--deg", "3", "--coeffs"],
    ["expand", "pi", "--N", "2", "--deg", "3", "--shifted", "--coeffs"],
    ["expand", "binomial", "--N", "3", "--deg", "3", "--r", "3/2"],
]


@pytest.mark.parametrize("argv", FIELD_FREE, ids=" ".join)
def test_commands_take_no_field_sum_or_product(fresh_caches, monkeypatch, capsys, argv):
    """compute, constants and expand print constructions made canonical
    over a Factored denominator, closed forms and kernels read from ints:
    none of them reaches the Henrici sum or product of Q(alpha)."""
    calls = []
    for name in ("_sum", "_product"):
        fn = getattr(qalpha, name)
        monkeypatch.setattr(qalpha, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert calls == []


class TestGolden:
    """The JSON bytes of `compute` and `expand` are part of the behaviour
    contract.  The `compute` digests were computed with the primitive-PRS
    reduction in Q(alpha), before products and sums switched to Henrici's
    reduced forms and the gcd to GCDHEU; the `expand` JSON digests (the
    truncated kernels) before the polynomial operators shared one
    accumulation helper, and the `expand` text digests while a kernel was
    still a two-sided container rather than one polynomial in 2N variables;
    the `verify` digest when `negative.controls` gained its thirteenth
    control, alpha - 2^K0 on one cleared coefficient, and named it in its
    perturbation param (every other row's report is unchanged since the
    controls came to name the four perturbations that are not +1 on one
    coefficient).  Any change in canonical form, term set, serialization or
    verdict shows here."""

    @pytest.mark.parametrize("family, label, digest", [
        ("E", "2,1,0",
         "182542a48caa04cb6dba81504ef14c37c99046853cb193bece58fddd55b42d1e"),
        ("E", "2,0,1,1",
         "0671608d7426015b4b615aabe1614e039806690449f16eb057b0b9de3301548f"),
        ("P", "3,1,0",
         "6a621d058cc3e5a37a43a5694b60d36f696a50f2befd6cffb8dd09c1cff15f01"),
        ("P", "2,2,1,0",
         "5306f4a3981b1554fcc0ac54a301c635946050293a676ea2611631312034ef56"),
        ("S", "3,1,0",
         "e244c503b06e76d6fb6b392aa52e0e95a912ec1e07f8fdb58a5204685700ccbe"),
        # N = 5, computed while P and S were still full sums and products
        ("P", "3,2,1,1,0",
         "8c78832141a77b3e9f680f4ceca467c01d8c93670b42fb41ce11f9b7c04c2101"),
        ("S", "8,4,2,1,0",
         "0023fee8b79675e1766472177eabe9b3623b0ce961e88311e396220a9126f84c"),
        # the costliest E of the benchmark's compute sweep, computed while E
        # was still built by a chain in Q(alpha)
        ("E", "4,4,0,0,0",
         "97d2e3fb2655904b286a07e9911a07d9487484e64da5d1300291b8f2cd8860cb"),
        # two E at N = 5, the second with a raising factor pending, and a P
        # at N = 4, computed while Factored.over still took one numerator at
        # a time and P unpacked every term of J
        ("E", "1,0,4,3,0",
         "6067e46959b1cf3163af6c07b37eb5841c4e549f525b65fdc05c050de14b9158"),
        ("E", "0,1,2,2,3",
         "5f12a238710516226a7f2cb2a27b2baf5e5206ada87f6f10c2cd573ec595d83b"),
        ("P", "4,3,1,0",
         "67ebdedc5e9854309993fb8cb6cb2b009d5100e316702091a91a381b366c3671"),
        # P at N = 7 and 9 and S at N = 6, computed while every dominant
        # coefficient was still written over all N! permutations
        ("P", "2,2,1,1,0,0,0,0,0",
         "429394ff34fa1d46265d321a251f0bc5552a0122c75a44aa2ebbdefcef6299c1"),
        ("P", "4,3,2,1,0,0,0",
         "394d75b8062b58d4750836ac975ae4322f225da8728f5557b06e09afa09b846d"),
        ("S", "6,4,3,2,1,0",
         "c6061c822bc348750a403b13b03346e655030754f45a987d2a3fc024fb08b7b7"),
        # the other E and S labels of the benchmark's compute-reach slots,
        # computed while Factored.over still divided int tuples by synthetic
        # division
        ("E", "2,4,2,0,0",
         "6746606ef0e690140934b4856dd188c020b89094dc1459082ed7942780cda7c0"),
        ("E", "0,4,1,3,0",
         "32ca5b5d8a3a0e4229f9dd3d96897d88891d403c3e5587279c02a76de633c19f"),
        ("E", "4,2,0,2,0",
         "36a058d939208e2d87cf5ec59b2618a48d10a37d12848a29654d15f7f7b4719f"),
        ("E", "4,0,0,4,0",
         "cd3076d2b2badfdb12c220fc20039c666382a297a38c13c4d4a3d21f2870d078"),
        ("E", "4,1,0,0,3",
         "665dd8cfc4222c6822dea170af6754eb75b7ae46674c7a32f3e6398ba000ea1f"),
        ("E", "4,2,2,0,0",
         "9121bcfbc33a3a7c926a3d089877796781559fd1b20a01b03275725eb61b66d4"),
        ("E", "4,0,1,3,0",
         "25fd6a21d9ab71191872e3cc327a1f41ebc0322bcde53da8943ced354f6b4fe0"),
        ("E", "4,0,3,1,0",
         "2eaba4cfb5ee20cfc7d0a264cd37cd2cf7bcee88666d70555549ccd125fbb496"),
        ("E", "0,4,4,0,0",
         "0e81b0415c291d7f775792590509a6a3c7bb2f96f5a37b5db21ef6fe4ac742aa"),
        ("E", "4,3,0,1,0",
         "0eac72e9084d4635a7da253bc8452319a429138901720a2bf76db9a06e8ddaf8"),
        ("E", "4,1,3,0,0",
         "10f6c01e0a7fd88dc5fb3910253281bbe6e3c5d074468309be783c7acea0980b"),
        ("E", "4,1,0,3,0",
         "5872db1d512c7b74f47af4ff0e3250ca924a4d3cdf2990f441032c1132694779"),
        ("S", "8,3,2,1,0",
         "fa672db9c71aeb1981c8aa076a4f532768dac1d21b3d871828425effb4cdbbae"),
        ("S", "7,4,2,1,0",
         "e3c0a4c5e0c0410563efedb6e8ee378946c4d33c251559e685b264d7bbc461cf"),
        ("S", "9,3,2,1,0",
         "76652e3df910f210ff72ed695efc87e60da95bd2d424b1d9811f20f6e7030377"),
        ("S", "7,3,2,1,0",
         "72c2122034cbafcc7bdde93a7590ed9995b0393a096e52b37577ee864e14fe62"),
        ("S", "6,4,3,1,0",
         "1a9c4a22bc47d0241613ec7b5b4e11dd5321def5c2bb1ce7d537d17cd8d74cd0"),
    ])
    def test_compute_json_digest(self, capsys, family, label, digest):
        code, out = run_cli(capsys, "compute", family, label, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["expand", "omega", "--N", "3", "--deg", "3"],
         "81ebf6c6270acd492df404486cb87c20dd62a5a4f5de221eec9f81913b977b23"),
        (["expand", "pi", "--N", "2", "--deg", "3", "--shifted"],
         "73c0d013b8f85fe1cca685b904255d9b1c83aee12a79c84cf54c99b5863467ff"),
        # computed while the kernels were still products of series in Q(alpha)
        (["expand", "omega", "--N", "4", "--deg", "3"],
         "d730682e01e897257932aff502ae1a7bef85e6939b748cf5e1d59e4ca99200ee"),
        (["expand", "pi", "--N", "3", "--deg", "3"],
         "768565a495de6d0decd6814c6ee9258254a34066016a43b05455a85539c913f4"),
        (["expand", "pi", "--N", "4", "--deg", "3"],
         "732a48ebced0042ee69300915cc3d449a468f007a36236997a58407e7bbe8361"),
        # at N = 4 and D = 5, computed while each block was still divided by
        # alpha one int tuple at a time
        (["expand", "omega", "--N", "4", "--deg", "5"],
         "f30df0d715eff7918cb7ddc9b7a3269c52c8ea217ca67328c26a67913580e970"),
        (["expand", "pi", "--N", "4", "--deg", "5"],
         "11e8b15ca777e026c5bbbcf9c5a9efc721f5700ec25e868c967309369f8d322f"),
    ])
    def test_expand_json_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["expand", "omega", "--N", "3", "--deg", "3"],
         "1bd257cac44eac015df03349b574b74d71b40773cd8d64b9edff1b9ae23d7651"),
        (["expand", "pi", "--N", "2", "--deg", "3", "--shifted", "--coeffs"],
         "fdd476b03bece07b236e701de7f6e3049d7f53773d97703f4b43bce1774d3dc5"),
    ])
    def test_expand_text_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the text renderers: symbolic, specialized (a vanishing term at
    # alpha = -2), the constant polynomial, the m-basis and the constants
    @pytest.mark.parametrize("argv, digest", [
        (["compute", "E", "2,0,1"],
         "4fde09b79ed1df3b8bba32676f05a9777c41dd0425ec63c2974914e5deca706a"),
        (["compute", "E", "2,0,1", "--alpha", "1"],
         "69392e1ad04ad0bce9989be2b5ef5923eeb90d7a8564fcb5396e0687aa489f35"),
        (["compute", "E", "2,1,0", "--alpha=-2"],
         "263248ed55d6b5a710ca297633a9f89001a439aefdd98d03664250ab2ec9a450"),
        (["compute", "E", "0,0"],
         "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
        (["compute", "P", "2,1,1,0"],
         "a96636273971de1c750901cd0b850dd0ba262cf65afad041cb4e678dfd48e4b5"),
        (["compute", "P", "2,1,0", "--alpha", "1"],
         "da882900359467d3424dff60dedd0ff4e30764a8b59ec48c0e2cea95d43fc3f1"),
        (["compute", "S", "4,1,0"],
         "a1b3197a3ee9905dd92ef5333435e66c6b94755ed058a7406fdf049db31340ef"),
        (["constants", "2,1,0"],
         "a08ec1d41abe302002e2d66f496afd188d18e753b8f1eeffd12f20c88562cbae"),
        # taken while the closed forms were still formed by Q(alpha) division
        (["expand", "binomial", "--N", "3", "--deg", "3", "--r", "5/2"],
         "d3ab32003c5eb95d429d1ee3f48348695421d8a50665e0d90144b26626f36db1"),
    ])
    def test_text_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_constants_json_digest(self, capsys):
        # every composition with |eta| <= 4 at N = 2, 3, the outputs joined;
        # taken while the closed forms were still formed by Q(alpha) division
        blob = ""
        for n in (2, 3):
            for eta in combinat.compositions_upto(4, n):
                code, out = run_cli(capsys, "constants", ",".join(map(str, eta)),
                                    "--format", "json")
                assert code == 0
                blob += out
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "304f269b546e46da556fd777404adca02c77182f6f129000183533d0136a3a24")

    def test_verify_json_digest(self, capsys):
        # names, params, cases, clamps, witnesses and verdicts of the whole
        # registry; the timings are dropped and the keys sorted
        code, out = run_cli(capsys, "verify", "--N", "3", "--deg", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        del report["total_seconds"]
        for check in report["checks"]:
            del check["seconds"]
        blob = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "261a5e0ed6aa910e6f0536808f2bd3921fba98e2a8ab71c3871aa3fd9302ab76")
