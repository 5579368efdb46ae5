"""The verify rows that sum E, P or S terms multiply their identity through
by a nonzero factored multiple first, so that every sum runs over
denominator 1, or at one point alpha = 2^K, and takes no polynomial gcd.
These tests pin that traffic, check the cleared kernel block against the
plain Q(alpha) sum it replaces, and check the integral forms that make the
clearing exact."""

import pytest

from jackpoly import cli, combinat, jack, polyalg, qalpha, scalars, verify
from jackpoly.polyalg import MultiPoly

# the one polynomial gcd of a default verify: the control that scales E by
# d' in place of d forms a value outside Z[alpha] on purpose
POLYNOMIAL_GCDS = {"negative.controls": 1}


def _polynomial_gcds(monkeypatch):
    """The list of every later qalpha._gcd call with two non-constant
    operands."""
    calls = []
    gcd = qalpha._gcd

    def counted(a, b):
        if len(a) > 1 and len(b) > 1:
            calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(qalpha, "_gcd", counted)
    return calls


def test_cleared_rows_take_no_polynomial_gcd(fresh_caches, monkeypatch):
    """At the default bounds no row calls qalpha._gcd with two non-constant
    operands, the construction of E, P and S included, except the control
    of POLYNOMIAL_GCDS."""
    calls = _polynomial_gcds(monkeypatch)
    for name, row in verify.CHECKS.items():
        before = len(calls)
        result = row(verify.Bounds())
        assert result.status == "pass", (name, result.witness)
        assert len(calls) - before == POLYNOMIAL_GCDS.get(name, 0), (name, len(calls) - before)
    # the wrapper does see the Q(alpha) sum the kernel rows no longer make
    before = len(calls)
    assert _field_sum("E", 3, 2) and len(calls) > before


def test_shifted_pi_takes_no_polynomial_gcd(fresh_caches, monkeypatch, capsys):
    """`expand pi --shifted` carries each coefficient through the Moebius
    map alpha -> alpha/(alpha+1), which keeps a coprime pair coprime, so it
    divides out only an integer content."""
    calls = _polynomial_gcds(monkeypatch)
    for extra in ([], ["--coeffs"], ["--format", "json"]):
        assert cli.main(["expand", "pi", "--N", "3", "--deg", "3", "--shifted", *extra]) == 0
        assert capsys.readouterr().out
        assert calls == [], (extra, len(calls))


# compute, constants and expand, with and without a point, json and text
CLI_SWEEP = [
    ["compute", "E", "2,0,1"], ["compute", "E", "1,2", "--N", "3", "--alpha", "3/2"],
    ["compute", "P", "2,1", "--N", "3"], ["compute", "P", "3,1", "--N", "3", "--alpha", "2"],
    ["compute", "S", "3,1,0"], ["compute", "S", "4,2", "--N", "3", "--alpha=-1/2"],
    ["compute", "S", "4,1,0", "--format", "json"],
    ["constants", "2,0,1", "--alpha", "5/2"], ["constants", "1,2", "--N", "3", "--format", "json"],
    ["expand", "omega", "--N", "2", "--deg", "3", "--coeffs"],
    ["expand", "omega", "--N", "2", "--deg", "2", "--format", "json"],
    ["expand", "pi", "--N", "3", "--deg", "3", "--coeffs"],
    ["expand", "pi", "--N", "2", "--deg", "3", "--shifted", "--coeffs"],
    ["expand", "binomial", "--N", "3", "--deg", "3", "--r", "3/2"],
]


@pytest.mark.parametrize("argv", CLI_SWEEP, ids=" ".join)
def test_cli_takes_no_polynomial_gcd(fresh_caches, monkeypatch, capsys, argv):
    """Every value `compute`, `constants` and `expand` print is a closed
    form, a construction or a kernel made canonical over a Factored
    denominator, so none of them calls qalpha._gcd with two non-constant
    operands."""
    calls = _polynomial_gcds(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert calls == [], len(calls)


def _field_sum(family, n, d):
    """sum f(x) f(y) / norm over the degree-d basis, in Q(alpha)."""
    norm = scalars.u_eta if family == "E" else scalars.v_kappa
    return sum((f.outer(f.scale(norm(label).inverse()))
                for label, f in verify._basis(family, n, d).items()), MultiPoly.zero(2 * n))


@pytest.mark.parametrize("family", ["E", "P"])
def test_cleared_kernel_block_is_the_field_sum(family):
    """At N <= 3 and D <= 3 both sides of the cleared block, formed from the
    kernel's Z[alpha] numerators and divided by its multiple M, are the
    degree-d terms of the canonical kernel that `expand` prints and the
    Q(alpha) sum."""
    for n in (2, 3):
        kernel = (polyalg.omega_truncated if family == "E" else polyalg.pi_truncated)(n, 3)
        numerators = polyalg.kernel_numerators(n, 3, family == "E")
        for d in range(4):
            block, total, k = verify._kernel_block(family, numerators, d)
            block, total = ({e: qalpha.AlphaRational(qalpha.unpack(c, k)) for e, c in side.items()}
                            for side in (block, total))
            m = verify._kernel_sum(family, n, d)[0].value()
            assert all(c.den == (1,) for side in (block, total) for c in side.values())
            assert {e: c / m for e, c in block.items()} == {
                e: c for e, c in kernel.terms.items() if sum(e[:n]) == d}
            assert {e: c / m for e, c in total.items()} == _field_sum(family, n, d).terms


def test_integral_forms_of_P_and_S():
    """h_kappa P_kappa lies in Z>=0[alpha] (I. G. Macdonald, Symmetric
    Functions and Hall Polynomials, VI.10) and d_rho+ S in Z[alpha], for
    every label of the default sweep: N <= 4, |kappa| <= 5 and
    |rho+| <= 6."""
    for n in (2, 3, 4):
        for kappa in combinat.partitions_upto(5, n):
            hp = jack.build_P(kappa, n).scale(scalars.const_h(kappa))
            for e, c in hp.terms.items():
                assert c.den == (1,) and min(c.num) >= 0, (kappa, e, c)
        for _, rho_plus in verify._staircase_shapes(n, 6):
            ds = jack.build_S(rho_plus).scale(scalars.const_d(rho_plus))
            assert all(c.den == (1,) for c in ds.terms.values()), rho_plus
