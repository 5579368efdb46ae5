"""The verify rows that sum E, P or S terms multiply their identity through
by a nonzero factored multiple first, so that every sum runs over
denominator 1 and takes no polynomial gcd.  These tests pin that traffic,
check the cleared kernel block against the plain Q(alpha) sum it replaces,
and check the integral forms that make the clearing exact."""

import pytest

from jackpoly import cli, combinat, jack, polyalg, qalpha, scalars, verify
from jackpoly.polyalg import MultiPoly

# the rows that sum family terms over denominator 1, and the closed-form
# rows whose values at alpha/(alpha+1) are shifted factored ratios
CLEARED_ROWS = ["omega.decomposition", "omega.pairing-diagonal", "pi.decomposition",
                "pi.v-stability", "binomial.nonsymmetric", "binomial.symmetric",
                "sym.proportionality", "asym.proportionality", "asym.du-expansion",
                "E.value-at-ones", "asym.c-closed-forms", "society.identities",
                "norm.reconciliation", "E.swap-action"]


@pytest.fixture
def fresh_caches(monkeypatch):
    monkeypatch.setattr(jack, "_E_CACHE", {})
    monkeypatch.setattr(jack, "_J_CACHE", {})
    monkeypatch.setattr(jack, "_P_CACHE", {})


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
    """At the default bounds no row above calls qalpha._gcd with two
    non-constant operands, the construction of E, P and S included."""
    calls = _polynomial_gcds(monkeypatch)
    for name in CLEARED_ROWS:
        result = verify.CHECKS[name](verify.Bounds())
        assert result.status == "pass", (name, result.witness)
        assert calls == [], (name, len(calls))
    # the wrapper does see the Q(alpha) sum the kernel rows no longer make
    assert _field_sum("E", 3, 2) and calls


def test_shifted_pi_takes_no_polynomial_gcd(fresh_caches, monkeypatch, capsys):
    """`expand pi --shifted` carries each coefficient through the Moebius
    map alpha -> alpha/(alpha+1), which keeps a coprime pair coprime, so it
    divides out only an integer content."""
    calls = _polynomial_gcds(monkeypatch)
    for extra in ([], ["--coeffs"], ["--format", "json"]):
        assert cli.main(["expand", "pi", "--N", "3", "--deg", "3", "--shifted", *extra]) == 0
        assert capsys.readouterr().out
        assert calls == [], (extra, len(calls))


def _field_sum(family, n, d):
    """sum f(x) f(y) / norm over the degree-d basis, in Q(alpha)."""
    norm = scalars.u_eta if family == "E" else scalars.v_kappa
    return sum((f.outer(f.scale(norm(label).inverse()))
                for label, f in verify._basis(family, n, d).items()), MultiPoly.zero(2 * n))


@pytest.mark.parametrize("family", ["E", "P"])
def test_cleared_kernel_block_is_the_field_sum(family):
    """At N <= 3 and D <= 3 both sides of the cleared block, divided by its
    multiple M, are the kernel's degree-d terms and the Q(alpha) sum."""
    for n in (2, 3):
        kernel = (polyalg.omega_truncated if family == "E" else polyalg.pi_truncated)(n, 3)
        for d in range(4):
            block, total = verify._kernel_block(family, kernel, d)
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
