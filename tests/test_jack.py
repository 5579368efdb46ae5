from fractions import Fraction

import pytest

from jackpoly import combinat as cb
from jackpoly import jack, scalars
from jackpoly.polyalg import MultiPoly, symmetrize
from jackpoly.qalpha import ALPHA, ONE, AlphaRational

A = ALPHA


def _z(i, n):
    return MultiPoly.variable(i, n)


class TestBuildE:
    def test_small_cases(self):
        assert jack.build_E((0, 1)) == _z(2, 2)
        assert jack.build_E((1, 0)) == _z(1, 2) + _z(2, 2).scale(1 / (A + 1))
        assert jack.build_E((1, 1)) == MultiPoly.monomial((1, 1))

    def test_eigen_and_triangular_sweep(self):
        for n, cap in [(2, 5), (3, 4)]:
            for eta in cb.compositions_upto(cap, n):
                assert jack.eigen_ok(jack.build_E(eta), eta)
                assert jack.triangular_ok(jack.build_E(eta), eta)

    def test_corrupted_fails(self):
        f = jack.build_E((2, 1))
        e, c = f.lead_term()
        bad = MultiPoly(2, {**f.terms, e: c + ONE})
        assert not jack.eigen_ok(bad, (2, 1))
        assert not jack.triangular_ok(f.scale(AlphaRational.from_fraction(2)), (2, 1))
        # a monomial above the label breaks triangularity
        above = MultiPoly(3, {**jack.build_E((1, 1, 0)).terms,
                              (2, 0, 0): ONE})
        assert not jack.triangular_ok(above, (1, 1, 0))

    def test_swap_action_cases(self):
        assert jack.check_s_i_action((1, 1), 1)
        assert jack.check_s_i_action((1, 0), 1)
        assert jack.check_s_i_action((0, 1), 1)
        for n in (2, 3):
            for eta in cb.compositions_upto(3, n):
                for i in range(1, n):
                    assert jack.check_s_i_action(eta, i)

    def test_phi_equivariance(self):
        from jackpoly.polyalg import apply_phi
        for n in (2, 3):
            for eta in cb.compositions_upto(3, n):
                assert apply_phi(jack.build_E(eta)) == jack.build_E(
                    cb.phi_composition(eta))

    def test_explicit_swap_mixing(self):
        # descent case: s1 E_(1,0) = (1/d) E_(1,0) + (1 - 1/d^2) E_(0,1), d = a+1
        from jackpoly.polyalg import apply_transposition
        f = jack.build_E((1, 0))
        g = jack.build_E((0, 1))
        d = A + 1
        rhs = f.scale(1 / d) + g.scale(ONE - 1 / d ** 2)
        assert apply_transposition(f, 1, 2) == rhs


class TestBuildP:
    def test_small_cases(self):
        assert jack.build_P((1,), 2) == _z(1, 2) + _z(2, 2)
        assert jack.build_P((1, 1), 2) == MultiPoly.monomial((1, 1))
        m2 = MultiPoly(2, {(2, 0): ONE, (0, 2): ONE})
        m11 = MultiPoly.monomial((1, 1))
        assert jack.build_P((2,), 2) == m2 + m11.scale(2 / (A + 1))

    def test_two_routes_and_values(self):
        for n in (2, 3):
            for kappa in cb.partitions_upto(5, n):
                assert jack.check_pe_vs_sym(kappa, n)

    def test_symmetric_eigen_dominance(self):
        for n in (2, 3):
            for kappa in cb.partitions_upto(5, n):
                assert jack.check_P_symmetric_eigen(kappa, n)

    def test_corrupted_P_fails(self):
        p = jack.build_P((2, 1), 2)
        e, c = p.lead_term()
        bad = MultiPoly(2, {**p.terms, e: c + ONE})
        assert not jack.p_properties_ok(bad, (2, 1))

    def test_stability(self):
        for kappa in [(1,), (2,), (1, 1), (2, 1), (3, 1)]:
            assert jack.check_P_stability(kappa, 3)

    def test_shifted_parameter(self):
        p = jack.build_P((2, 0), 2, shift_param=True)
        # coefficient 2/(a+1) becomes 2(a+1)/(2a+1) under a -> a/(a+1)
        assert p.terms[(1, 1)] == (2 * A + 2) / (2 * A + 1)

    def test_expansion_coefficients_are_dp_ratios(self):
        for n in (2, 3):
            for kappa in cb.partitions_upto(4, n):
                p = jack.build_P(kappa, n)
                acc = MultiPoly.zero(n)
                for eta in cb.rearrangements(kappa):
                    coeff = scalars.const_dp(kappa) / scalars.const_dp(eta)
                    acc = acc + jack.build_E(eta).scale(coeff)
                assert p == acc

    def test_sym_constant_measured(self):
        # the symmetrization of any E is an exact multiple of P
        for n in (2, 3):
            for eta in cb.compositions_upto(4, n):
                c = jack.sym_constant(eta)
                assert symmetrize(jack.build_E(eta)) == jack.build_P(
                    cb.sort_to_partition(eta), n).scale(c)
        # for the increasing rearrangement the multiple is the stabilizer order
        assert jack.sym_constant((0, 1, 2)) == ONE
        assert jack.sym_constant((0, 1, 1)) == 2


class TestBuildS:
    def test_staircase_is_vandermonde(self):
        from jackpoly.polyalg import vandermonde
        assert jack.build_S((1, 0)) == vandermonde(2)
        assert jack.build_S((2, 1, 0)) == vandermonde(3)

    def test_simple_product(self):
        assert jack.build_S((2, 0)) == MultiPoly(2, {(2, 0): ONE, (0, 2): -ONE})

    def test_antisymmetry_and_leading_term(self):
        from jackpoly.polyalg import apply_transposition
        for rho_plus in [(2, 0), (3, 1, 0), (4, 2, 1)]:
            n = len(rho_plus)
            s = jack.build_S(rho_plus)
            assert s.terms[rho_plus].is_one()
            for i in range(1, n):
                assert apply_transposition(s, i, i + 1) == -s

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            jack.build_S((1, 1))
        with pytest.raises(ValueError):
            jack.build_S((1, 0, 0))


class TestAsym:
    def test_repeated_parts_vanish(self):
        for rho in [(1, 1), (2, 2, 0), (1, 0, 1)]:
            c, ok = jack.check_asym_formula(rho)
            assert ok and not c

    def test_measured_constants(self):
        c, ok = jack.check_asym_formula((1, 0))
        assert ok and c == A / (A + 1)
        c, ok = jack.check_asym_formula((0, 1))
        assert ok and c == -ONE
        # ratio of the two is -d'(1,0)/d'(0,1)
        assert (A / (A + 1)) / (-ONE) == -scalars.const_dp((1, 0)) / scalars.const_dp((0, 1))

    def test_sign_convention_sweep(self):
        for n in (2, 3):
            delta = cb.staircase(n)
            for ep in cb.partitions_upto(5 - sum(delta), n):
                rho_plus = tuple(p + d for p, d in zip(ep, delta))
                for rho in cb.rearrangements(rho_plus):
                    c, ok = jack.check_asym_formula(rho)
                    assert ok, (rho, str(c))

    def test_du_expansion(self):
        assert jack.check_du_expansion((0, 0), 2)
        assert jack.check_du_expansion((1, 0), 2)
        assert jack.check_du_expansion((0, 0, 0), 3)
        assert jack.check_du_expansion((2, 1, 0), 3)

    def test_du_vandermonde_in_E_basis(self):
        # Delta = E_(1,0) - ((a+2)/(a+1)) E_(0,1) at N=2
        from jackpoly.polyalg import vandermonde
        lhs = vandermonde(2)
        rhs = jack.build_E((1, 0)) - jack.build_E((0, 1)).scale((A + 2) / (A + 1))
        assert lhs == rhs


class TestKernels:
    def test_omega_decomposition(self):
        assert jack.check_omega_decomposition(2, 3)
        assert jack.check_omega_decomposition(3, 2)

    def test_pi_decomposition(self):
        assert jack.check_pi_decomposition(2, 3)
        assert jack.check_pi_decomposition(3, 2)

    def test_corrupted_omega_fails(self):
        from jackpoly.polyalg import omega_truncated
        acc = jack.omega_sum(2, 2)
        e10 = jack.build_E((1, 0))
        acc = acc.add_outer(e10, e10, ONE)
        assert acc != omega_truncated(2, 2)

    def test_binomial(self):
        assert jack.check_binomial(Fraction(0), 2, 2, "bi2")
        assert jack.check_binomial(Fraction(1), 2, 2, "bi2")
        for r in (Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)):
            assert jack.check_binomial(r, 2, 3, "bi2")
            assert jack.check_binomial(r, 2, 3, "bi3")

    def test_binomial_rejects_unknown_form(self):
        with pytest.raises(ValueError):
            jack.check_binomial(Fraction(1), 2, 2, "bi4")
