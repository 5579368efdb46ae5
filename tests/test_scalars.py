import ast
import inspect
import math
import random
from fractions import Fraction

import pytest

from jackpoly import combinat as cb
from jackpoly import qalpha
from jackpoly import scalars as sc
from jackpoly import verify
from jackpoly.polyalg import MultiPoly
from jackpoly.qalpha import ALPHA, ONE, ZERO, AlphaRational, Factored, alpha_shift

A = ALPHA
NODE_PRODUCTS = {"d": sc.const_d, "dp": sc.const_dp, "e": sc.const_e,
                 "ep": sc.const_ep, "b": sc.const_b, "h": sc.const_h}
# the factor alpha*a + b of each node product, as (a, b) at node s of an N-part label
NODE_FACTORS = {
    "d": lambda s, n: (s.arm + 1, s.leg + 1),
    "dp": lambda s, n: (s.arm + 1, s.leg),
    "e": lambda s, n: (s.arm_co + 1, n - s.leg_co),
    "ep": lambda s, n: (s.arm_co + 1, n - 1 - s.leg_co),
    "b": lambda s, n: (s.arm_co, n - s.leg_co),
    "h": lambda s, n: (s.arm, s.leg + 1),
}


def q_alpha_product(pairs):
    """prod of alpha*a + b multiplied one factor at a time in Q(alpha): the
    reference that the factored products are checked against."""
    out = ONE
    for a, b in pairs:
        out = out * (A * a + b)
    return out


def gen_factorial(u, kappa) -> AlphaRational:
    """Rising-factorial product over the rows of a padded partition,
    prod_j prod_{i=0}^{kappa_j - 1} (u - (j-1)/alpha + i), one factor at a
    time in Q(alpha): the reference that binomial_coeff is checked against."""
    if isinstance(u, (int, Fraction)):
        u = AlphaRational.from_fraction(u)
    ainv = ALPHA.inverse()
    out = ONE
    for j, kj in enumerate(kappa, start=1):
        base = u - ainv * (j - 1)
        for i in range(kj):
            out = out * (base + i)
    return out


def same_form(x, y):
    return (x.num, x.den) == (y.num, y.den)


class TestField:
    def test_field_ops(self):
        assert A / (A + 1) + 1 / (A + 1) == ONE
        assert (A + 2) / (A + 1) * (A + 1) == A + 2
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_reduction(self):
        assert (A ** 2 - 1) / (A - 1) == A + 1
        assert AlphaRational((2, 4), (6,)) == (A * 2 + 1) / 3

    def test_eval_at(self):
        assert (A / (A + 1)).eval_at(1) == Fraction(1, 2)
        assert (A + 2).eval_at(Fraction(1, 3)) == Fraction(7, 3)
        with pytest.raises(ZeroDivisionError):
            (1 / (A - 1)).eval_at(1)

    def test_eval_is_homomorphism(self):
        rng = random.Random(5)
        elems = [A, A + 3, 1 / (A + 2), (A ** 2 - 2) / (3 * A + 1)]
        for _ in range(20):
            x, y = rng.choice(elems), rng.choice(elems)
            a0 = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
            assert (x * y).eval_at(a0) == x.eval_at(a0) * y.eval_at(a0)
            assert (x + y).eval_at(a0) == x.eval_at(a0) + y.eval_at(a0)

    def test_substitute(self):
        sh = alpha_shift()
        assert A.substitute(sh) == sh
        assert (1 / A).substitute(sh) == (A + 1) / A
        assert ((A + 1) / A).substitute(sh) == (2 * A + 1) / A

    def test_substitute_commutes_with_ops(self):
        sh = alpha_shift()
        x = (A + 2) / (3 * A - 1)
        y = A ** 2 + 1
        assert (x * y).substitute(sh) == x.substitute(sh) * y.substitute(sh)
        assert (x - y).substitute(sh) == x.substitute(sh) - y.substitute(sh)
        assert x.inverse().substitute(sh) == x.substitute(sh).inverse()

    def test_json_round_trip(self):
        x = (3 * A ** 2 - 1) / (A + 4)
        assert AlphaRational.from_json(x.to_json()) == x

    def test_constants_hash_as_their_value(self):
        # equal objects must hash equal: a constant element is equal to its
        # int or Fraction, and so is a polynomial with such coefficients
        for q in (0, 1, -3, Fraction(2, 7), Fraction(-5, 3)):
            x = AlphaRational.from_fraction(q)
            assert x == q and hash(x) == hash(q)
        assert {1: "x"}.get(ONE) == "x"
        assert len({ONE, 1}) == 1
        f, g = MultiPoly(2, {(1, 0): ONE}), MultiPoly(2, {(1, 0): 1})
        assert f == g and hash(f) == hash(g)

    def test_linear_product(self):
        assert same_form(Factored([]).value(), ONE)
        assert same_form(Factored([(2, 4), (0, -3)]).value(), -6 * A - 12)
        assert same_form(Factored([(1, 1), (0, 0)]).value(), ZERO)


class TestConstants:
    def test_single_node_values(self):
        for n in (2, 3, 5):
            eta = (0,) * (n - 1) + (1,)
            assert sc.const_d(eta) == A + n
            assert sc.const_e(eta) == A + n
            assert sc.eval_E_at_ones(eta) == ONE
        assert sc.const_dp((1, 0)) == A
        assert sc.const_dp((0, 1)) == A + 1

    def test_empty_diagram(self):
        eta = (0, 0, 0)
        for const in NODE_PRODUCTS.values():
            assert const(eta) == ONE

    def test_h_requires_partition(self):
        with pytest.raises(ValueError):
            sc.const_h((0, 1))

    def test_e_depends_only_on_shape(self):
        for n in (2, 3):
            for eta in cb.compositions_upto(4, n):
                ep = cb.sort_to_partition(eta)
                assert sc.const_e(eta) == sc.const_e(ep)
                assert sc.const_ep(eta) == sc.const_ep(ep)
                assert sc.const_b(eta) == sc.const_b(ep)

    def test_node_products_match_q_alpha_loop(self):
        for n in (1, 2, 3, 4):
            for eta in cb.compositions_upto(6, n):
                for kind, factor in NODE_FACTORS.items():
                    if kind == "h" and not cb.is_partition(eta):
                        continue
                    want = q_alpha_product(factor(s, n) for s in cb.diagram_nodes(eta))
                    assert same_form(NODE_PRODUCTS[kind](eta), want), (kind, eta)
        kappa = verify.FIG2_SHAPE
        want = q_alpha_product(NODE_FACTORS["h"](s, len(kappa)) for s in cb.diagram_nodes(kappa))
        assert same_form(sc.const_h(kappa), want)

    def test_shifted_value_is_a_substitution(self):
        # each node product formed directly at alpha' = alpha/(alpha+1)
        # equals the product formed at alpha, composed with alpha -> alpha'
        sh = alpha_shift()
        for n in (2, 3):
            for eta in cb.compositions_upto(5, n):
                for kind, factor in NODE_FACTORS.items():
                    if kind == "h" and not cb.is_partition(eta):
                        continue
                    direct = ONE
                    for s in cb.diagram_nodes(eta):
                        a, b = factor(s, n)
                        direct = direct * (sh * a + b)
                    assert direct == NODE_PRODUCTS[kind](eta).substitute(sh), (kind, eta)

    def test_no_alpha_parameter(self):
        # a value at another parameter is a substitution, not an argument
        tree = ast.parse(inspect.getsource(sc))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                names = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
                assert "alpha" not in names, getattr(fn, "name", "lambda")

    def test_gen_factorial_empty(self):
        assert gen_factorial(Fraction(7, 2), (0, 0, 0)) == ONE

    def test_gen_factorial_identities(self):
        for n in (2, 3, 4):
            for eta in cb.compositions_upto(5 if n < 4 else 3, n):
                ep = cb.sort_to_partition(eta)
                m = sum(eta)
                assert A ** m * gen_factorial((A + n) / A, ep) == sc.const_e(eta)
                assert A ** m * gen_factorial((A + n - 1) / A, ep) == sc.const_ep(eta)
                assert A ** m * gen_factorial((ONE * n) / A, ep) == sc.const_b(eta)


class TestFormulas:
    def test_eval_E_at_ones(self):
        assert sc.eval_E_at_ones((1, 0, 0)) == (A + 3) / (A + 1)
        assert sc.eval_E_at_ones((0, 0)) == ONE

    def test_norm_ratio_E(self):
        assert sc.norm_ratio_E((0, 0, 1)) == ONE
        assert sc.norm_ratio_E((0, 0)) == ONE
        assert sc.norm_ratio_E((1, 0)) == A * (A + 2) / (A + 1) ** 2

    def test_u_eta(self):
        assert sc.u_eta((1, 0)) == A / (A + 1)
        assert sc.u_eta((0, 1)) == (A + 1) / (A + 2)
        assert sc.u_eta((0, 0, 0)) == ONE

    def test_eval_P_at_ones(self):
        assert sc.eval_P_at_ones((1, 0, 0, 0)) == 4
        assert sc.eval_P_at_ones((2, 0)) == 2 * (A + 2) / (A + 1)
        assert sc.eval_P_at_ones((1, 1)) == ONE

    def test_norm_ratio_P(self):
        assert sc.norm_ratio_P((1, 0)) == 2 * A / (A + 1)
        assert sc.norm_ratio_P((1, 0, 0)) == 3 * A / (A + 2)
        assert sc.norm_ratio_P((0, 0)) == ONE

    def test_v_kappa(self):
        assert sc.v_kappa((1, 0)) == A
        assert sc.v_kappa((0, 0)) == ONE
        assert sc.v_kappa((2, 0)) == 2 * A ** 2 / (A + 1)

    def test_P_value_forms_agree(self):
        for n in (2, 3, 4):
            for kappa in cb.partitions_upto(6, n):
                assert verify._value_and_hook(kappa, True) is None


class TestHookAndSociety:
    def test_hook_small(self):
        assert verify._value_and_hook((1, 0), False) is None
        assert verify._value_and_hook((1, 1), False) is None

    def test_hook_sweep(self):
        for n in (2, 3, 4):
            for kappa in cb.partitions_upto(6, n):
                assert verify._value_and_hook(kappa, False) is None

    def test_hook_large_shape(self):
        assert verify._value_and_hook((8, 7, 7, 4, 3, 3, 2, 1, 0), False) is None

    def test_society_identities(self):
        assert verify._society((0, 0), (1, 0)) is None
        assert verify._society((1, 0), (2, 0)) is None
        for n in (2, 3, 4):
            for ep, rho_plus in verify._staircase_shapes(n, 5 + n * (n - 1) // 2):
                assert verify._society(ep, rho_plus) is None

    def test_staircase_norm_ratio(self):
        assert sc.staircase_norm_ratio(2).value() == (A + 2) / (A + 1)
        for n in range(1, 10):
            want = (q_alpha_product((j, n) for j in range(1, n + 1))
                    / ((A + 1) ** n * math.factorial(n)))
            assert same_form(sc.staircase_norm_ratio(n).value(), want), n

    def test_hook_denominator_matches_q_alpha_loop(self):
        # the product prod_j (alpha*kappa_j + N - j + 1) of verify's hook identity
        kappas = [k for n in (1, 2, 3, 4) for k in cb.partitions_upto(6, n)]
        for kappa in kappas + [verify.FIG2_SHAPE]:
            n = len(kappa)
            pairs = [(part, n - j + 1) for j, part in enumerate(kappa, start=1)]
            assert same_form(Factored(pairs).value(), q_alpha_product(pairs)), kappa

    def test_binomial_coeff_matches_paper_forms(self):
        # alpha^|eta| [r]_(eta+) / (u_eta d_eta) on compositions and
        # alpha^|kappa| [r]_kappa / (v_kappa h_kappa) on partitions
        for r in (1, 2, Fraction(5, 2), Fraction(-3, 7)):
            for n in (1, 2, 3, 4):
                for eta in cb.compositions_upto(5, n):
                    kappa = cb.sort_to_partition(eta)
                    rising = A ** sum(eta) * gen_factorial(r, kappa)
                    got = sc.binomial_coeff(r, eta)
                    assert same_form(got, rising / (sc.u_eta(eta) * sc.const_d(eta))), (r, eta)
                    if eta == kappa:
                        assert same_form(got, rising / (sc.v_kappa(kappa) * sc.const_h(kappa))), (r, kappa)

    def test_norm_reconciliation(self):
        assert verify._norm_reconciliation((0, 0), (1, 0)) is None
        assert verify._norm_reconciliation((1, 0), (2, 0)) is None
        for n in (2, 3):
            for ep, rho_plus in verify._staircase_shapes(n, 4 + n * (n - 1) // 2):
                assert verify._norm_reconciliation(ep, rho_plus) is None


class TestCRho:
    def test_forms_agree(self):
        for n in (2, 3):
            delta = cb.staircase(n)
            for ep in cb.partitions_upto(6 - sum(delta), n):
                rho_plus = tuple(p + d for p, d in zip(ep, delta))
                for rho in cb.rearrangements(rho_plus):
                    assert sc.c_rho(rho, "shifted-shape") == sc.c_rho(rho, "rearrangement")

    def test_increasing_index_gives_global_sign(self):
        # weakly increasing rho: both closed forms collapse to the sign
        for rho in [(0, 1), (0, 1, 2), (1, 2, 4)]:
            n = len(rho)
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            assert sc.c_rho(rho) == AlphaRational.from_fraction(sign)

    def test_staircase_magnitude(self):
        assert sc.c_rho((1, 0)) == -A / (A + 1)
        assert sc.c_rho_resolved((1, 0)) == A / (A + 1)

    def test_rejects_repeated_parts(self):
        with pytest.raises(ValueError):
            sc.c_rho((1, 1))


# ---------------------------------------------------------------------------
# the factored closed forms against one-factor-at-a-time Q(alpha) arithmetic
# ---------------------------------------------------------------------------

BOUNDS = verify.Bounds()
# every label of the default sweep, N = 1 included, and the 9-part shape
SWEEP = [eta for n in range(1, BOUNDS.n_max + 1)
         for eta in cb.compositions_upto(BOUNDS.deg, n)] + [verify.FIG2_SHAPE]
# r = 0 puts the zero factor (0, 0) into [r]_kappa, and r = -1 factors
# with a <= 0 and b < 0; the constant factors (a = 0) come from b at
# every node of the first column
BINOMIAL_RS = (1, 2, 3, Fraction(5, 2), 0, -1, Fraction(-3, 7))


def reference_forms(eta):
    """Every closed form of `scalars` at eta, as {name: (got, want)}, with
    want built from node products taken one factor at a time and combined
    by Q(alpha) products and quotients."""
    n = len(eta)
    is_partition = cb.is_partition(eta)

    def node(kind, label):
        return q_alpha_product(NODE_FACTORS[kind](s, n) for s in cb.diagram_nodes(label))

    d, dp, e, ep, b = (node(k, eta) for k in ("d", "dp", "e", "ep", "b"))
    out = {"d": (sc.const_d(eta), d), "dp": (sc.const_dp(eta), dp),
           "e": (sc.const_e(eta), e), "ep": (sc.const_ep(eta), ep),
           "b": (sc.const_b(eta), b),
           "E(1)": (sc.eval_E_at_ones(eta), e / d),
           "norm_E": (sc.norm_ratio_E(eta), dp * e / (d * ep)),
           "u": (sc.u_eta(eta), dp / d)}
    kappa = cb.sort_to_partition(eta)
    for r in BINOMIAL_RS:
        out[f"binomial r={r}"] = (sc.binomial_coeff(r, eta),
                                  A ** sum(eta) * gen_factorial(r, kappa) / dp)
    if is_partition:
        h = node("h", eta)
        rev = cb.reverse_partition(eta)
        stab = Fraction(math.factorial(n), cb.stabilizer_order(eta))
        e_r, d_r, ep_r = (node(k, rev) for k in ("e", "d", "ep"))
        out.update({"h": (sc.const_h(eta), h),
                    "P(1)": (sc.eval_P_at_ones(eta), b / h),
                    "P(1) sym route": (sc.P_at_ones_forms(eta)[1].value(), stab * e_r / d_r),
                    "norm_P": (sc.norm_ratio_P(eta), b * dp / (ep * h)),
                    "norm_P sym route": (sc.norm_ratio_P_forms(eta)[1].value(),
                                         stab * dp * e_r / (d_r * ep_r)),
                    "v": (sc.v_kappa(eta), dp / h)})
    if cb.has_distinct_parts(eta):
        dp_r = node("dp", cb.reverse_partition(eta))
        resolved = -1 if cb.ascending_pair_count(eta) % 2 else 1
        rearranged = -1 if (n * (n - 1) // 2) % 2 else 1
        out["c_rho_resolved"] = (sc.c_rho_resolved(eta), resolved * dp / dp_r)
        out["c_rho"] = (sc.c_rho(eta), rearranged * dp / dp_r)
    return out


class TestFactoredAgainstQAlpha:
    def test_every_closed_form_on_the_default_sweep(self):
        kinds = set()
        for eta in SWEEP:
            for name, (got, want) in reference_forms(eta).items():
                assert same_form(got, want), (name, eta)
                kinds.add(name)
        assert {"h", "v", "c_rho", "norm_P sym route", "binomial r=-3/7"} <= kinds
        # by hand: the zero factor at r = 0; at r = -1 the factors -alpha
        # and -alpha - 1, (a, b) = (-1, 0) and (-1, -1), over d' = alpha (alpha + 1)
        assert same_form(sc.binomial_coeff(0, (2, 1)), ZERO)
        assert same_form(sc.binomial_coeff(-1, (0, 1)), -A / (A + 1))
        assert same_form(sc.binomial_coeff(-1, (1, 1)), ONE)

    def test_closed_forms_take_no_gcd(self, monkeypatch):
        # each closed form is one factored ratio made canonical by value(),
        # at alpha or shifted to alpha/(alpha+1), so no polynomial gcd is
        # ever taken
        calls = []
        real = qalpha._gcd

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(qalpha, "_gcd", counted)
        for eta in SWEEP:
            for f in (sc.const_d, sc.const_dp, sc.const_e, sc.const_ep, sc.const_b,
                      sc.u_eta, sc.eval_E_at_ones, sc.norm_ratio_E):
                f(eta)
            for r in BINOMIAL_RS:
                sc.binomial_coeff(r, eta)
            if cb.is_partition(eta):
                for f in (sc.const_h, sc.v_kappa, sc.eval_P_at_ones, sc.norm_ratio_P):
                    f(eta)
                for form in (*sc.P_at_ones_forms(eta), *sc.norm_ratio_P_forms(eta)):
                    form.value()
            if cb.has_distinct_parts(eta):
                sc.c_rho_resolved(eta)
                sc.c_rho(eta, "shifted-shape")
        for n in range(1, 10):
            sc.staircase_norm_ratio(n).value()
        assert calls == []
        # the wrapper sees a Q(alpha) quotient that needs one
        assert (A ** 2 - 1) / (A - 1) == A + 1 and calls
