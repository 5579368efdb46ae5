import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from conftest import perm_sign
from jackpoly import combinat, verify
from jackpoly import polyalg as pa
from jackpoly.qalpha import (ALPHA, ONE, AlphaRational, Factored, alpha_shift, poly_add, poly_mul,
                             unpack)

A = ALPHA
MP = pa.MultiPoly


def _z(i, n):
    return MP.variable(i, n)


def _power_series(nvars, positions, coeffs):
    """sum_m coeffs[m] t^m with t the product of the variables at the
    0-based positions: one factor of the reference products."""
    return MP(nvars, {tuple(m * (i in positions) for i in range(nvars)): c
                      for m, c in enumerate(coeffs)})


def _multiple_of(f, g):
    """c when f == c g, c read off the leading coefficients of f and g, else None."""
    e, lead = g.lead_term()
    c = f.coeff(e) / lead
    return c if f == g.scale(c) else None


def _random_poly(rng, n, max_exp=3, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in range(n))
        terms[e] = AlphaRational.from_fraction(
            Fraction(rng.randrange(-8, 9), rng.randrange(1, 4)))
    return MP(n, terms)


class TestRing:
    def test_product(self):
        z1, z2 = _z(1, 2), _z(2, 2)
        assert (z1 + z2) * (z1 - z2) == MP(2, {(2, 0): ONE, (0, 2): -ONE})

    def test_additive_inverse(self):
        f = _z(1, 2) + _z(2, 2).scale(A)
        assert not (f + (-f))

    def test_scalar(self):
        assert _z(1, 2).scale(A) == MP(2, {(1, 0): A})

    def test_scalar_operand_types(self):
        f = _z(1, 2).scale(A) + _z(2, 2) * 3
        want = MP(2, {e: c * Fraction(3, 2) for e, c in f.terms.items()})
        for c in (Fraction(3, 2), AlphaRational.from_fraction(Fraction(3, 2))):
            assert f * c == want and c * f == want
        assert f * 2 == 2 * f == f + f
        assert f * 0 == 0 * f == MP.zero(2)
        for bad in (0.5, "2"):
            with pytest.raises(TypeError):
                f * bad
            with pytest.raises(TypeError):
                bad * f

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            _z(1, 2) + _z(1, 3)

    def test_truncated_product_and_outer(self):
        rng = random.Random(5)
        for _ in range(5):
            f, g = _random_poly(rng, 3), _random_poly(rng, 3)
            full = (f * g).terms
            for degree in range(13):
                assert f.mul_truncated(g, degree).terms == {
                    e: c for e, c in full.items() if sum(e) <= degree}
        f, g = _z(1, 2) + MP.one(2), _z(1, 1).scale(A)
        assert f.outer(g) == MP(3, {(1, 0, 1): A, (0, 0, 1): A})

    def test_json_round_trip(self):
        f = _z(1, 2).scale(A / (A + 1)) + MP.one(2)
        assert MP.from_json(f.to_json()) == f


class TestText:
    def test_term_layouts(self):
        # constant, bare (c*alpha^k over 1), -1, 1 and parenthesized coefficients
        f = MP(2, {(0, 0): -ONE, (1, 0): 2 * ONE, (0, 1): -3 * A,
                   (1, 1): (A + 1).inverse(), (2, 0): ONE, (0, 2): -ONE})
        assert str(f) == "-1 - 3*α*z2 - z2^2 + 2*z1 + ((1)/(α + 1))*z1*z2 + z1^2"

    def test_zero(self):
        assert str(MP.zero(2)) == "0"

    def test_term_text_fraction(self):
        assert pa.term_text(Fraction(-2), "z1") == "(-2)*z1"
        assert pa.term_text(Fraction(-1), "z1") == "-z1"
        assert pa.term_text(Fraction(1, 3), "") == "1/3"


class TestVariableActions:
    def test_transposition(self):
        assert pa.apply_transposition(MP.monomial((2, 1)), 1, 2) == MP.monomial((1, 2))
        f = MP.monomial((1, 1))
        assert pa.apply_transposition(f, 1, 2) == f
        assert pa.apply_transposition(_z(1, 3), 1, 3) == _z(3, 3)

    def test_permutation(self):
        f = MP.monomial((2, 1, 0))
        assert pa.apply_permutation(f, (1, 2, 0)) == MP.monomial((0, 2, 1))
        for bad in ((0, 0, 1), (0, 1), (0, 1, 3)):
            with pytest.raises(ValueError):
                pa.apply_permutation(f, bad)

    def test_phi(self):
        # the raising step of the Q(alpha) reference chain in test_jack
        from test_jack import apply_phi
        assert apply_phi(MP.one(2)) == _z(2, 2)
        assert apply_phi(_z(2, 2)) == MP.monomial((1, 1))
        assert apply_phi(_z(3, 3)) == MP.monomial((0, 1, 1))

    def test_divided_difference_basics(self):
        assert pa.divided_difference(_z(1, 2), 1, 2) == MP.one(2)
        assert not pa.divided_difference(MP.monomial((1, 1)), 1, 2)
        assert pa.divided_difference(MP.monomial((2, 0)), 1, 2) == _z(1, 2) + _z(2, 2)

    def test_divided_difference_multiply_back(self):
        rng = random.Random(99)
        for n in (2, 3):
            for _ in range(5):
                f = _random_poly(rng, n)
                for i in range(1, n + 1):
                    for p in range(1, n + 1):
                        if i == p:
                            continue
                        dd = pa.divided_difference(f, i, p)
                        assert dd * (_z(i, n) - _z(p, n)) == f - pa.apply_transposition(f, i, p)


class TestOperators:
    def test_cherednik_on_constants(self):
        for n in (2, 3):
            for j in range(1, n + 1):
                assert pa.cherednik_apply(MP.one(n), j) == MP.one(n).scale(
                    AlphaRational.from_fraction(1 - j))

    def test_cherednik_eigen_example(self):
        e10 = _z(1, 2) + _z(2, 2).scale(1 / (A + 1))
        assert pa.cherednik_apply(e10, 1) == e10.scale(A)
        assert pa.cherednik_apply(_z(2, 2), 2) == _z(2, 2).scale(A)

    def test_cherednik_commute(self):
        rng = random.Random(7)
        for n in (2, 3):
            for _ in range(3):
                f = _random_poly(rng, n, max_exp=2, nterms=5)
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        assert (pa.cherednik_apply(pa.cherednik_apply(f, i), j)
                                == pa.cherednik_apply(pa.cherednik_apply(f, j), i))

    def test_d2(self):
        assert not pa.d2_apply(MP.one(2))
        f = _z(1, 2) + _z(2, 2)
        # alpha D2, integral: 2 on the pair term of z1 + z2
        assert _multiple_of(pa.d2_apply(f), f) == 2
        # proportionality forces the known coefficient on the lower orbit
        m2 = pa.monomial_symmetric((2,), 2)
        m11 = pa.monomial_symmetric((1, 1), 2)
        good = m2 + m11.scale(2 / (A + 1))
        assert _multiple_of(pa.d2_apply(good), good) is not None
        bad = m2 + m11
        assert _multiple_of(pa.d2_apply(bad), bad) is None

    def test_d2_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            pa.d2_apply(_z(1, 2))


class TestSymmetrization:
    def test_basics(self):
        assert pa.antisymmetrize(_z(1, 2)) == _z(1, 2) - _z(2, 2)
        assert pa.symmetrize(_z(2, 2)) == _z(1, 2) + _z(2, 2)
        assert not pa.antisymmetrize(MP.monomial((1, 1)))

    def test_projection_scaling(self):
        import math
        rng = random.Random(3)
        for n in (2, 3):
            f = _random_poly(rng, n, max_exp=2, nterms=4)
            fact = math.factorial(n)
            assert pa.symmetrize(pa.symmetrize(f)) == pa.symmetrize(f).scale(fact)
            assert pa.antisymmetrize(pa.antisymmetrize(f)) == pa.antisymmetrize(f).scale(fact)

    def test_asym_pulls_out_symmetric_factor(self):
        rng = random.Random(11)
        n = 3
        f = _random_poly(rng, n, max_exp=2, nterms=4)
        g = pa.monomial_symmetric((1, 1), n) + pa.monomial_symmetric((2,), n)
        assert pa.antisymmetrize(g * f) == g * pa.antisymmetrize(f)

    def test_vandermonde(self):
        assert pa.vandermonde(2) == _z(1, 2) - _z(2, 2)
        assert pa.vandermonde(1) == MP.one(1)
        v3 = pa.vandermonde(3)
        assert len(v3.terms) == 6
        assert v3 == pa.antisymmetrize(MP.monomial((2, 1, 0)))


class TestBases:
    def test_monomial_symmetric(self):
        assert pa.monomial_symmetric((1,), 2) == _z(1, 2) + _z(2, 2)
        assert pa.monomial_symmetric((1, 1), 2) == MP.monomial((1, 1))
        assert pa.monomial_symmetric((2, 1), 2) == MP(2, {(2, 1): ONE, (1, 2): ONE})
        with pytest.raises(ValueError):
            pa.monomial_symmetric((1, 1, 1), 2)


class TestSeries:
    def test_binomial_series(self):
        assert pa.binomial_series(1, 4) == [ONE] * 5
        got = pa.binomial_series(1 / A, 2)
        assert got[2] == (1 / A) * (1 / A + 1) / 2
        assert pa.binomial_series(0, 3) == [ONE, AlphaRational(0), AlphaRational(0), AlphaRational(0)]

    def test_omega_degree_one(self):
        # exponents run x1, x2, y1, y2: the x-polynomial at y^(0, 0) is 1, at
        # y^(1, 0) it is (alpha+1)/alpha x1 + 1/alpha x2, and at y^(0, 1) the
        # mirror image
        om = pa.omega_truncated(2, 1)
        assert om.terms == {
            (0, 0, 0, 0): ONE,
            (1, 0, 1, 0): (A + 1) / A, (0, 1, 1, 0): 1 / A,
            (1, 0, 0, 1): 1 / A, (0, 1, 0, 1): (A + 1) / A}

    def test_pi_degree_one(self):
        pi = pa.pi_truncated(2, 1)
        for xe in ((1, 0), (0, 1)):
            for ye in ((1, 0), (0, 1)):
                assert pi.terms[xe + ye] == 1 / A

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shifted_pi_is_substituted_pi(self, n):
        # reference: the product of the (1 - x_j y_k)^(-(alpha+1)/alpha)
        # series, built at the parameter alpha/(alpha+1) directly
        sh = alpha_shift()
        for bound in range(4):
            series = pa.binomial_series(sh.inverse(), bound)
            ref = MP.one(2 * n)
            for j in range(n):
                for k in range(n):
                    factor = _power_series(2 * n, (j, n + k), series)
                    ref = ref.mul_truncated(factor, 2 * bound)
            got = pa.pi_truncated(n, bound).map_coeff(lambda c: c.substitute(sh))
            assert got == ref

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernels_match_the_series_product(self, n):
        # reference: the product of the series in Q(alpha), one mul_truncated
        # per factor, as the kernels were built before they moved to Z[alpha]
        for bound in range(4):
            series = pa.binomial_series(A.inverse(), bound)
            ref = MP.one(2 * n)
            for j in range(n):
                for k in range(n):
                    ref = ref.mul_truncated(_power_series(2 * n, (j, n + k), series), 2 * bound)
            forms = {e: (c.num, c.den) for e, c in pa.pi_truncated(n, bound).terms.items()}
            assert forms == {e: (c.num, c.den) for e, c in ref.terms.items()}
            for j in range(n):
                ref = ref.mul_truncated(_power_series(2 * n, (j, n + j), [ONE] * (bound + 1)),
                                        2 * bound)
            forms = {e: (c.num, c.den) for e, c in pa.omega_truncated(n, bound).terms.items()}
            assert forms == {e: (c.num, c.den) for e, c in ref.terms.items()}
        with pytest.raises(ValueError):
            pa.omega_truncated(n, -1)

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_packed_kernel_is_the_tuple_route(self, fresh_caches, n, diagonal):
        """Every block of the packed kernel decodes to the numerators the
        tuple route multiplies out in Z[alpha], and each norm is the largest
        l1 norm of its block, for N <= 3 and D <= 4."""
        for bound in range(5):
            k, blocks, norms = pa.kernel_numerators(n, bound, diagonal)
            want = _tuple_kernel_numerators(n, bound, diagonal)
            assert len(blocks) == len(norms) == len(want) == bound + 1
            for block, norm, ref in zip(blocks, norms, want):
                assert all(type(v) is int for v in block.values())
                assert {e: unpack(v, k) for e, v in block.items()} == ref
                assert norm == max(sum(map(abs, c)) for c in ref.values()) < 1 << k - 1
            assert pa.kernel_numerators(n, bound, diagonal) is pa.kernel_numerators(
                n, bound, diagonal)

    def test_rows_leave_the_kept_kernels_unchanged(self, fresh_caches):
        """The kernel rows, the controls and `expand` read the kept blocks
        and write none of them: each kept block is read-only while they
        run, and equal to a copy taken before."""
        rows = ["omega.decomposition", "omega.pairing-diagonal", "pi.decomposition",
                "pi.v-stability", "negative.controls"]
        for name in rows:
            assert verify.CHECKS[name](verify.Bounds()).status == "pass", name
        kept = dict(pa._KERNELS)
        assert len(kept) == 6
        copies = {key: (k, [dict(b) for b in blocks], list(norms))
                  for key, (k, blocks, norms) in kept.items()}
        for key, (k, blocks, norms) in kept.items():
            pa._KERNELS[key] = k, tuple(map(types.MappingProxyType, blocks)), tuple(norms)
        for name in rows:
            assert verify.CHECKS[name](verify.Bounds()).status == "pass", name
        for n in (2, 3):
            pa.omega_truncated(n, 3)
            pa.pi_truncated(n, 3)
        assert set(pa._KERNELS) == set(kept)
        assert {key: (k, list(map(dict, blocks)), list(norms))
                for key, (k, blocks, norms) in pa._KERNELS.items()} == copies

    def test_kernels_and_eigen_row_take_no_polynomial_gcd(self, monkeypatch, fresh_caches):
        """No gcd call with two non-constant operands: the kernels are built
        in Z[alpha], and the eigen row scales E by d exactly and applies
        xi_i over denominator 1."""
        from jackpoly import qalpha
        calls = []
        gcd = qalpha._gcd

        def counted_gcd(a, b):
            if len(a) > 1 and len(b) > 1:
                calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(qalpha, "_gcd", counted_gcd)
        pa.omega_truncated(4, 3)
        pa.pi_truncated(4, 3)
        assert verify.CHECKS["E.eigen-triangular"](verify.Bounds()).status == "pass"
        assert calls == []

    def test_cauchy_double_alternant(self):
        assert verify._cauchy(2, 3) is None
        assert verify._cauchy(3, 2) is None

    def test_cauchy_margins_collapse_the_double_sum(self):
        """Summed once by sorted margin, two alternants give the double sum
        over all N!^2 pairs of permutations, for any K that depends only on
        the sorted margins and is 0 at a negative one."""
        def kernel(a, b):
            if min(a) < 0 or min(b) < 0:
                return 0
            a, b = sorted(a), sorted(b)
            return 1 + sum(i * x * x - 3 * i * y for i, (x, y) in enumerate(zip(a, b), 1))

        for n in (2, 3, 4):
            delta = combinat.staircase(n)
            vandermonde = [(e, c.num[0]) for e, c in pa.vandermonde(n).terms.items()]
            shifts = [(perm_sign(p), [delta[i] for i in p])
                      for p in itertools.permutations(range(n))]
            for d in range(4):
                tops = [tuple(p + q for p, q in zip(lam, delta))
                        for lam in combinat.partitions(d, n)]
                for x, y in itertools.product(tops, repeat=2):
                    full = sum(sx * sy * kernel(tuple(p - q for p, q in zip(x, sd)),
                                                tuple(p - q for p, q in zip(y, td)))
                               for sx, sd in shifts for sy, td in shifts)
                    xs, ys = verify._margins(x, vandermonde), verify._margins(y, vandermonde)
                    assert sum(cx * cy * kernel(a, b) for a, cx in xs.items()
                               for b, cy in ys.items()) == full, (x, y)


def _binomial_product(r, n, bound):
    """prod_j (1 - x_j)^(-r) truncated to total degree <= bound, multiplied
    out one series at a time in Q(alpha): the reference of the closed form
    the binomial rows read."""
    series = pa.binomial_series(r, bound)
    out = MP.one(n)
    for j in range(n):
        out = out.mul_truncated(_power_series(n, (j,), series), bound)
    return out


@pytest.mark.parametrize("r", [Fraction(1), Fraction(2), Fraction(5, 2), Fraction(1, 3)])
def test_binomial_term_is_the_product_coefficient(r):
    """prod_j (r)_(e_j)/e_j! is the coefficient of x^e in the product, at
    every exponent of degree <= 4 in N <= 3 variables."""
    for n in (1, 2, 3):
        want = _binomial_product(r, n, 4).terms
        got = {e: AlphaRational.from_fraction(verify._binomial_term(r, e))
               for e in combinat.compositions_upto(4, n)}
        assert got == want, (r, n)


def _tuple_kernel_numerators(n, bound, diagonal):
    """The kernel's numerators [D! alpha^D K_D for D <= bound] as
    {exponent: int tuple}, multiplied out in Z[alpha] one series at a time:
    prod_{i<m} (1 + i alpha) for each (1 - x_j y_k)^(-1/alpha), m! alpha^m
    for each (1 - x_j y_j)^(-1) when `diagonal`, and x-degrees D1 and D2
    multiplied with binom(D1 + D2, D1).  The reference of the packed route."""
    rising = [Factored((i, 1) for i in range(m)).poly() for m in range(bound + 1)]
    factors = [(j, n + k, rising) for j in range(n) for k in range(n)]
    if diagonal:
        geometric = [(0,) * m + (math.factorial(m),) for m in range(bound + 1)]
        factors += [(j, n + j, geometric) for j in range(n)]
    terms = {(0,) * (2 * n): (1,)}
    for j, k, series in factors:
        out = {}
        for e, c in terms.items():
            deg = sum(e[:n])
            for m in range(bound - deg + 1):
                key = list(e)
                key[j] += m
                key[k] += m
                key = tuple(key)
                v = poly_mul(poly_mul(c, series[m]), (math.comb(deg + m, m),))
                out[key] = poly_add(out[key], v) if key in out else v
        terms = out
    by_degree = [{} for _ in range(bound + 1)]
    for e, c in terms.items():
        by_degree[sum(e[:n])][e] = c
    return by_degree
