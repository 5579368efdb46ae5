import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from jackpoly import combinat as cb
from jackpoly import jack, oracle, polyalg, scalars, verify
from jackpoly.polyalg import MultiPoly
from jackpoly.qalpha import ALPHA, ONE, AlphaRational, alpha_shift, unpack

F = Fraction


def _double_sum(f, g, w):
    """<f, g> as sum f_mu g_nu w_(mu - nu) over tuple exponents."""
    return sum((cf * cg * w.get(tuple(p - q for p, q in zip(mu, nu)), 0)
                for mu, cf in f.items() for nu, cg in g.items()), F(0))


def _laurent(rng, start, lo, hi, size):
    """A random Laurent polynomial: most monomials are `start` moved by a
    few unit steps z_i -> z_j, so that many pairings of two of them are
    nonzero; the rest have random entries in [lo, hi], so that the
    polynomial is not homogeneous."""
    n = len(start)
    out = {}
    for _ in range(size):
        e = list(start)
        if rng.random() < 0.8:
            for _ in range(rng.randint(0, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                e[i] -= 1
                e[j] += 1
        else:
            e = [rng.randint(lo, hi) for _ in range(n)]
        out[tuple(e)] = F(rng.randint(-9, 9) or 1, rng.randint(1, 5))
    return out


class TestWeight:
    def test_n2_k1(self):
        assert oracle.weight_expand(2, 1) == {
            (0, 0): F(2), (1, -1): F(-1), (-1, 1): F(-1)}

    def test_n1(self):
        assert oracle.weight_expand(1, 3) == {(0,): F(1)}

    def test_n2_k2(self):
        assert oracle.weight_expand(2, 2) == {
            (0, 0): F(6), (1, -1): F(-4), (-1, 1): F(-4),
            (2, -2): F(1), (-2, 2): F(1)}

    def test_balanced(self):
        # every monomial of the weight has exponent sum zero, so pairings of
        # different total degree vanish structurally
        for n, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            assert all(sum(e) == 0 for e in oracle.weight_expand(n, k))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            oracle.weight_expand(2, 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_the_product_of_its_definition(self, n, k):
        # prod_{j != l} (1 - z_j/z_l)^k as 2 C(n, 2) k two-term products
        want = {(0,) * n: 1}
        for j in range(n):
            for l in range(n):
                if j != l:
                    e = [0] * n
                    e[j], e[l] = 1, -1
                    for _ in range(k):
                        step = {}
                        for mu, c in want.items():
                            for nu, d in (((0,) * n, 1), (tuple(e), -1)):
                                key = tuple(p + q for p, q in zip(mu, nu))
                                step[key] = step.get(key, 0) + c * d
                        want = {mu: c for mu, c in step.items() if c}
        got = oracle.weight_expand(n, k)
        assert got == want
        assert all(type(c) is int for c in got.values())

    def test_constant_term_is_dyson(self):
        # CT prod_{j != l} (1 - z_j/z_l)^k = (nk)!/(k!)^n
        for n in range(1, 5):
            for k in range(1, 4):
                assert (oracle.weight_expand(n, k)[(0,) * n]
                        == math.factorial(n * k) // math.factorial(k) ** n)

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (3, 2), (5, 1), (5, 2)])
    def test_equals_the_pairwise_tuple_product(self, n, k):
        # the pair factors (1 - t)^k (1 - 1/t)^k, t = z_j/z_l, multiplied
        # out over tuple keys, at the variable counts the two-term product
        # above leaves out; its constant term is Dyson's (nk)!/(k!)^n
        want = {(0,) * n: 1}
        for j, l in itertools.combinations(range(n), 2):
            factor = {}
            for m in range(2 * k + 1):
                e = [0] * n
                e[j], e[l] = m - k, k - m
                factor[tuple(e)] = (-1) ** (k + m) * math.comb(2 * k, m)
            step = {}
            for mu, c in want.items():
                for nu, d in factor.items():
                    key = tuple(p + q for p, q in zip(mu, nu))
                    step[key] = step.get(key, 0) + c * d
            want = {mu: c for mu, c in step.items() if c}
        assert oracle.weight_expand(n, k) == want
        assert want[(0,) * n] == math.factorial(n * k) // math.factorial(k) ** n


class TestConstantTerm:
    def test_packed_pairing_is_the_double_sum(self):
        # seeded random families at N = 1-5 and k = 1-3 (k <= 2 at N = 5,
        # whose k = 3 weight has 185,041 terms), with negative entries,
        # entries above k(N - 1), non-homogeneous and empty polynomials
        rng = random.Random(1601)
        nonzero = 0
        for _ in range(250):
            n = rng.randint(1, 5)
            k = rng.randint(1, 2 if n == 5 else 3)
            lo, hi = rng.choice(((0, 3), (-4, 2), (-9, 9), (0, 14), (-15, -6)))
            start = [rng.randint(lo, hi) for _ in range(n)]
            fs = {a: _laurent(rng, start, lo, hi, rng.randint(0, 6))
                  for a in range(rng.randint(0, 3))}
            gs = {b: _laurent(rng, start, lo, hi, rng.randint(0, 6))
                  for b in range(rng.randint(0, 3))}
            w = oracle.weight_expand(n, k)
            got = oracle.ct_pairing(fs, gs, n, k)
            assert list(got) == list(fs) and all(list(row) == list(gs) for row in got.values())
            for a, f in fs.items():
                for b, g in gs.items():
                    assert got[a][b] == _double_sum(f, g, w)
                    nonzero += got[a][b] != 0
        assert nonzero > 200

    def test_empty_families_and_polynomials(self):
        f = {(2, -1, 0): F(3, 2), (0, 0, 1): F(1)}
        assert oracle.ct_pairing({}, {"g": f}, 3, 2) == {}
        assert oracle.ct_pairing({"f": f}, {}, 3, 2) == {"f": {}}
        assert oracle.ct_pairing({}, {}, 3, 2) == {}
        for pair in ((f, {}), ({}, f), ({}, {})):
            got = oracle.ct_inner_product(*pair, 3, 2)
            assert got == 0 and isinstance(got, F)

    def test_inputs_that_alias_under_a_smaller_base(self):
        # the difference of two exponents packs to the key of a weight term
        # it is not: in base 2k(N-1) + 1, fitted to the weight alone, and in
        # the power of two fitted to the weight and to only one side of
        # mu - nu, its largest entry or its most negative one
        for n, k, base, mu, nu, alias in (
                (2, 1, 3, (2, 0), (0, 0), (-1, 1)),
                (3, 1, 5, (1, -2, 0), (-2, -2, -1), (-2, 1, 1)),
                (2, 1, 4, (3, 0), (0, 0), (-1, 1)),
                (2, 1, 4, (0, 0), (3, 0), (1, -1)),
                (3, 1, 8, (-1, -1, -1), (-1, 5, 0), (0, 2, -2))):
            diff = tuple(p - q for p, q in zip(mu, nu))
            w = oracle.weight_expand(n, k)
            assert diff not in w and w[alias]
            assert (sum(e * base ** j for j, e in enumerate(diff))
                    == sum(e * base ** j for j, e in enumerate(alias)))
            f, g = {mu: F(1)}, {nu: F(1)}
            assert oracle.ct_inner_product(f, g, n, k) == _double_sum(f, g, w) == 0

    def test_examples(self):
        one = {(0, 0): F(1)}
        z2 = {(0, 1): F(1)}
        p1 = {(1, 0): F(1), (0, 1): F(1)}
        assert oracle.ct_inner_product(one, one, 2, 1) == 2
        assert oracle.ct_inner_product(z2, z2, 2, 1) == 2
        assert oracle.ct_inner_product(p1, p1, 2, 1) == 2

    def test_symmetry(self):
        f = {(2, 0): F(1), (1, 1): F(3, 2)}
        g = {(0, 2): F(-1), (2, 0): F(1, 3)}
        assert (oracle.ct_inner_product(f, g, 2, 1)
                == oracle.ct_inner_product(g, f, 2, 1))

    def test_pairing_is_a_table_of_inner_products(self):
        # a rectangular table with fs != gs, supports that differ and an
        # empty g; each entry is also the double sum sum f_mu g_nu w_(mu-nu)
        fs = {"a": {(2, 0, 1): F(1), (1, 1, 1): F(3, 2)},
              "b": {(0, 2, 1): F(-1), (1, 1, 1): F(1, 3), (3, 0, 0): F(2)},
              "c": {(1, 0, 0): F(2)}}
        gs = {"x": {(0, 2, 1): F(-1), (2, 0, 1): F(1, 3)},
              "y": {(1, 2, 0): F(5), (0, 0, 3): F(-2, 7), (0, 1, 0): F(4)},
              "z": {}}
        for k in (1, 2):
            w = oracle.weight_expand(3, k)
            got = oracle.ct_pairing(fs, gs, 3, k)
            for a, f in fs.items():
                for b, g in gs.items():
                    direct = sum((cf * cg * w.get(tuple(p - q for p, q in zip(mu, nu)), 0)
                                  for mu, cf in f.items() for nu, cg in g.items()), F(0))
                    assert got[a][b] == oracle.ct_inner_product(f, g, 3, k) == direct
            assert list(got) == list(fs) and all(list(row) == list(gs) for row in got.values())
            assert got["a"]["x"] and got["b"]["y"] and not got["c"]["x"]
        empty = oracle.ct_inner_product({}, {}, 3, 1)
        assert empty == 0 and isinstance(empty, F)

    def test_wrong_variable_count_raises(self):
        # the exponents have three entries; a shorter or longer n used to
        # truncate the exponent differences and pair to 0
        f = {(1, 0, 0): F(1), (0, 1, 0): F(1, 3)}
        g = {(1, 0, 0): F(1)}
        assert oracle.ct_inner_product(f, g, 3, 1) == F(16, 3)
        fit = {n: {(0,) * n: F(1)} for n in (2, 4)}
        for n in (2, 4):
            for args in ((f, g), (f, fit[n]), (fit[n], g)):
                with pytest.raises(ValueError, match=rf"exponent \(1, 0, 0\).*n = {n}"):
                    oracle.ct_inner_product(*args, n, 1)
            with pytest.raises(ValueError, match=rf"n = {n}"):
                oracle.ct_norm_ratio(f, n, 1)

    def test_norm_ratio_divides_by_the_weight_constant_term(self):
        one = {(0, 0, 0): F(1)}
        f = {(1, 0, 0): F(1), (0, 1, 0): F(1, 3)}
        for k in (1, 2):
            assert oracle.ct_norm_ratio(one, 3, k) == 1
            assert (oracle.ct_norm_ratio(f, 3, k)
                    == oracle.ct_inner_product(f, f, 3, k) / oracle.ct_inner_product(one, one, 3, k))

    def test_E_orthogonality_and_norms(self):
        for n in (2, 3):
            for k in (1, 2):
                a0 = F(1, k)
                for d in range(4):
                    comps = list(cb.compositions(d, n))
                    spec = {e: jack.build_E(e).specialize(a0) for e in comps}
                    for i, e1 in enumerate(comps):
                        got = oracle.ct_norm_ratio(spec[e1], n, k)
                        assert got == scalars.norm_ratio_E(e1).eval_at(a0)
                        for e2 in comps[i + 1:]:
                            assert oracle.ct_inner_product(spec[e1], spec[e2], n, k) == 0

    def test_P_orthogonality_and_norms(self):
        for n in (2, 3):
            for k in (1, 2):
                a0 = F(1, k)
                for d in range(4):
                    parts = list(cb.partitions(d, n))
                    spec = {p: jack.build_P(p, n).specialize(a0) for p in parts}
                    for i, p1 in enumerate(parts):
                        got = oracle.ct_norm_ratio(spec[p1], n, k)
                        assert got == scalars.norm_ratio_P(p1).eval_at(a0)
                        for p2 in parts[i + 1:]:
                            assert oracle.ct_inner_product(spec[p1], spec[p2], n, k) == 0


class TestLinearSolve:
    def test_examples(self):
        assert oracle.solve_E_linear((1, 0), F(2)) == {(1, 0): F(1), (0, 1): F(1, 3)}
        assert oracle.solve_E_linear((0, 1), F(3)) == {(0, 1): F(1)}

    def test_agreement_with_construction(self):
        for n in (2, 3):
            for eta in cb.compositions_upto(4, n):
                for a0 in (F(2), F(3), F(7, 2)):
                    assert (oracle.solve_E_linear(eta, a0)
                            == jack.build_E(eta).specialize(a0))

    def test_collision_detected(self):
        # alpha = 1 makes (2,0) and (1,1) share some eigenvalue coordinates
        # for at least one composition pair somewhere in the sweep; the
        # detector must either separate or raise, never mis-solve
        for eta in cb.compositions_upto(3, 2):
            try:
                sol = oracle.solve_E_linear(eta, F(1))
            except oracle.EigenvalueCollision:
                continue
            assert sol == jack.build_E(eta).specialize(F(1))

    def test_collision_raises(self):
        # at alpha = 0 every eigenvalue is minus a count, and (1, 0, 2)
        # below the label shares the vector (-1, -2, 0) of (0, 0, 3)
        with pytest.raises(oracle.EigenvalueCollision):
            oracle.solve_E_linear((0, 0, 3), 0)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_residual_rejects_a_term_below_the_label(self, monkeypatch, i):
        # one extra term in the i-th operator's image of the label, at a
        # monomial below it: the equations become inconsistent
        eta = (1, 0, 2)
        below = min((nu for nu in cb.compositions(3, 3) if cb.composition_lt(nu, eta)),
                    key=cb.composition_order_key)
        xi = oracle._q_xi_monomial

        def perturbed(exps, j, p, q):
            out = dict(xi(exps, j, p, q))
            if exps == eta and j == i:
                out[below] = out.get(below, 0) + 1
            return out
        monkeypatch.setattr(oracle, "_q_xi_monomial", perturbed)
        monkeypatch.setattr(oracle, "_IMAGE_CACHE", {})
        monkeypatch.setattr(oracle, "_ANSATZ_CACHE", {})  # the rows are kept per label
        with pytest.raises(ArithmeticError, match="fails at"):
            oracle.solve_E_linear(eta, F(2))

    def test_unseparated_monomial_raises(self, monkeypatch):
        # the diagonal at a monomial below the label replaced by the label's
        # eigenvalues at alpha0 = 2: no operator can fix its coefficient.
        # The solve adds 2 mu_j to the alpha-free image, so that is taken off
        eta, mu = (1, 0, 2), (1, 1, 1)
        bars = cb.eigenvalue_ints(eta, 2, 1)
        xi = oracle._q_xi_monomial

        def perturbed(exps, j, p, q):
            out = dict(xi(exps, j, p, q))
            if exps == mu:
                out[mu] = bars[j - 1] - 2 * mu[j - 1]
            return out
        monkeypatch.setattr(oracle, "_q_xi_monomial", perturbed)
        monkeypatch.setattr(oracle, "_IMAGE_CACHE", {})
        monkeypatch.setattr(oracle, "_ANSATZ_CACHE", {})  # the rows are kept per label
        with pytest.raises(ArithmeticError, match="separates"):
            oracle.solve_E_linear(eta, F(2))

    def test_ansatz_is_built_once_per_label(self, monkeypatch):
        # three parameter values, one of them colliding, enumerate the
        # compositions, take their eigenvalues and read their operator
        # images into the rows once
        monkeypatch.setattr(oracle, "_ANSATZ_CACHE", {})
        calls, reads = [], []
        eigen, image = cb.eigenvalue_ints, oracle._image

        def counted(nu, p, q):
            calls.append(nu)
            return eigen(nu, p, q)

        def read(nu, i):
            reads.append((nu, i))
            return image(nu, i)
        monkeypatch.setattr(cb, "eigenvalue_ints", counted)
        monkeypatch.setattr(oracle, "_image", read)
        eta = (0, 0, 3)
        for a0 in (F(2), F(7, 2)):
            assert oracle.solve_E_linear(eta, a0) == jack.build_E(eta).specialize(a0)
        with pytest.raises(oracle.EigenvalueCollision):
            oracle.solve_E_linear(eta, 0)
        below = [nu for nu in cb.compositions(3, 3) if cb.composition_leq(nu, eta)]
        assert sorted(calls) == sorted(below)
        assert sorted(reads) == sorted((nu, i) for nu in below for i in (1, 2, 3))

    def test_auto_advance(self):
        a0, sol = oracle.solve_E_auto((2, 0, 1))
        assert sol == jack.build_E((2, 0, 1)).specialize(a0)

    @pytest.mark.parametrize("alpha0", [0.5, 2.0, "7/2", complex(2)])
    def test_non_rational_parameter_raises(self, alpha0):
        # a float used to be solved silently at its binary value
        name = type(alpha0).__name__
        with pytest.raises(TypeError, match=f"not {name}"):
            oracle.solve_E_linear((1, 0), alpha0)
        with pytest.raises(TypeError, match=f"not {name}"):
            oracle._xi_monomial((1, 0), 1, alpha0)

    @pytest.mark.parametrize("a0", [F(2), F(7, 2), F(-3, 5)])
    def test_xi_monomial_is_the_int_operator_over_q(self, a0):
        # and both are the symbolic operator specialized at a0
        p, q = a0.numerator, a0.denominator
        for n in (1, 2, 3):
            for e in cb.compositions_upto(4, n):
                for i in range(1, n + 1):
                    scaled = oracle._q_xi_monomial(e, i, p, q)
                    assert all(type(c) is int and c for c in scaled.values())
                    got = oracle._xi_monomial(e, i, a0)
                    assert got == {m: F(c, q) for m, c in scaled.items()}
                    want = polyalg.cherednik_apply(MultiPoly(n, {e: ONE}), i).specialize(a0)
                    assert got == want

    def test_the_elimination_reads_only_ints(self, monkeypatch):
        # every operator entry and eigenvalue handed to the back-substitution
        # is an int, each solve eliminates once, and the rows are the same
        # alpha-free ones at every parameter value
        calls = []
        solve = oracle._solve_exact

        def spy(rows, bars, comps, p, q):
            calls.append(rows)
            assert type(p) is int and type(q) is int and q > 0
            assert all(type(lam) is int for lam in bars)
            assert all(type(c) is int for row in rows for eq in row.values() for c in eq.values())
            return solve(rows, bars, comps, p, q)
        monkeypatch.setattr(oracle, "_solve_exact", spy)
        monkeypatch.setattr(oracle, "_ANSATZ_CACHE", {})
        solves = 0
        for eta in cb.compositions_upto(3, 3):
            for a0 in (F(2), F(7, 2), F(-3, 5), 3):
                assert oracle.solve_E_linear(eta, a0) == jack.build_E(eta).specialize(a0)
                assert calls[-1] is oracle._ANSATZ_CACHE[eta][2]
                solves += 1
        assert len(calls) == solves
        assert len({id(rows) for rows in calls}) == len(oracle._ANSATZ_CACHE)

    def test_rows_are_the_operators_at_alpha_zero(self):
        # q times the operator at p/q is q times the kept row plus p nu_i on
        # the diagonal, against the symbolic operator specialized there
        for eta in ((1, 0, 2), (2, 1, 0), (0, 3)):
            comps, _, rows = oracle._ansatz(eta)
            for a0 in (F(2), F(7, 2)):
                p, q = a0.numerator, a0.denominator
                for i, row in enumerate(rows, start=1):
                    for nu in comps:
                        got = {mono: q * eq[nu] for mono, eq in row.items() if nu in eq}
                        got[nu] = got.get(nu, 0) + p * nu[i - 1]
                        want = polyalg.cherednik_apply(MultiPoly(len(eta), {nu: ONE}), i)
                        assert {m: F(c, q) for m, c in got.items() if c} == want.specialize(a0)


class TestGramSchmidt:
    def test_examples(self):
        assert oracle.gram_schmidt_P((1,), 2, 1) == {(1, 0): F(1), (0, 1): F(1)}
        got = oracle.gram_schmidt_P((2,), 2, 1)
        assert got == {(2, 0): F(1), (0, 2): F(1), (1, 1): F(1)}

    def test_negated_weight_loses_positivity(self, monkeypatch):
        weight = oracle.weight_expand
        monkeypatch.setattr(oracle, "weight_expand",
                            lambda n, k: {e: -c for e, c in weight(n, k).items()})
        with pytest.raises(ArithmeticError, match="lost positive definiteness"):
            oracle.gram_schmidt_P((2,), 2, 1)

    def test_non_integral_gram_matrix_raises(self, monkeypatch):
        # an m-basis Gram matrix has int entries; a table with a half in it
        # is not one, and is refused rather than read by its numerators
        pairing = oracle.ct_pairing

        def plus_half(fs, gs, n, k):
            return {a: {b: c + F(1, 2) for b, c in row.items()}
                    for a, row in pairing(fs, gs, n, k).items()}
        monkeypatch.setattr(oracle, "ct_pairing", plus_half)
        with pytest.raises(ArithmeticError, match="not integral"):
            oracle.gram_schmidt_P((2,), 2, 1)

    def test_bareiss_pivots_are_the_leading_minors(self):
        def det(m):
            m = [[F(c) for c in row] for row in m]
            out = F(1)
            for s in range(len(m)):
                out *= m[s][s]
                for row in m[s + 1:]:
                    f = row[s] / m[s][s]
                    row[:] = [a - f * b for a, b in zip(row, m[s])]
            return out
        mat = [[9, 3, -2, 1], [3, 7, 1, 4], [-2, 1, 8, 2], [1, 4, 2, 11]]
        minors = [det([row[:r] for row in mat[:r]]) for r in range(1, 5)]
        work = [row[:] for row in mat]
        assert oracle._bareiss(work) is None
        assert [work[s][s] for s in range(4)] == minors
        assert all(type(work[s][s]) is int for s in range(4))
        indefinite = [[2, 3], [3, 2]]
        assert oracle._bareiss(indefinite) == 1

    def test_bareiss_raises_rather_than_floors(self):
        # a matrix that is not an int Gram matrix: the first division has a
        # remainder, which floor division would drop to leave pivot 0
        with pytest.raises(ArithmeticError, match="inexact Bareiss division"):
            oracle._bareiss([[2, 1], [1, F(3, 4)]])

    def test_equals_the_fraction_gram_schmidt(self):
        # Gram-Schmidt written out over Fractions, on m-basis coordinates
        def reference(kappa, n, k):
            target = kappa + (0,) * (n - len(kappa))
            shapes = sorted((mu for mu in cb.partitions(sum(kappa), n)
                             if cb.dominance_leq(mu, target)), key=cb.dominance_key)
            ms = {mu: {e: F(1) for e in set(itertools.permutations(mu))} for mu in shapes}
            gram = oracle.ct_pairing(ms, ms, n, k)
            built = []
            for mu in shapes:
                v = {mu: F(1)}
                for w, norm_w in built:
                    c = sum(v.get(a, 0) * gram[a][b] * w[b] for a in v for b in w) / norm_w
                    for b, cb_ in w.items():
                        v[b] = v.get(b, 0) - c * cb_
                norm_v = sum(v[a] * gram[a][b] * v[b] for a in v for b in v)
                assert norm_v > 0
                built.append((v, norm_v))
            return {e: c for shape, c in v.items() if c for e in ms[shape]}

        for n in (1, 2, 3):
            for kappa in cb.partitions_upto(6, n):
                kk = tuple(p for p in kappa if p)
                for k in (1, 2, 3):
                    assert oracle.gram_schmidt_P(kk or (0,), n, k) == reference(kk, n, k)

    def test_orbit_gram_matrix_is_the_full_pairing(self):
        # one monomial per row scaled by its orbit size, against reading
        # every monomial of every m
        for n in range(1, 5):
            for d in range(6):
                shapes = sorted(cb.partitions(d, n), key=cb.dominance_key)
                for k in (1, 2, 3):
                    ms, mat = oracle._gram_matrix(shapes, n, k)
                    full = oracle.ct_pairing(ms, ms, n, k)
                    assert mat == [[full[a][b] for b in shapes] for a in shapes]
                    assert all(type(c) is int for row in mat for c in row)

    def test_does_not_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            oracle.gram_schmidt_P((1, 1, 1), 2, 1)

    def test_agreement_with_construction(self):
        for n in (2, 3):
            for kappa in cb.partitions_upto(4, n):
                kk = tuple(p for p in kappa if p) or (0,)
                for k in (1, 2):
                    assert (oracle.gram_schmidt_P(kk, n, k)
                            == jack.build_P(kappa, n).specialize(F(1, k)))


def _decoded(block):
    """Both sides of a _kernel_block, each int decoded at the block's point."""
    *sides, k = block
    return tuple({e: AlphaRational(unpack(c, k)) for e, c in side.items()} for side in sides)


def _E_block(n, bound, d):
    """The degree-d block of the truncated Omega kernel and of its sum over
    the E basis, both times the block's multiple M, from the helper the
    kernel rows read."""
    return _decoded(verify._kernel_block("E", polyalg.kernel_numerators(n, bound, True), d))


class TestSeriesExtraction:
    """Each kernel pairs its own family diagonally, with the inverse norms
    on the diagonal."""

    def test_u_examples(self):
        zero = (0,) * 4
        # at degree 0 the block's multiple M and the norm u are both 1
        assert _E_block(2, 1, 0) == ({zero: ONE}, {zero: ONE})
        # at degree 1, M is the lcm of 1! alpha and d d', which is
        # alpha (alpha + 1) at (1, 0) and alpha (alpha + 2) at (0, 1); (1, 0)
        # is the top label of its block, so no other E reaches
        # x^(1, 0) y^(1, 0) and the cleared kernel holds M/u there alone
        m, _ = verify._kernel_sum("E", 2, 1)
        assert m.value() == ALPHA * (ALPHA + 1) * (ALPHA + 2)
        block, total = _E_block(2, 2, 1)
        assert (block[(1, 0, 1, 0)] == m.value() / scalars.u_eta((1, 0))
                == (ALPHA + 1) ** 2 * (ALPHA + 2))
        assert block == total

    def test_u_sweep(self):
        for n, bound in [(2, 3), (3, 2)]:
            for d in range(bound + 1):
                block, total = _E_block(n, bound, d)
                assert block == total
                for eta in cb.compositions(d, n):
                    got, want, _ = verify._slice(eta, (block, total, None))
                    assert got and got == want

    def test_v_stability(self):
        # Pi in 2 and in 3 variables is the sum of P x P / v, and v is one
        # value per partition, whatever its padding
        kernels = {n: polyalg.kernel_numerators(n, 3, False) for n in (2, 3)}
        for d in range(4):
            for kernel in kernels.values():
                block, total = _decoded(verify._kernel_block("P", kernel, d))
                assert block == total
            for kappa in cb.partitions(d, 2):
                assert scalars.v_kappa(kappa + (0,)) == scalars.v_kappa(kappa)

    def test_v_stability_row_pairs_consecutive_N(self):
        # each partition is compared in N - 1 and N variables only, so a
        # partition with N - 1 parts is never asked for in fewer variables
        row = dataclasses.replace(verify.CHECKS["pi.v-stability"], ns=(2, 4))
        result = row(verify.Bounds(n_max=4, deg=3))
        assert result.status == "pass", result.witness
        assert result.params["N"] == [2, 3, 4] and result.cases == 6 + 7


class TestAntisymmetricNorms:
    def test_desk_scale_reconciliation(self):
        # weight exponent 2 for S at parameter 1 equals weight exponent 4
        # for the shifted P, matching both closed forms and the staircase
        # normalization bridge
        n = 2
        sh = alpha_shift()
        for ep in [(0, 0), (1, 0)]:
            rho_plus = tuple(p + d for p, d in zip(ep, cb.staircase(n)))
            s_spec = jack.build_S(rho_plus).specialize(F(1))
            shifted = jack.build_P(ep, n).map_coeff(lambda c: c.substitute(sh))
            p_spec = shifted.specialize(F(1))
            assert (oracle.ct_inner_product(s_spec, s_spec, n, 1)
                    == oracle.ct_inner_product(p_spec, p_spec, n, 2))
            rho_r = cb.reverse_partition(rho_plus)
            white = (math.factorial(n) * scalars.const_dp(rho_r)
                     * scalars.const_e(rho_plus)
                     / (scalars.const_d(rho_plus) * scalars.const_ep(rho_plus)))
            assert oracle.ct_norm_ratio(s_spec, n, 1) == white.eval_at(1)
            black = scalars.norm_ratio_P(ep).substitute(sh)
            assert oracle.ct_norm_ratio(p_spec, n, 2) == black.eval_at(1)
        one = {(0, 0): F(1)}
        bridge = (oracle.ct_inner_product(one, one, n, 2)
                  / oracle.ct_inner_product(one, one, n, 1))
        assert bridge == (math.factorial(n) * scalars.staircase_norm_ratio(n).value()).eval_at(1)
