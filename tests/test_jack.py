import itertools
from fractions import Fraction

import pytest

from jackpoly import combinat as cb
from jackpoly import jack, polyalg, qalpha, scalars, verify
from jackpoly.polyalg import (MultiPoly, antisymmetrize, apply_transposition, symmetrize,
                              vandermonde)
from jackpoly.qalpha import ALPHA, ONE, AlphaRational, Factored, alpha_shift, unpack

A = ALPHA


def _z(i, n):
    return MultiPoly.variable(i, n)


def _integral(eta):
    """J_eta as (pending, {exponent: int tuple of Z[alpha]}), unpacked."""
    pending, k, terms = jack._packed_integral(eta)
    return pending, {e: unpack(c, k) for e, c in terms.items()}


class TestBuildE:
    def test_small_cases(self):
        assert jack.build_E((0, 1)) == _z(2, 2)
        assert jack.build_E((1, 0)) == _z(1, 2) + _z(2, 2).scale(1 / (A + 1))
        assert jack.build_E((1, 1)) == MultiPoly.monomial((1, 1))

    def test_eigen_and_triangular_sweep(self):
        for n, cap in [(2, 5), (3, 4)]:
            for eta in cb.compositions_upto(cap, n):
                assert verify._E_witness(jack.build_E(eta), eta) is None

    def test_corrupted_fails(self):
        f = jack.build_E((2, 1))
        e, c = f.lead_term()
        bad = MultiPoly(2, {**f.terms, e: c + ONE})
        assert "xi_1 dE" in verify._E_witness(bad, (2, 1))
        # a denominator that d does not clear stays in d E, and the eigen
        # check still fails
        foreign = MultiPoly(2, {**f.terms, e: c + AlphaRational(1, (7, 1))})
        witness = verify._E_witness(foreign, (2, 1))
        assert "xi_1 dE" in witness and "/(α + 7)" in witness
        assert "leading coefficient" in verify._E_witness(
            f.scale(AlphaRational.from_fraction(2)), (2, 1))
        # a monomial above the label breaks triangularity
        above = MultiPoly(3, {**jack.build_E((1, 1, 0)).terms,
                              (2, 0, 0): ONE})
        witness = verify._monic_below("eta=(1, 1, 0)", above, (1, 1, 0),
                                      lambda e: cb.composition_lt(e, (1, 1, 0)))
        assert witness == "eta=(1, 1, 0): monomial (2, 0, 0) not below the label: 1 != 0"
        assert verify._E_witness(above, (1, 1, 0)) is not None

    def test_swap_action_cases(self):
        assert verify._swap_action((1, 1), 1) is None
        assert verify._swap_action((1, 0), 1) is None
        assert verify._swap_action((0, 1), 1) is None
        for n in (2, 3):
            for eta in cb.compositions_upto(3, n):
                for i in range(1, n):
                    assert verify._swap_action(eta, i) is None

    def test_phi_equivariance(self):
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


# ---------------------------------------------------------------------------
# the Q(alpha) construction that the integral chain replaced, kept as the
# reference: E by one field division per swap, P as a Q(alpha) sum
# ---------------------------------------------------------------------------

_QALPHA_E = {}


def apply_phi(f):
    """z_N * f(z_N, z_1, ..., z_{N-1}): shifts exponents cyclically and
    increments the last slot; the raising step of the chain."""
    return MultiPoly._raw(f.nvars, {e[1:] + (e[0] + 1,): c for e, c in f.terms.items()})


def qalpha_chain_E(eta):
    """E_eta by the chain in Q(alpha): raising steps off weakly increasing
    labels, and E_eta = s_i E_mu - (1/delta) E_mu across the first descent
    i, with mu = s_i eta and delta its eigenvalue gap at i."""
    chain = []
    while eta not in _QALPHA_E and any(eta):
        i = next((j for j in range(1, len(eta)) if eta[j - 1] > eta[j]), 0)
        chain.append((eta, i))
        eta = cb.swap_parts(eta, i) if i else (eta[-1] - 1,) + eta[:-1]
    out = _QALPHA_E.get(eta)
    if out is None:
        out = _QALPHA_E[eta] = MultiPoly.one(len(eta))
    for eta, i in reversed(chain):
        if i:
            bars = cb.eigenvalue_vector(cb.swap_parts(eta, i))
            delta = bars[i - 1] - bars[i]
            out = apply_transposition(out, i, i + 1) - out.scale(delta.inverse())
        else:
            out = apply_phi(out)
        _QALPHA_E[eta] = out
    return out


def qalpha_sum_P(kappa):
    """d'(kappa) * sum of E_eta / d'(eta) in Q(alpha) at partition exponents,
    over the reference E, filled to every rearrangement."""
    acc = MultiPoly.zero(len(kappa))
    for eta in cb.rearrangements(kappa):
        dominant = {e: c for e, c in qalpha_chain_E(eta).terms.items() if cb.is_partition(e)}
        acc = acc + MultiPoly(len(kappa), dominant).scale(scalars.const_dp(eta).inverse())
    return jack._fill(len(kappa), acc.scale(scalars.const_dp(kappa)).terms)


def _forms(f):
    return {e: (c.num, c.den) for e, c in f.terms.items()}


def _J(eta):
    """The cached integral form as a polynomial over Q(alpha), its pending
    factors multiplied in."""
    pending, terms = _integral(eta)
    return MultiPoly(len(eta), {e: AlphaRational(c) for e, c in terms.items()}).scale(
        pending.value())


class TestIntegralChain:
    def test_E_matches_the_q_alpha_chain(self):
        for n in range(1, 5):
            for eta in cb.compositions_upto(6, n):
                assert _forms(jack.build_E(eta)) == _forms(qalpha_chain_E(eta)), eta

    def test_P_matches_the_q_alpha_sum(self):
        for n in range(1, 6):
            for kappa in cb.partitions_upto(5, n):
                assert _forms(jack.build_P(kappa)) == _forms(qalpha_sum_P(kappa)), kappa

    def test_J_is_d_times_E(self):
        for n in range(1, 5):
            for eta in cb.compositions_upto(5, n):
                assert _J(eta) == qalpha_chain_E(eta).scale(scalars.const_d(eta)), eta

    def test_raise_step_closed_form(self):
        # J_(Phi nu) = (alpha (nu_1 + 1) + N - #{j > 1: nu_j > nu_1}) Phi J_nu
        for n in range(1, 6):
            for nu in cb.compositions_upto(5, n):
                factor = A * (nu[0] + 1) + (n - sum(1 for p in nu[1:] if p > nu[0]))
                eta = cb.phi_composition(nu)
                assert scalars.const_d(eta) == factor * scalars.const_d(nu), nu
                assert _J(eta) == apply_phi(_J(nu)).scale(factor), nu

    def test_swap_step_closed_form(self):
        # J_eta = (delta s_i J_mu - J_mu) / (delta - 1) at every descent i
        for n in range(2, 6):
            for eta in cb.compositions_upto(6, n):
                for i in range(1, n):
                    if eta[i - 1] <= eta[i]:
                        continue
                    mu = cb.swap_parts(eta, i)
                    bars = cb.eigenvalue_vector(mu)
                    delta = bars[i - 1] - bars[i]
                    j_mu = _J(mu)
                    assert scalars.const_d(eta) * (delta - 1) == scalars.const_d(mu) * delta
                    assert (_J(eta).scale(delta - 1)
                            == apply_transposition(j_mu, i, i + 1).scale(delta) - j_mu), (eta, i)

    def test_raising_factors_stay_pending(self, fresh_caches):
        # J of z^k at N = 1 is d_(k) z^k: the chain keeps d_(k) as its k
        # factors, and E cancels them without multiplying them out
        pending, terms = _integral((50,))
        assert terms == {(50,): (1,)}
        d = scalars.node_ratio((50,), ("d",))
        assert (pending.content, pending.forms) == (d.content, d.forms)
        # a swap step multiplies them in
        pending, terms = _integral((1, 0))
        assert (pending.content, pending.forms) == (1, {})
        assert terms == {(1, 0): (1, 1), (0, 1): (1,)}

    def test_inexact_swap_division_raises(self, fresh_caches, monkeypatch):
        # divide the packed swap numerator by delta + 1 instead of delta - 1:
        # at alpha = 2^K that is the packed divisor plus 2
        monkeypatch.setattr(jack, "divmod", lambda n, d: divmod(n, d + 2), raising=False)
        with pytest.raises(ArithmeticError, match=r"^J_\(1, 0\): .* does not divide by"):
            jack.build_E((1, 0))

    def test_digit_outside_the_bound_raises(self, fresh_caches, monkeypatch):
        # J_(2, 0) = (2 alpha + 2) z1 z2 + ..., so with the digits bounded
        # by 2^1 instead of the chain's bound its swap step fails
        packing = jack._packing
        monkeypatch.setattr(jack, "_packing", lambda eta: (1, packing(eta)[1]))
        assert _integral((1, 0))[1] == {(1, 0): (1, 1), (0, 1): (1,)}
        with pytest.raises(ArithmeticError, match=r"^J_\(2, 0\): .* digit outside"):
            _integral((2, 0))

    def test_orbit_sum_digit_outside_the_bound_raises(self, fresh_caches, monkeypatch):
        # J_(0, 0, 2) is held with every digit 0 or 1, but its terms at
        # (0, 1, 1) and (1, 0, 1) sum to 2 at the partition (1, 1, 0): with
        # the digits bounded by 2^1 once its chain is cached, build_P fails
        assert _integral((0, 0, 2))[1] == {(0, 0, 2): (1, 1), (0, 1, 1): (1,),
                                                (1, 0, 1): (1,)}
        packing = jack._packing
        monkeypatch.setattr(jack, "_packing", lambda eta: (1, packing(eta)[1]))
        with pytest.raises(ArithmeticError, match=r"^P_\(2, 0, 0\): the orbit sum at "
                                                  r"\(1, 1, 0\) has a digit out of bounds$"):
            jack.build_P((2, 0, 0))

    def test_packing_bound_holds_beyond_64_bits(self, fresh_caches):
        # J_(1, 30) has 107-bit coefficients and J_(1, 20) 61-bit ones; K is
        # chosen per label, and the chain of (1, 30) repacks the cached
        # (1, 20), packed at a smaller K, on its way
        for eta, width in [((1, 20), 61), ((1, 30), 107)]:
            terms = _integral(eta)[1]
            assert max(max(c) for c in terms.values()).bit_length() == width
            assert _forms(jack.build_E(eta)) == _forms(qalpha_chain_E(eta)), eta


def _chain(eta):
    """The labels J_eta is built from, eta and the zero label included: a
    descent is removed by a swap, and otherwise eta = Phi(nu) with
    nu = (eta_N - 1, eta_1, ..., eta_(N-1))."""
    out = [eta]
    while any(eta):
        i = next((j for j in range(1, len(eta)) if eta[j - 1] > eta[j]), 0)
        eta = cb.swap_parts(eta, i) if i else (eta[-1] - 1,) + eta[:-1]
        out.append(eta)
    return out


class TestReadTraffic:
    """E and P read J packed and make each coefficient canonical by trial
    division of ints at alpha = 2^K: no synthetic division of int tuples,
    one unpack per canonical coefficient (build_P walks the one chain at
    the increasing rearrangement and has one per partition), and one
    Factored.over call expands each distinct leftover denominator once.
    The labels are the first E label of each E slot and every P label of
    the benchmark's compute-reach."""

    pytestmark = pytest.mark.usefixtures("fresh_caches")

    @staticmethod
    def _unpacks(monkeypatch):
        """The ints unpacked by jack and qalpha, with the tuple divisions of
        qalpha made to raise."""
        unpacked, unpack = [], qalpha.unpack

        def counted(x, k):
            unpacked.append(x)
            return unpack(x, k)

        def synthetic(*args):
            raise AssertionError("a synthetic division of int tuples")

        for module in (jack, qalpha):
            monkeypatch.setattr(module, "unpack", counted)
        for name in ("_div_exact", "_pseudo_rem"):
            monkeypatch.setattr(qalpha, name, synthetic)
        return unpacked

    @pytest.mark.parametrize("kappa", [(3, 2, 1, 1, 0), (4, 1, 1, 0, 0), (5, 2, 0, 0),
                                       (4, 1, 1, 1, 0), (4, 3, 1, 0), (5, 3, 0, 0)])
    def test_build_P_unpacks_only_partition_exponents(self, monkeypatch, kappa):
        unpacked = self._unpacks(monkeypatch)
        jack.build_P(kappa)
        assert set(jack._J_CACHE) == set(_chain(cb.reverse_partition(kappa)))
        # E at the increasing rearrangement reaches every partition below kappa
        below = [mu for mu in cb.partitions(sum(kappa), len(kappa))
                 if cb.dominance_leq(mu, kappa)]
        assert len(unpacked) == len(below)

    @pytest.mark.parametrize("eta", [(2, 4, 2, 0, 0), (4, 2, 0, 2, 0), (4, 2, 2, 0, 0),
                                     (4, 4, 0, 0, 0)])
    def test_build_E_unpacks_once_per_coefficient(self, monkeypatch, eta):
        unpacked = self._unpacks(monkeypatch)
        e = jack.build_E(eta)
        assert len(unpacked) == len(e.terms)

    @pytest.mark.parametrize("eta", [(2, 4, 2, 0, 0), (4, 2, 0, 2, 0), (4, 2, 2, 0, 0),
                                     (4, 4, 0, 0, 0)])
    def test_over_expands_each_leftover_denominator_once(self, monkeypatch, eta):
        pending, k, terms = jack._packed_integral(eta)
        den = scalars.node_ratio(eta, ("d",)) / pending
        expanded, poly = [], Factored.poly

        def counted(self):
            expanded.append((self.content, tuple(sorted(self.forms.items()))))
            return poly(self)

        monkeypatch.setattr(Factored, "poly", counted)
        values = den.over(terms, k)
        assert len(expanded) == len(set(expanded)) == len({v.den for v in values.values()})
        assert len(expanded) < len(terms) / 4


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
                assert verify._two_routes(kappa, n) is None

    @pytest.mark.parametrize("kappa", [(2, 1, 1, 0, 0, 0), (3, 2, 1, 0, 0, 0),
                                       (2, 2, 1, 0, 0, 0, 0)])
    def test_two_routes_beyond_five_variables(self, kappa):
        # the one chain at kappaR against the rearrangement sum over every
        # J_eta, at N = 6 and 7
        assert verify._two_routes(kappa, len(kappa)) is None

    def test_symmetric_eigen_dominance(self):
        for n in (2, 3):
            for kappa in cb.partitions_upto(5, n):
                assert verify._P_witness(jack.build_P(kappa, n), kappa) is None

    def test_corrupted_P_fails(self):
        p = jack.build_P((2, 1), 2)
        e, c = p.lead_term()
        bad = MultiPoly(2, {**p.terms, e: c + ONE})
        assert verify._P_witness(bad, (2, 1)) is not None

    def test_stability(self):
        for kappa in [(1,), (2,), (1, 1), (2, 1), (3, 1)]:
            assert verify._P_stability(kappa, 3) is None

    def test_shifted_parameter(self):
        p = jack.build_P((2, 0), 2)
        # coefficient 2/(a+1) becomes 2(a+1)/(2a+1) under a -> a/(a+1)
        assert p.terms[(1, 1)] == 2 / (A + 1)
        assert p.terms[(1, 1)].substitute(alpha_shift()) == (2 * A + 2) / (2 * A + 1)

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
                assert verify._sym_proportional(eta) is None
        # for the increasing rearrangement the multiple is the stabilizer order
        # (read at the label, where P is monic)
        for eta, stab in (((0, 1, 2), ONE), ((0, 1, 1), 2)):
            kappa = cb.sort_to_partition(eta)
            sym, p = symmetrize(jack.build_E(eta)), jack.build_P(kappa, 3)
            assert p.coeff(kappa) == ONE
            assert sym == p.scale(sym.coeff(kappa)) and sym.coeff(kappa) == stab


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
            assert s.terms[rho_plus] == ONE
            for i in range(1, n):
                assert apply_transposition(s, i, i + 1) == -s

    @pytest.mark.parametrize("rho_plus", [(3, 1, 0), (4, 2, 0), (5, 1, 0), (5, 3, 1, 0)])
    def test_reads_only_the_chain_at_eta_plus_R(self, fresh_caches, monkeypatch, rho_plus):
        # from empty caches S sums the orbit sums of the one chain at eta+R
        # itself: it builds no E and no P, reads no h, and caches only S
        def refused(name):
            def call(*args):
                raise AssertionError(f"build_S called {name}{args}")
            return call

        node_ratio = scalars.node_ratio
        n = len(rho_plus)
        eta_plus = tuple(r - d for r, d in zip(rho_plus, cb.staircase(n)))
        with monkeypatch.context() as m:
            m.setattr(jack, "build_E", refused("build_E"))
            m.setattr(jack, "build_P", refused("build_P"))
            m.setattr(qalpha, "times_multiple", refused("times_multiple"))
            m.setattr(scalars, "node_ratio", lambda eta, up, *rest: (
                refused("node_ratio")(eta, up) if "h" in up else node_ratio(eta, up, *rest)))
            s = jack.build_S(rho_plus)
        assert jack._E_CACHE == {} and jack._P_CACHE == {}
        assert set(jack._J_CACHE) == set(_chain(cb.reverse_partition(eta_plus)))
        assert jack._S_CACHE == {rho_plus: s} and jack.build_S(rho_plus) is s
        assert s == _reference_S(rho_plus)

    def test_orbit_sum_digit_outside_the_bound_raises(self, fresh_caches, monkeypatch):
        # S_(4, 1, 0) reads the chain at eta+R = (0, 0, 2), whose terms at
        # (0, 1, 1) and (1, 0, 1) sum to 2 at (1, 1, 0): with the digits
        # bounded by 2^1 once that chain is cached, build_S fails naming S
        _integral((0, 0, 2))
        packing = jack._packing
        monkeypatch.setattr(jack, "_packing", lambda eta: (1, packing(eta)[1]))
        with pytest.raises(ArithmeticError, match=r"^S_\(4, 1, 0\): the orbit sum at "
                                                  r"\(1, 1, 0\) has a digit out of bounds$"):
            jack.build_S((4, 1, 0))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            jack.build_S((1, 1))
        with pytest.raises(ValueError):
            jack.build_S((1, 0, 0))


def _reference_P(kappa):
    """d'(kappa) * sum over rearrangements eta of E_eta / d'(eta), summed
    over every monomial."""
    acc = MultiPoly.zero(len(kappa))
    for eta in cb.rearrangements(kappa):
        acc = acc + jack.build_E(eta).scale(scalars.const_dp(eta).inverse())
    return acc.scale(scalars.const_dp(kappa))


def _reference_S(rho_plus):
    """The Vandermonde times the full-sum P with every coefficient
    substituted alpha -> alpha/(alpha+1)."""
    n = len(rho_plus)
    eta_plus = tuple(r - d for r, d in zip(rho_plus, cb.staircase(n)))
    shifted = _reference_P(eta_plus).map_coeff(lambda c: c.substitute(alpha_shift()))
    return vandermonde(n) * shifted


class TestDominantFill:
    """build_P and build_S compute only dominant coefficients and fill the
    rest by permutation; they must equal the full sums they replace."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_P_equals_full_sum(self, n):
        for kappa in cb.partitions_upto(5, n):
            assert jack.build_P(kappa, n) == _reference_P(kappa)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_S_equals_vandermonde_times_shifted_P(self, n):
        delta = cb.staircase(n)
        for ep in cb.partitions_upto(4, n):
            rho_plus = tuple(p + d for p, d in zip(ep, delta))
            assert jack.build_S(rho_plus) == _reference_S(rho_plus)

    def test_five_variables(self):
        kappa = (4, 1, 1, 1, 0)
        assert jack.build_P(kappa, 5) == _reference_P(kappa)
        rho_plus = (7, 3, 2, 1, 0)
        assert jack.build_S(rho_plus) == _reference_S(rho_plus)

    def test_broken_fills_are_detected(self, fresh_caches, monkeypatch):
        # S with its permutation signs dropped is symmetric, not a multiple
        # of the antisymmetrized E
        s = jack.build_S((3, 1, 0))
        dominant = {e: c for e, c in s.terms.items() if cb.has_distinct_parts(e)
                    and cb.is_partition(e)}
        unsigned = jack._fill(3, dominant)
        monkeypatch.setattr(jack, "build_S", lambda rho_plus: unsigned)
        witness = verify._asym(jack.build_E((1, 0, 3)), jack.build_S((3, 1, 0)), (1, 0, 3))
        assert witness is not None and witness.startswith("rho=(1, 0, 3): Asym d E vs c' d S")

    @pytest.mark.parametrize("edit, rows", [
        # the ascending rearrangement dropped from every orbit: P is no
        # longer symmetric, and differs from the Gram-Schmidt oracle's
        (lambda walk: walk[1:] or walk,
         {"P.symmetric-eigen-dominance": "kappa=(1, 0): s_1 P vs P",
          "oracle.P-gram-schmidt": "kappa=(1, 0) N=2 k=1"}),
        # its parity flipped: S and Asym take a wrong sign, which the
        # ascending-pair rule of the Asym rows catches
        (lambda walk: ((walk[0][0], 1 - walk[0][1]), *walk[1:]),
         {"asym.proportionality": "rho=(0, 3): Asym d E vs c' d S",
          "asym.du-expansion": "eta+=(0, 0) N=2: d S vs sum over d E"}),
    ], ids=["dropped", "flipped"])
    def test_broken_walk_is_detected(self, fresh_caches, monkeypatch, edit, rows):
        """The one rearrangement walk broken where every orbit reads it: the
        rows with a reference of their own fail and name the label."""
        walk = cb.signed_rearrangements
        for module in (cb, polyalg, jack, verify):
            if hasattr(module, "signed_rearrangements"):
                monkeypatch.setattr(module, "signed_rearrangements",
                                    lambda parts: edit(walk(parts)))
        for name, label in rows.items():
            result = verify.CHECKS[name](verify.Bounds(n_max=3, deg=3))
            assert result.status == "fail" and result.witness.startswith(label), result

    def test_builds_take_no_permutations(self, fresh_caches, monkeypatch):
        def refused(*args):
            raise AssertionError("itertools.permutations reached")
        monkeypatch.setattr(itertools, "permutations", refused)
        # the rearrangements of (2, 2, 1, 1), (2, 1, 1, 1, 1) and (1^6) in 9
        # parts, 756 + 630 + 84, and the 6! of the one key of S
        assert len(jack.build_P((2, 2, 1, 1, 0, 0, 0, 0, 0)).terms) == 1470
        assert len(jack.build_S((6, 4, 3, 2, 1, 0)).terms) == 720


class TestAsym:
    def test_repeated_parts_vanish(self):
        for rho in [(1, 1), (2, 2, 0), (1, 0, 1)]:
            assert verify._asym(jack.build_E(rho), None, rho) is None
            assert not antisymmetrize(jack.build_E(rho))

    def test_measured_constants(self):
        # read at the label (1, 0), where S is monic
        s = jack.build_S((1, 0))
        for rho, want in (((1, 0), A / (A + 1)), ((0, 1), -ONE)):
            assert verify._asym(jack.build_E(rho), s, rho) is None
            asym = antisymmetrize(jack.build_E(rho))
            assert s.coeff((1, 0)) == ONE
            assert asym == s.scale(asym.coeff((1, 0))) and asym.coeff((1, 0)) == want
        # ratio of the two is -d'(1,0)/d'(0,1)
        assert (A / (A + 1)) / (-ONE) == -scalars.const_dp((1, 0)) / scalars.const_dp((0, 1))

    def test_sign_convention_sweep(self):
        for n in (2, 3):
            delta = cb.staircase(n)
            for ep in cb.partitions_upto(5 - sum(delta), n):
                rho_plus = tuple(p + d for p, d in zip(ep, delta))
                for rho in cb.rearrangements(rho_plus):
                    witness = verify._asym(jack.build_E(rho), jack.build_S(rho_plus), rho)
                    assert witness is None, witness

    def test_du_expansion(self):
        for ep in [(0, 0), (1, 0), (0, 0, 0), (2, 1, 0)]:
            rho_plus = tuple(p + d for p, d in zip(ep, cb.staircase(len(ep))))
            assert verify._du_expansion(ep, rho_plus) is None

    def test_du_vandermonde_in_E_basis(self):
        # Delta = E_(1,0) - ((a+2)/(a+1)) E_(0,1) at N=2
        from jackpoly.polyalg import vandermonde
        lhs = vandermonde(2)
        rhs = jack.build_E((1, 0)) - jack.build_E((0, 1)).scale((A + 2) / (A + 1))
        assert lhs == rhs


class TestKernels:
    def test_omega_decomposition(self):
        for n, d in ((2, 3), (3, 2)):
            assert verify.CHECKS["omega.decomposition"].test(n, d) is None

    def test_pi_decomposition(self):
        for n, d in ((2, 3), (3, 2)):
            assert verify.CHECKS["pi.decomposition"].test(n, d) is None

    def test_corrupted_omega_fails(self):
        from jackpoly.polyalg import kernel_numerators
        block, total, k = verify._kernel_block("E", kernel_numerators(2, 2, True), 1)
        block, total = ({e: AlphaRational(unpack(c, k)) for e, c in side.items()}
                        for side in (block, total))
        assert block == total
        e10 = jack.build_E((1, 0))
        assert block != (MultiPoly(4, total) + e10.outer(e10)).terms

    def test_binomial(self):
        assert verify._binomial("E", Fraction(0), 2, 2) is None
        assert verify._binomial("E", Fraction(1), 2, 2) is None
        for r in (Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)):
            assert verify._binomial("E", r, 2, 3) is None
            assert verify._binomial("P", r, 2, 3) is None
