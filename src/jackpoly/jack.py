"""Construction of the three Jack families and the identity checks on them.

build_E produces the non-symmetric polynomial for a composition by peeling
the raising map off weakly increasing indices and removing descents through
the adjacent-transposition action; every step is division-free except for
one field division by an eigenvalue gap.  build_P assembles the symmetric
polynomial from the non-symmetric family, and build_S multiplies a
parameter-shifted P by the Vandermonde factor.  Results are cached by label
and never mutated.
"""

from __future__ import annotations

from fractions import Fraction

from . import combinat, scalars
from .polyalg import (BiPoly, MultiPoly, antisymmetrize, apply_transposition,
                      apply_phi, binomial_series, cherednik_apply, d2_apply,
                      exact_scalar_ratio, is_symmetric, omega_truncated,
                      pi_truncated, symmetrize, vandermonde)
from .qalpha import ALPHA, ONE, ZERO, AlphaRational, alpha_shift

_E_CACHE: dict = {}
_P_CACHE: dict = {}


def clear_caches():
    _E_CACHE.clear()
    _P_CACHE.clear()


# ---------------------------------------------------------------------------
# the non-symmetric family
# ---------------------------------------------------------------------------

def build_E(eta) -> MultiPoly:
    """The monic polynomial with leading monomial z^eta that is a joint
    eigenfunction of the commuting first-order operators."""
    eta = combinat.as_composition(eta)
    cached = _E_CACHE.get(eta)
    if cached is not None:
        return cached
    n = len(eta)
    if not any(eta):
        out = MultiPoly.one(n)
    elif all(eta[i] <= eta[i + 1] for i in range(n - 1)):
        # weakly increasing: eta = Phi(nu) with nu = (eta_N - 1, eta_1, ...)
        nu = (eta[-1] - 1,) + eta[:-1]
        out = apply_phi(build_E(nu))
    else:
        # remove the first descent: mu = s_i eta is ascending at i, and
        # E_eta = s_i E_mu - (1/delta_i(mu)) E_mu
        i = next(j for j in range(1, n) if eta[j - 1] > eta[j])
        mu = combinat.swap_parts(eta, i)
        e_mu = build_E(mu)
        bars = combinat.eigenvalue_vector(mu)
        delta = bars[i - 1] - bars[i]
        if not delta:
            raise ArithmeticError(f"vanishing eigenvalue gap at {mu}, i={i}")
        out = apply_transposition(e_mu, i, i + 1) - e_mu.scale(delta.inverse())
    _E_CACHE[eta] = out
    return out


def eigen_ok(f: MultiPoly, eta) -> bool:
    """Joint eigen-equation for all operator indices against the stated
    eigenvalues."""
    bars = combinat.eigenvalue_vector(eta)
    for i in range(1, len(eta) + 1):
        if cherednik_apply(f, i) != f.scale(bars[i - 1]):
            return False
    return True


def triangular_ok(f: MultiPoly, eta) -> bool:
    """Leading coefficient 1 and all other monomials strictly below eta."""
    eta = tuple(eta)
    lead = f.terms.get(eta)
    if lead is None or not lead.is_one():
        return False
    for exps in f.terms:
        if exps != eta and not combinat.composition_lt(exps, eta):
            return False
    return True


def check_s_i_action(eta, i: int) -> bool:
    """The three-case adjacent-swap action, with both sides built
    independently from the cache."""
    eta = combinat.as_composition(eta)
    f = build_E(eta)
    swapped = apply_transposition(f, i, i + 1)
    if eta[i - 1] == eta[i]:
        return swapped == f
    bars = combinat.eigenvalue_vector(eta)
    delta = bars[i - 1] - bars[i]
    g = build_E(combinat.swap_parts(eta, i))
    dinv = delta.inverse()
    if eta[i - 1] > eta[i]:
        rhs = f.scale(dinv) + g.scale(ONE - dinv * dinv)
    else:
        rhs = f.scale(dinv) + g
    return swapped == rhs


# ---------------------------------------------------------------------------
# the symmetric family
# ---------------------------------------------------------------------------

def _padded(kappa, n: int = None) -> tuple:
    """kappa as a partition with exactly n parts (default: as given), padded
    with zeros or cut of trailing zeros."""
    kappa = combinat.as_partition(kappa)
    if n is None:
        return kappa
    if any(kappa[n:]):
        raise ValueError(f"partition {kappa} longer than N={n}")
    return kappa[:n] + (0,) * (n - len(kappa))


def build_P(kappa, n: int = None, shift_param: bool = False) -> MultiPoly:
    """The monic symmetric polynomial, assembled as
    d'(kappa) * sum over rearrangements eta of E_eta / d'(eta).
    With shift_param the coefficients are carried through
    alpha -> alpha/(alpha+1)."""
    kappa = _padded(kappa, n)
    key = (kappa, shift_param)
    cached = _P_CACHE.get(key)
    if cached is not None:
        return cached
    out = MultiPoly.zero(len(kappa))
    for eta in combinat.rearrangements(kappa):
        out = out + build_E(eta).scale(scalars.const_dp(eta).inverse())
    out = out.scale(scalars.const_dp(kappa))
    if shift_param:
        sh = alpha_shift()
        out = out.map_coeff(lambda c: c.substitute(sh))
    _P_CACHE[key] = out
    return out


def build_P_sym_route(kappa, n: int = None) -> MultiPoly:
    """Independent assembly: symmetrize E at the increasing rearrangement
    and divide by the stabilizer order of the padded shape."""
    kappa = _padded(kappa, n)
    eta_r = combinat.reverse_partition(kappa)
    f = symmetrize(build_E(eta_r))
    stab = combinat.stabilizer_order(kappa)
    return f.scale(AlphaRational.from_fraction(Fraction(1, stab)))


def check_pe_vs_sym(kappa, n: int = None) -> bool:
    """The two assembly routes agree, and their value at all-ones matches
    both scalar closed forms."""
    kappa = _padded(kappa, n)
    p1 = build_P(kappa)
    p2 = build_P_sym_route(kappa)
    if p1 != p2:
        return False
    ones = p1.eval_ones()
    return (ones == scalars.eval_P_at_ones(kappa)
            and ones == scalars.eval_P_at_ones_sym_route(kappa))


def check_P_symmetric_eigen(kappa, n: int = None) -> bool:
    """Symmetry, eigenfunction property of the second-order operator, and
    dominance triangularity of the monomial expansion (monic at kappa)."""
    kappa = _padded(kappa, n)
    return p_properties_ok(build_P(kappa), kappa)


def p_properties_ok(p: MultiPoly, kappa) -> bool:
    kappa = tuple(kappa)
    if not is_symmetric(p):
        return False
    if exact_scalar_ratio(d2_apply(p), p) is None and any(kappa):
        return False
    lead = p.terms.get(kappa)
    if lead is None or not lead.is_one():
        return False
    for exps in p.terms:
        mu = combinat.sort_to_partition(exps)
        if not combinat.dominance_leq(mu, kappa):
            return False
    return True


def sym_constant(eta) -> AlphaRational:
    """Measured ratio Sym(E_eta) / P_(eta+); its existence is asserted, no
    closed form is claimed."""
    eta = combinat.as_composition(eta)
    kappa = combinat.sort_to_partition(eta)
    f = symmetrize(build_E(eta))
    c = exact_scalar_ratio(f, build_P(kappa, len(eta)))
    if c is None:
        raise ArithmeticError(f"Sym E_{eta} is not proportional to the symmetric polynomial")
    return c


# ---------------------------------------------------------------------------
# the anti-symmetric family
# ---------------------------------------------------------------------------

def build_S(rho_plus) -> MultiPoly:
    """Vandermonde times the parameter-shifted symmetric polynomial for
    eta+ = rho+ - staircase; monic with leading monomial z^rho+."""
    rho_plus = combinat.as_partition(rho_plus)
    n = len(rho_plus)
    if not combinat.has_distinct_parts(rho_plus):
        raise ValueError(f"{rho_plus} must be strictly decreasing")
    delta = combinat.staircase(n)
    eta_plus = tuple(r - d for r, d in zip(rho_plus, delta))
    if any(p < 0 for p in eta_plus):
        raise ValueError(f"{rho_plus} minus the staircase has negative parts")
    return vandermonde(n) * build_P(eta_plus, n, shift_param=True)


def check_asym_formula(rho):
    """Antisymmetrize E_rho.  Repeated parts must give zero (returned as
    (0, True)); distinct parts must give an exact multiple of the
    anti-symmetric polynomial, whose scalar is returned and compared with
    the resolved closed form."""
    rho = combinat.as_composition(rho)
    a = antisymmetrize(build_E(rho))
    if not combinat.has_distinct_parts(rho):
        return ZERO, not a
    s = build_S(combinat.sort_to_partition(rho))
    c = exact_scalar_ratio(a, s)
    if c is None:
        raise ArithmeticError(f"Asym E_{rho} is not a multiple of the S polynomial")
    return c, c == scalars.c_rho_resolved(rho)


def check_du_expansion(eta_plus, n: int = None) -> bool:
    """The Vandermonde times the shifted P expands over the rearrangements
    nu of rho+ = eta+ + staircase as (1/d(rho+)) sum sign(nu) d(nu) E_nu,
    with sign(nu) = (-1)^(ascending pairs of nu)."""
    eta_plus = _padded(eta_plus, n)
    n = len(eta_plus)
    delta = combinat.staircase(n)
    rho_plus = tuple(p + d for p, d in zip(eta_plus, delta))
    lhs = build_S(rho_plus)
    acc = MultiPoly.zero(n)
    for nu in combinat.rearrangements(rho_plus):
        sign = -1 if combinat.ascending_pair_count(nu) & 1 else 1
        acc = acc + build_E(nu).scale(sign * scalars.const_d(nu))
    rhs = acc.scale(scalars.const_d(rho_plus).inverse())
    return lhs == rhs


# ---------------------------------------------------------------------------
# kernel decompositions and binomial expansions
# ---------------------------------------------------------------------------

def omega_sum(n: int, bound: int) -> BiPoly:
    """sum over |eta| <= bound of E_eta(x) E_eta(y) / u_eta."""
    acc = BiPoly(n, n, bound)
    for eta in combinat.compositions_upto(bound, n):
        e = build_E(eta)
        acc = acc.add_outer(e, e, scalars.u_eta(eta).inverse())
    return acc


def check_omega_decomposition(n: int, bound: int) -> bool:
    return omega_truncated(n, bound) == omega_sum(n, bound)


def pi_sum(n: int, bound: int) -> BiPoly:
    """sum over |kappa| <= bound of P_kappa(x) P_kappa(y) / v_kappa."""
    acc = BiPoly(n, n, bound)
    for kappa in combinat.partitions_upto(bound, n):
        p = build_P(kappa, n)
        acc = acc.add_outer(p, p, scalars.v_kappa(kappa).inverse())
    return acc


def check_pi_decomposition(n: int, bound: int) -> bool:
    return pi_truncated(ALPHA, n, n, bound) == pi_sum(n, bound)


def _one_variable_product(series, n: int, bound: int) -> MultiPoly:
    """prod_j sum_m series[m] x_j^m truncated to total degree <= bound."""
    out = MultiPoly.one(n)
    for j in range(1, n + 1):
        factor = MultiPoly(n, {
            tuple(m if t == j - 1 else 0 for t in range(n)): series[m]
            for m in range(bound + 1)})
        out = (out * factor).truncate(bound)
    return out


def check_binomial(r, n: int, bound: int, which: str = "bi2") -> bool:
    """prod_j (1-x_j)^(-r) expanded two ways through the stated degree.

    bi2 sums alpha^|eta| [r]_(eta+) / (u_eta d_eta) E_eta over compositions;
    bi3 sums alpha^|kappa| [r]_kappa / (v_kappa h_kappa) P_kappa over
    partitions.  Checking several rational r certifies the polynomial
    identity in r by the degree bound.
    """
    r = Fraction(r)
    lhs = _one_variable_product(binomial_series(r, bound), n, bound)
    rhs = MultiPoly.zero(n)
    if which == "bi2":
        for eta in combinat.compositions_upto(bound, n):
            kappa = combinat.sort_to_partition(eta)
            coeff = (ALPHA ** sum(eta) * scalars.gen_factorial(r, kappa)
                     / (scalars.u_eta(eta) * scalars.const_d(eta)))
            rhs = rhs + build_E(eta).scale(coeff)
    elif which == "bi3":
        for kappa in combinat.partitions_upto(bound, n):
            coeff = (ALPHA ** sum(kappa) * scalars.gen_factorial(r, kappa)
                     / (scalars.v_kappa(kappa) * scalars.const_h(kappa)))
            rhs = rhs + build_P(kappa, n).scale(coeff)
    else:
        raise ValueError(f"unknown binomial form {which!r}")
    return lhs == rhs


def check_P_stability(kappa, n: int) -> bool:
    """Setting the last variable to zero drops to the same polynomial in
    one fewer variable (for shapes short enough to fit)."""
    kappa = combinat.as_partition(kappa)
    if len(kappa) > n - 1 and any(kappa[n - 1:]):
        raise ValueError("shape too long for a stability comparison")
    big = build_P(kappa, n)
    small = build_P(kappa, n - 1)
    dropped = {}
    for e, c in big.terms.items():
        if e[-1] == 0:
            dropped[e[:-1]] = c
    return dropped == small.terms
