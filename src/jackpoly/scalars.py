"""Scalar constants and closed-form values attached to composition diagrams.

Every function returns an exact element of Q(alpha), formed at the
generator alpha.  A value at the substituted parameter alpha/(alpha+1) is
that element composed with alpha -> alpha/(alpha+1):
`value.substitute(alpha_shift())`.  Empty diagrams give 1 throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import combinat
from .qalpha import ALPHA, ONE, AlphaRational, alpha_shift, linear_product


def _node_product(eta, factor) -> AlphaRational:
    """prod over the nodes s of eta of alpha*a + b, where (a, b) = factor(s)."""
    return linear_product(map(factor, combinat.diagram_nodes(eta)))


def d_factors(eta) -> tuple:
    """The pairs (a, b) of the factors alpha*a + b of d, one per node."""
    return tuple((s.arm + 1, s.leg + 1) for s in combinat.diagram_nodes(eta))


def dp_factors(eta) -> tuple:
    """The pairs (a, b) of the factors alpha*a + b of d', one per node."""
    return tuple((s.arm + 1, s.leg) for s in combinat.diagram_nodes(eta))


def const_d(eta) -> AlphaRational:
    return linear_product(d_factors(eta))


def const_dp(eta) -> AlphaRational:
    return linear_product(dp_factors(eta))


def const_e(eta) -> AlphaRational:
    n = len(eta)
    return _node_product(eta, lambda s: (s.arm_co + 1, n - s.leg_co))


def const_ep(eta) -> AlphaRational:
    n = len(eta)
    return _node_product(eta, lambda s: (s.arm_co + 1, n - 1 - s.leg_co))


def const_b(eta) -> AlphaRational:
    n = len(eta)
    return _node_product(eta, lambda s: (s.arm_co, n - s.leg_co))


def const_h(kappa) -> AlphaRational:
    """Hook-type product alpha*a(s) + l(s) + 1; defined for partitions only."""
    if not combinat.is_partition(kappa):
        raise ValueError(f"h is defined for partitions, got {kappa}")
    return _node_product(kappa, lambda s: (s.arm, s.leg + 1))


def gen_factorial(u, kappa) -> AlphaRational:
    """Rising-factorial product over the rows of a padded partition:
    prod_j prod_{i=0}^{kappa_j - 1} (u - (j-1)/alpha + i)."""
    if isinstance(u, (int, Fraction)):
        u = AlphaRational.from_fraction(u)
    ainv = ALPHA.inverse()
    out = ONE
    for j, kj in enumerate(kappa, start=1):
        base = u - ainv * (j - 1)
        for i in range(kj):
            out = out * (base + i)
    return out


# ---------------------------------------------------------------------------
# evaluation and norm formulas
# ---------------------------------------------------------------------------

def eval_E_at_ones(eta) -> AlphaRational:
    """Value of the non-symmetric polynomial at z = (1, ..., 1): e/d."""
    return const_e(eta) / const_d(eta)


def norm_ratio_E(eta) -> AlphaRational:
    """Torus-norm ratio of E relative to the constant polynomial: d'e/(de')."""
    return const_dp(eta) * const_e(eta) / (const_d(eta) * const_ep(eta))


def u_eta(eta) -> AlphaRational:
    """Diagonal norm in the kernel pairing for the E family: d'/d."""
    return const_dp(eta) / const_d(eta)


def eval_P_at_ones(kappa) -> AlphaRational:
    """Value of the symmetric polynomial at z = (1, ..., 1): b/h."""
    return const_b(kappa) / const_h(kappa)


def eval_P_at_ones_sym_route(kappa) -> AlphaRational:
    """Same value through the increasing rearrangement: N!/stab(kappa) e/d,
    where stab is the full frequency factorial with zero parts included (the
    zero rows of the padded shape carry no diagram nodes, so their
    permutations must be divided out here)."""
    eta_r = combinat.reverse_partition(kappa)
    n = len(kappa)
    c = Fraction(math.factorial(n), combinat.stabilizer_order(kappa))
    return AlphaRational.from_fraction(c) * const_e(eta_r) / const_d(eta_r)


def norm_ratio_P(kappa) -> AlphaRational:
    """Torus-norm ratio of P relative to the constant polynomial: bd'/(e'h)."""
    return (const_b(kappa) * const_dp(kappa)
            / (const_ep(kappa) * const_h(kappa)))


def norm_ratio_P_sym_route(kappa) -> AlphaRational:
    """The same ratio via the increasing rearrangement."""
    eta_r = combinat.reverse_partition(kappa)
    n = len(kappa)
    c = Fraction(math.factorial(n), combinat.stabilizer_order(kappa))
    return (AlphaRational.from_fraction(c) * const_dp(kappa) * const_e(eta_r)
            / (const_d(eta_r) * const_ep(eta_r)))


def v_kappa(kappa) -> AlphaRational:
    """Diagonal norm in the kernel pairing for the P family: d'/h."""
    return const_dp(kappa) / const_h(kappa)


def binomial_coeff(r, label) -> AlphaRational:
    """Coefficient of E_eta, or of P_kappa for a partition label, in
    prod_j (1-x_j)^(-r): alpha^|eta| [r]_(eta+) / d'_eta.  The paper divides
    by u_eta d_eta for E and by v_kappa h_kappa for P; both equal d'."""
    kappa = combinat.sort_to_partition(label)
    return ALPHA ** sum(label) * gen_factorial(r, kappa) / const_dp(label)


# ---------------------------------------------------------------------------
# the antisymmetrization constant
# ---------------------------------------------------------------------------

def _check_distinct(rho):
    if not combinat.has_distinct_parts(rho):
        raise ValueError(f"{rho} has repeated parts")


def c_rho(rho, form: str = "rearrangement") -> AlphaRational:
    """The proportionality constant relating the antisymmetrized E to the
    Vandermonde times a parameter-shifted P, in either closed form:
    "rearrangement" uses d'(rho)/d'(rhoR), "shifted-shape" routes through
    the staircase-shifted shape at the substituted parameter.  Both carry
    the global sign (-1)^(N(N-1)/2); see c_rho_resolved for the sign
    convention this package's Asym/Vandermonde choices actually produce."""
    _check_distinct(rho)
    n = len(rho)
    sign = -1 if (n * (n - 1) // 2) & 1 else 1
    if form == "rearrangement":
        rho_r = combinat.reverse_partition(rho)
        return sign * const_dp(rho) / const_dp(rho_r)
    if form == "shifted-shape":
        rho_plus = combinat.sort_to_partition(rho)
        delta = combinat.staircase(n)
        eta_plus = tuple(r - d for r, d in zip(rho_plus, delta))
        if any(p < 0 for p in eta_plus) or not combinat.is_partition(eta_plus):
            raise ValueError(f"{rho}+ minus the staircase is not a partition")
        return (sign * const_dp(rho) / const_d(rho_plus)
                * v_kappa(eta_plus).substitute(alpha_shift()).inverse())
    raise ValueError(f"unknown c_rho form {form!r}")


def c_rho_resolved(rho) -> AlphaRational:
    """The measured constant under this package's conventions: the global
    sign is (-1)^(number of ascending pairs of rho), so a strictly decreasing
    rho gets +1 and its increasing rearrangement gets (-1)^(N(N-1)/2)."""
    _check_distinct(rho)
    sign = -1 if combinat.ascending_pair_count(rho) & 1 else 1
    rho_r = combinat.reverse_partition(rho)
    return sign * const_dp(rho) / const_dp(rho_r)


def staircase_norm_ratio(n: int) -> AlphaRational:
    """e/e' at the staircase: (1/N!) prod_j (j*alpha + N) / (1+alpha)^N."""
    num = linear_product((j, n) for j in range(1, n + 1))
    return num / (linear_product([(1, 1)] * n) * math.factorial(n))
