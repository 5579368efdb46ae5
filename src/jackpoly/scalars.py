"""Scalar constants and closed-form values attached to composition diagrams.

Every function returns an exact element of Q(alpha), formed at the
generator alpha.  Empty diagrams give 1 throughout.  Each closed form is
one `qalpha.Factored` ratio of node products, formed in one walk of the
diagram per label and made canonical with no gcd.  A value at the
substituted parameter alpha/(alpha+1) is that ratio's `Factored.shifted()`,
which takes no gcd either.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import combinat
from .qalpha import AlphaRational, Factored

# the factor alpha*a + b of each node product, as (a, b) at node s of an N-part label
_FACTORS = {
    "d": lambda s, n: (s.arm + 1, s.leg + 1),
    "dp": lambda s, n: (s.arm + 1, s.leg),
    "e": lambda s, n: (s.arm_co + 1, n - s.leg_co),
    "ep": lambda s, n: (s.arm_co + 1, n - 1 - s.leg_co),
    "b": lambda s, n: (s.arm_co, n - s.leg_co),
    "h": lambda s, n: (s.arm, s.leg + 1),
}


def node_ratio(eta, up, down=(), content=1) -> Factored:
    """content times the product of the node products named in `up` (keys
    of _FACTORS) over those named in `down`, factored, in one walk of eta's
    diagram.  h is defined for partitions only."""
    if "h" in up + down and not combinat.is_partition(eta):
        raise ValueError(f"h is defined for partitions, got {eta}")
    n, nodes = len(eta), combinat.diagram_nodes(eta)
    out = Factored([_FACTORS[k](s, n) for s in nodes for k in up], content)
    return out / Factored([_FACTORS[k](s, n) for s in nodes for k in down]) if down else out


def _node_product(kind):
    """The node product `kind` at a label, in Q(alpha)."""
    return lambda eta: node_ratio(eta, (kind,)).value()


# h, the hook-type product alpha*a(s) + l(s) + 1, is defined for partitions only
const_d, const_dp, const_e, const_ep, const_b, const_h = (
    _node_product(kind) for kind in ("d", "dp", "e", "ep", "b", "h"))


# ---------------------------------------------------------------------------
# evaluation and norm formulas
# ---------------------------------------------------------------------------

def eval_E_at_ones(eta) -> AlphaRational:
    """Value of the non-symmetric polynomial at z = (1, ..., 1): e/d."""
    return node_ratio(eta, ("e",), ("d",)).value()


def norm_ratio_form(family, label) -> Factored:
    """The torus-norm ratio of E_eta (family "E") or P_kappa (family "P")
    relative to the constant polynomial, factored: d'e/(de') or bd'/(e'h)."""
    if family == "E":
        return node_ratio(label, ("dp", "e"), ("d", "ep"))
    return node_ratio(label, ("b", "dp"), ("ep", "h"))


def norm_ratio_E(eta) -> AlphaRational:
    """Torus-norm ratio of E relative to the constant polynomial: d'e/(de')."""
    return norm_ratio_form("E", eta).value()


def u_eta(eta) -> AlphaRational:
    """Diagonal norm in the kernel pairing for the E family: d'/d."""
    return node_ratio(eta, ("dp",), ("d",)).value()


def P_at_ones_forms(kappa) -> tuple:
    """The value of the symmetric polynomial at z = (1, ..., 1) in its two
    closed forms, factored: b/h, and through the increasing rearrangement
    N!/stab(kappa) e/d, where stab is the full frequency factorial with
    zero parts included (the zero rows of the padded shape carry no diagram
    nodes, so their permutations must be divided out here)."""
    c = Fraction(math.factorial(len(kappa)), combinat.stabilizer_order(kappa))
    return (node_ratio(kappa, ("b",), ("h",)),
            node_ratio(combinat.reverse_partition(kappa), ("e",), ("d",), c))


def eval_P_at_ones(kappa) -> AlphaRational:
    """P(1^N) = b/h."""
    return P_at_ones_forms(kappa)[0].value()


def norm_ratio_P(kappa) -> AlphaRational:
    """Torus-norm ratio of P relative to the constant polynomial: bd'/(e'h)."""
    return norm_ratio_form("P", kappa).value()


def norm_ratio_P_forms(kappa) -> tuple:
    """norm_ratio_P factored in its two closed forms: bd'/(e'h), N!/stab d' e/(d e')."""
    c = Fraction(math.factorial(len(kappa)), combinat.stabilizer_order(kappa))
    return (norm_ratio_form("P", kappa), node_ratio(kappa, ("dp",), (), c)
            * node_ratio(combinat.reverse_partition(kappa), ("e",), ("d", "ep")))


def v_kappa(kappa) -> AlphaRational:
    """Diagonal norm in the kernel pairing for the P family: d'/h."""
    return node_ratio(kappa, ("dp",), ("h",)).value()


def binomial_ratio(r, label) -> Factored:
    """Coefficient of E_eta, or of P_kappa for a partition label, in
    prod_j (1-x_j)^(-r): alpha^|eta| [r]_(eta+) / d'_eta, factored.  The
    paper divides by u_eta d_eta for E and by v_kappa h_kappa for P; both
    equal d'.  With r = p/q, alpha^|kappa| [r]_kappa = prod over j and
    i < kappa_j of alpha (r + i) - (j-1) = (alpha (p + i q) - q (j-1)) / q."""
    p, q = Fraction(r).as_integer_ratio()
    kappa = combinat.sort_to_partition(label)
    rising = Factored([(p + i * q, q * (1 - j)) for j, part in enumerate(kappa, start=1)
                       for i in range(part)], Fraction(1, q ** sum(kappa)))
    return rising / node_ratio(label, ("dp",))


def binomial_coeff(r, label) -> AlphaRational:
    """binomial_ratio in Q(alpha)."""
    return binomial_ratio(r, label).value()


# ---------------------------------------------------------------------------
# the antisymmetrization constant
# ---------------------------------------------------------------------------

def c_rho(rho, form: str = "rearrangement") -> AlphaRational:
    """c_rho_ratio in Q(alpha)."""
    return c_rho_ratio(rho, form).value()


def c_rho_ratio(rho, form: str = "rearrangement") -> Factored:
    """The proportionality constant relating the antisymmetrized E to the
    Vandermonde times a parameter-shifted P, in either closed form:
    "rearrangement" uses d'(rho)/d'(rhoR), "shifted-shape" routes through
    the staircase-shifted shape at the substituted parameter.  Both carry
    the global sign (-1)^(N(N-1)/2); see c_rho_resolved for the sign
    convention this package's Asym/Vandermonde choices actually produce."""
    if not combinat.has_distinct_parts(rho):
        raise ValueError(f"{rho} has repeated parts")
    n = len(rho)
    sign = -1 if (n * (n - 1) // 2) & 1 else 1
    if form == "rearrangement":
        return (node_ratio(rho, ("dp",), (), sign)
                / node_ratio(combinat.reverse_partition(rho), ("dp",)))
    if form == "shifted-shape":
        rho_plus = combinat.sort_to_partition(rho)
        delta = combinat.staircase(n)
        eta_plus = tuple(r - d for r, d in zip(rho_plus, delta))
        if any(p < 0 for p in eta_plus) or not combinat.is_partition(eta_plus):
            raise ValueError(f"{rho}+ minus the staircase is not a partition")
        return (node_ratio(rho, ("dp",), (), sign) / node_ratio(rho_plus, ("d",))
                / node_ratio(eta_plus, ("dp",), ("h",)).shifted())
    raise ValueError(f"unknown c_rho form {form!r}")


def c_rho_resolved(rho) -> AlphaRational:
    """c_rho_resolved_ratio in Q(alpha)."""
    return c_rho_resolved_ratio(rho).value()


def c_rho_resolved_ratio(rho) -> Factored:
    """The measured constant under this package's conventions, factored:
    c_rho_ratio with the global sign (-1)^(ascending pairs of rho) for
    (-1)^(N(N-1)/2), so a strictly decreasing rho gets +1 and its increasing
    rearrangement gets (-1)^(N(N-1)/2)."""
    c, n = c_rho_ratio(rho), len(rho)
    flip = (combinat.ascending_pair_count(rho) + n * (n - 1) // 2) & 1
    return c * Factored(content=-1) if flip else c


def staircase_norm_ratio(n: int) -> Factored:
    """e/e' at the staircase, factored: (1/N!) prod_j (j*alpha + N) / (1+alpha)^N."""
    return (Factored([(j, n) for j in range(1, n + 1)], Fraction(1, math.factorial(n)))
            / Factored([(1, 1)] * n))
