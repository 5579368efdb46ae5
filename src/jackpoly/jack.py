"""Construction of the three Jack families.

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
from .polyalg import MultiPoly, apply_transposition, apply_phi, symmetrize, vandermonde
from .qalpha import AlphaRational, alpha_shift

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
    eigenfunction of the commuting first-order operators.

    Each label comes from exactly one predecessor by one raising or swap
    step, so the chain of predecessors is walked down to a cached or zero
    label and then built back up, caching every label on it."""
    eta = combinat.as_composition(eta)
    chain = []  # (label, its first descent or 0 when weakly increasing), top first
    while eta not in _E_CACHE and any(eta):
        i = next((j for j in range(1, len(eta)) if eta[j - 1] > eta[j]), 0)
        chain.append((eta, i))
        # a descent is removed by a swap; otherwise eta = Phi(nu) with
        # nu = (eta_N - 1, eta_1, ..., eta_(N-1))
        eta = combinat.swap_parts(eta, i) if i else (eta[-1] - 1,) + eta[:-1]
    out = _E_CACHE.get(eta)
    if out is None:
        out = _E_CACHE[eta] = MultiPoly.one(len(eta))
    for eta, i in reversed(chain):
        if i:
            # mu = s_i eta is ascending at i, and
            # E_eta = s_i E_mu - (1/delta_i(mu)) E_mu
            mu = combinat.swap_parts(eta, i)
            bars = combinat.eigenvalue_vector(mu)
            delta = bars[i - 1] - bars[i]
            if not delta:
                raise ArithmeticError(f"vanishing eigenvalue gap at {mu}, i={i}")
            out = apply_transposition(out, i, i + 1) - out.scale(delta.inverse())
        else:
            out = apply_phi(out)
        _E_CACHE[eta] = out
    return out


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

