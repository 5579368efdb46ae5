"""Construction of the three Jack families.

build_E produces the non-symmetric polynomial for a composition by peeling
the raising map off weakly increasing indices and removing descents through
the adjacent-transposition action; every step is division-free except for
one field division by an eigenvalue gap.

build_P and build_S do their Q(alpha) work only at dominant exponents and
then write each value to the rearrangements of its exponent.  P is
symmetric, so its coefficient at any exponent equals the one at the sorted
exponent, a partition: build_P sums d'(kappa)/d'(eta) E_eta at partition
exponents only.  S is the Vandermonde a_delta times P with its
coefficients carried through alpha -> alpha/(alpha+1), so it is
antisymmetric: its coefficient at lambda o pi is sgn(pi) times the one at
lambda, and vanishes at repeated parts.  By the alternant identity
a_delta s_nu = a_(nu+delta) (Macdonald, Symmetric Functions and Hall
Polynomials, I.3) it is fixed by its coefficients at the strictly
decreasing lambda = nu + delta, each an integer combination of the
partition coefficients of the cached P at alpha, substituted once.  Moving
a value to a rearranged exponent is a relabelling, or a relabelling and a
sign, so the filled polynomial equals the one the full sums would give,
coefficient for coefficient.  Results are cached by label and never mutated.
"""

from __future__ import annotations

import collections
import itertools
import operator
from fractions import Fraction

from . import combinat, scalars
from .polyalg import MultiPoly, apply_transposition, apply_phi, symmetrize
from .qalpha import ZERO, AlphaRational, alpha_shift

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


def build_P(kappa, n: int = None) -> MultiPoly:
    """The monic symmetric polynomial
    d'(kappa) * sum over rearrangements eta of E_eta / d'(eta).
    The sum and the scaling by d'(kappa) run on partition exponents only,
    the m-basis coordinates; `_fill` then copies each coefficient to every
    rearrangement of its exponent, which is exact because P is symmetric."""
    kappa = _padded(kappa, n)
    cached = _P_CACHE.get(kappa)
    if cached is not None:
        return cached
    n = len(kappa)
    out = MultiPoly.zero(n)
    for eta in combinat.rearrangements(kappa):
        dominant = {e: c for e, c in build_E(eta).terms.items() if combinat.is_partition(e)}
        out = out + MultiPoly(n, dominant).scale(scalars.const_dp(eta).inverse())
    out = out.scale(scalars.const_dp(kappa))
    out = _P_CACHE[kappa] = _fill(n, out.terms, signed=False)
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
    """The Vandermonde a_delta times the symmetric polynomial for
    eta+ = rho+ - staircase at alpha/(alpha+1); monic with leading monomial
    z^rho+.

    Only the coefficients at strictly decreasing lambda = nu + delta, nu a
    partition of |eta+|, are computed: with P the cached P at alpha,
    c_lambda = sum_sigma sgn(sigma) P[lambda - sigma delta]
             = sum_mu m_(lambda mu) P[mu],
    where the integer m_(lambda mu) sums sgn(sigma) over the sigma with
    sort(lambda - sigma delta) = mu, since P is symmetric.  c_lambda is then
    substituted alpha -> alpha/(alpha+1), which commutes with the integer
    combination because substitution is a ring homomorphism.  `_fill` writes
    sgn(pi) c_lambda at every lambda o pi, which is exact because S is
    antisymmetric; no other exponent carries a term."""
    rho_plus = combinat.as_partition(rho_plus)
    n = len(rho_plus)
    if not combinat.has_distinct_parts(rho_plus):
        raise ValueError(f"{rho_plus} must be strictly decreasing")
    delta = combinat.staircase(n)
    eta_plus = tuple(r - d for r, d in zip(rho_plus, delta))
    if any(p < 0 for p in eta_plus):
        raise ValueError(f"{rho_plus} minus the staircase has negative parts")
    p = build_P(eta_plus, n).terms
    sh = alpha_shift()
    # sigma delta with sgn(sigma): the terms of the Vandermonde
    alternant = [(tuple(map(delta.__getitem__, perm)), sign) for perm, sign in _signed_perms(n)]
    dominant = {}
    for nu in combinat.partitions(sum(eta_plus), n):
        lam = tuple(map(operator.add, nu, delta))
        m = collections.Counter()
        for d, sign in alternant:
            diff = tuple(map(operator.sub, lam, d))
            if min(diff) >= 0:
                m[combinat.sort_to_partition(diff)] += sign
        c = sum((p[mu] * k for mu, k in m.items() if k and mu in p), ZERO)
        if c:
            dominant[lam] = c.substitute(sh)
    return _fill(n, dominant, signed=True)


# ---------------------------------------------------------------------------
# writing dominant coefficients to every rearrangement
# ---------------------------------------------------------------------------

def _signed_perms(n: int) -> list:
    """Every permutation of range(n) as a tuple of images, with its sign.
    Not cached: n! entries would stay in memory for the life of the process."""
    return [(perm, combinat.perm_sign(perm)) for perm in itertools.permutations(range(n))]


def _fill(n: int, dominant: dict, signed: bool) -> MultiPoly:
    """The polynomial with coefficient dominant[e] at every rearrangement
    e o pi of each key e, times sgn(pi) when `signed`.  A symmetric
    polynomial (signed=False, keys the partition exponents) or an
    antisymmetric one (signed=True, keys strictly decreasing) is fixed by
    these coefficients; a value is moved, never added, and negated at most
    once per key."""
    perms = _signed_perms(n)
    out = {}
    for e, c in dominant.items():
        neg = -c if signed else c
        for perm, sign in perms:
            out[tuple(map(e.__getitem__, perm))] = neg if sign < 0 else c
    return MultiPoly(n, out)
