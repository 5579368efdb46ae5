"""Construction of the three Jack families.

E is built through its integral form J_eta = d_eta E_eta, whose
coefficients lie in Z[alpha] (F. Knop and S. Sahi, Invent. Math. 128,
1997), held as {exponent: int tuple} times the raising factors not yet
multiplied in, a `qalpha.Factored`.  J is walked down a chain of raising
and swap steps to a cached or zero label and built back up: a raising step
relabels and records one linear factor, and a swap step is one linear
multiply and one exact synthetic division per coefficient, so the chain
takes no polynomial gcd.  E is J over d_eta, and d_eta over the factors J
holds is a Factored denominator: each coefficient is made canonical over
it by exact division alone.

build_P and build_S do their Q(alpha) work only at dominant exponents and
then write each value to the rearrangements of its exponent.  P is
symmetric, so its coefficient at any exponent equals the one at the sorted
exponent, a partition: build_P sums d'(kappa) J_eta / (d(eta) d'(eta)) at
partition exponents only, over the Factored lcm of the denominators.  S is
the Vandermonde a_delta times P with its coefficients carried through
alpha -> alpha/(alpha+1), so it is antisymmetric: its coefficient at
lambda o pi is sgn(pi) times the one at lambda, and vanishes at repeated
parts.  By the alternant identity a_delta s_nu = a_(nu+delta) (Macdonald,
Symmetric Functions and Hall Polynomials, I.3) it is fixed by its
coefficients at the strictly decreasing lambda = nu + delta, each an
integer combination of the partition coefficients of the cached P at
alpha, substituted once.  Moving a value to a rearranged exponent is a
relabelling, or a relabelling and a sign, so the filled polynomial equals
the one the full sums would give, coefficient for coefficient.  Results
are cached by label and never mutated.
"""

from __future__ import annotations

import collections
import itertools
import operator
from fractions import Fraction

from . import combinat, scalars
from .polyalg import MultiPoly, symmetrize
from .qalpha import (ZERO, AlphaRational, Factored, alpha_shift, over_linear, poly_add, poly_mul,
                     poly_neg, times_linear)

_E_CACHE: dict = {}
_J_CACHE: dict = {}
_P_CACHE: dict = {}


def clear_caches():
    _E_CACHE.clear()
    _J_CACHE.clear()
    _P_CACHE.clear()


# ---------------------------------------------------------------------------
# the non-symmetric family
# ---------------------------------------------------------------------------

def _integral(eta):
    """J_eta = d_eta E_eta as (pending, terms): terms is {exponent: int
    tuple of Z[alpha]}, and J is terms times the Factored product
    `pending`, the raising factors not yet multiplied in.

    Each label comes from exactly one predecessor by one raising or swap
    step, so the chain of predecessors is walked down to a cached or zero
    label and then built back up, caching every label on it."""
    chain = []  # (label, its first descent or 0 when weakly increasing), top first
    while eta not in _J_CACHE and any(eta):
        i = next((j for j in range(1, len(eta)) if eta[j - 1] > eta[j]), 0)
        chain.append((eta, i))
        # a descent is removed by a swap; otherwise eta = Phi(nu) with
        # nu = (eta_N - 1, eta_1, ..., eta_(N-1))
        eta = combinat.swap_parts(eta, i) if i else (eta[-1] - 1,) + eta[:-1]
    out = _J_CACHE.get(eta)
    if out is None:
        out = _J_CACHE[eta] = (Factored(), {eta: (1,)})
    for eta, i in reversed(chain):
        out = _J_CACHE[eta] = _swap_step(out, eta, i) if i else _raise_step(out, eta)
    return out


def _raise_step(j_nu, eta):
    """J_(Phi nu) = (alpha (nu_1 + 1) + N - #{j > 1: nu_j > nu_1}) Phi J_nu,
    where eta = Phi nu: nu_1 + 1 = eta_N, and the nu_j with j > 1 are the
    eta_k with k < N.  The factor joins the pending ones: a raising chain
    at N = 1 would otherwise store d_(k) z^k, whose coefficients grow with
    k, at every k on it."""
    pending, terms = j_nu
    top = eta[-1]
    b = len(eta) - sum(1 for p in eta[:-1] if p >= top)
    return pending * Factored([(top, b)]), {e[1:] + (e[0] + 1,): c for e, c in terms.items()}


def _swap_step(j_mu, eta, i):
    """J_eta = (delta s_i J_mu - J_mu) / (delta - 1) for eta with a descent
    at i, where mu = s_i eta is ascending at i and delta = alpha a + b is
    its eigenvalue gap at i, a = mu_i - mu_(i+1) != 0.  The pending factors
    of J_mu are multiplied in first.  The division is exact; an inexact one
    raises ArithmeticError naming eta."""
    pending, terms = j_mu
    scale = pending.poly()
    if scale != (1,):
        terms = {e: poly_mul(c, scale) for e, c in terms.items()}
    k = i - 1
    (m1, c1), (m2, c2) = combinat.eigenvalue_offsets(combinat.swap_parts(eta, i))[k:i + 1]
    a, b = m1 - m2, c2 - c1

    def swap(e):
        return e[:k] + (e[i], e[k]) + e[i + 1:]

    out = {}
    for e in terms.keys() | set(map(swap, terms)):
        num = poly_add(times_linear(terms.get(swap(e), ()), a, b), poly_neg(terms.get(e, ())))
        if num:
            q = over_linear(num, a, b - 1)
            if q is None:
                raise ArithmeticError(f"J_{eta}: the swap step at {e} does not divide by "
                                      f"{AlphaRational((b - 1, a))}")
            out[e] = q
    return Factored(), out


def build_E(eta) -> MultiPoly:
    """The monic polynomial with leading monomial z^eta that is a joint
    eigenfunction of the commuting first-order operators: the integral
    form J_eta over d_eta, with the pending factors of J cancelled first.
    They are the ratios d_(Phi nu)/d_nu of the raising steps since the last
    swap, so they divide d_eta, and the quotient is a denominator."""
    eta = combinat.as_composition(eta)
    out = _E_CACHE.get(eta)
    if out is None:
        pending, terms = _integral(eta)
        den = scalars.node_ratio(eta, ("d",)) / pending
        out = _E_CACHE[eta] = MultiPoly(len(eta), {e: den.over(c) for e, c in terms.items()})
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
    d'(kappa) * sum over rearrangements eta of E_eta / d'(eta)
    = d'(kappa) * sum of J_eta / (d(eta) d'(eta)).
    The sum runs in Z[alpha] on partition exponents only, the m-basis
    coordinates, over the least common multiple of the factored
    denominators; each sum is then made canonical as E is.  `_fill`
    copies each coefficient to every rearrangement of its exponent, which
    is exact because P is symmetric."""
    kappa = _padded(kappa, n)
    cached = _P_CACHE.get(kappa)
    if cached is not None:
        return cached
    parts = []  # (terms of J_eta, d(eta) d'(eta) over the pending factors of J_eta)
    for eta in combinat.rearrangements(kappa):
        pending, terms = _integral(eta)
        parts.append((terms, scalars.node_ratio(eta, ("d", "dp")) / pending))
    common = Factored.lcm([den for _, den in parts])
    sums = {}
    for terms, den in parts:
        cofactor = (common / den).poly()
        for e, j in terms.items():
            if combinat.is_partition(e):
                sums[e] = poly_add(sums.get(e, ()), poly_mul(j, cofactor))
    # kappa is one of the eta, so d'(kappa) divides the common denominator
    den = common / scalars.node_ratio(kappa, ("dp",))
    dominant = {e: den.over(s) for e, s in sums.items() if s}
    out = _P_CACHE[kappa] = _fill(len(kappa), dominant, signed=False)
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
