"""Construction of the three Jack families.

E is built through its integral form J_eta = d_eta E_eta, whose
coefficients lie in Z>=0[alpha] (F. Knop and S. Sahi, Invent. Math. 128,
1997), held as {exponent: int} times the raising factors not yet
multiplied in, a `qalpha.Factored`; each int is its coefficient at
alpha = 2^K, one base-2^K digit per power of alpha (Kronecker
substitution: J. von zur Gathen and J. Gerhard, Modern Computer Algebra,
8.4).  J is walked down a chain of raising and swap steps to a cached or
zero label and built back up: a raising step relabels and records one
linear factor, and a swap step is one big-integer multiply and one exact
divmod per coefficient, so the chain takes no polynomial gcd.  K is chosen
per label.  Every coefficient of J_nu is at most e_nu at alpha = 1, since
it is non-negative and J_nu(1, ..., 1) = e_nu, and e_nu(1) is at most
prod_i (nu_i + N)!/N!, which never shrinks up the chain; so every digit on
the chain below eta lies in [0, 2^L) for the L of that bound at eta.  A
swap step divides delta u - v by delta - 1 = alpha a + b - 1; with
2^K > (2|a| + |b| + |b - 1| + 1)(2^L - 1), when u, v and the quotient
have digits in [0, 2^L) the two sides differ by a polynomial with
coefficients below 2^K in size that vanishes at 2^K, that is, by zero.
So a remainder, or a quotient digit outside [0, 2^L), raises.  E is J
over the Factored d_eta / pending, made canonical on J's ints by trial
division at 2^K (`Factored.over`), exact under a bound on the quotient.

build_P and build_S work in Z[alpha], only at dominant exponents, and then
write each value to the distinct rearrangements of its exponent, walked by
`combinat.signed_rearrangements`, not over the N! permutations.  P is
symmetric, so its coefficient at any exponent equals the one at the sorted
exponent, a partition.  Sym E_(kappaR) = stab(kappa) P_kappa, kappaR the
increasing rearrangement (T. H. Baker and P. J. Forrester, q-alg/9707001),
so P reads one chain and sums its packed ints by sorted exponent, over one
Factored denominator, divided as E's are.  S is the Vandermonde a_delta
times P with its coefficients carried through alpha -> alpha/(alpha+1), so
it is antisymmetric: its coefficient at lambda o pi is sgn(pi) times the
one at lambda, and vanishes at repeated parts.  By the alternant identity
a_delta s_nu = a_(nu+delta) (Macdonald, Symmetric Functions and Hall
Polynomials, I.3) it is fixed by its coefficients at the strictly
decreasing lambda = nu + delta, each an integer combination of the same
orbit sums of the same one chain, over the same denominator, substituted
once; S builds no P.  Moving a value to a rearranged exponent is a
relabelling, or a relabelling and the sign the walk carries, so the filled
polynomial equals the one the full sums would give, coefficient for
coefficient.  Results are cached by label and never mutated.
"""

from __future__ import annotations

import collections
import functools
import math
import operator

from . import combinat, scalars
from .polyalg import MultiPoly
from .qalpha import (AlphaRational, Factored, homogeneous_compose, pack, pack_width, poly_add,
                     poly_mul, unpack)

_E_CACHE: dict = {}
_J_CACHE: dict = {}
_P_CACHE: dict = {}
_S_CACHE: dict = {}


# ---------------------------------------------------------------------------
# the non-symmetric family
# ---------------------------------------------------------------------------

def _packing(eta):
    """(L, K) for the chain under eta, as the module docstring bounds them:
    |a| <= max(eta), |b| <= N - 1."""
    n = len(eta)
    bits = math.prod(math.factorial(p + n) // math.factorial(n) for p in eta).bit_length()
    return bits, bits + (2 * max(eta) + 2 * n).bit_length()


def _outside(eta, k):
    """The bits of a value packed at 2^k outside [0, 2^L) in some digit, L
    the bound of the chain under eta, up to the digit above alpha^|eta|."""
    bits, digits = _packing(eta)[0], sum(eta) + 2
    return ~(((1 << bits) - 1) * ((1 << k * digits) - 1) // ((1 << k) - 1))


def _packed_integral(eta):
    """J_eta as (pending, K, {exponent: int at alpha = 2^K}), cached: J is the
    ints times the raising factors `pending`; its digits lie in [0, 2^L),
    L < K, so they are balanced digits and `unpack` reads them.

    Each label comes from exactly one predecessor by one raising or swap
    step, so the chain of predecessors is walked down to a cached or zero
    label and then built back up, caching every label on it packed at the
    chain's K, or at the cached label's K when that is larger."""
    top, k = eta, _packing(eta)[1]
    chain = []  # (label, its first descent or 0 when weakly increasing), top first
    while eta not in _J_CACHE and any(eta):
        i = next((j for j in range(1, len(eta)) if eta[j - 1] > eta[j]), 0)
        chain.append((eta, i))
        # a descent is removed by a swap; otherwise eta = Phi(nu) with
        # nu = (eta_N - 1, eta_1, ..., eta_(N-1))
        eta = combinat.swap_parts(eta, i) if i else (eta[-1] - 1,) + eta[:-1]
    pending, k0, terms = _J_CACHE.get(eta) or _J_CACHE.setdefault(eta, (Factored(), k, {eta: 1}))
    k = max(k, k0) if chain else k0
    out = pending, k, {e: pack(unpack(c, k0), k) for e, c in terms.items()} if k0 < k else terms
    outside = _outside(top, k)
    for eta, i in reversed(chain):
        out = _J_CACHE[eta] = _swap_step(out, eta, i, outside) if i else _raise_step(out, eta)
    return out


def _raise_step(j_nu, eta):
    """J_(Phi nu) = (alpha (nu_1 + 1) + N - #{j > 1: nu_j > nu_1}) Phi J_nu,
    where eta = Phi nu: nu_1 + 1 = eta_N, and the nu_j with j > 1 are the
    eta_k with k < N.  The factor joins the pending ones: a raising chain
    at N = 1 would otherwise store d_(k) z^k, whose coefficients grow with
    k, at every k on it."""
    pending, k, terms = j_nu
    top = eta[-1]
    b = len(eta) - sum(1 for p in eta[:-1] if p >= top)
    return pending * Factored([(top, b)]), k, {e[1:] + (e[0] + 1,): c for e, c in terms.items()}


def _swap_step(j_mu, eta, i, outside):
    """J_eta = (delta s_i J_mu - J_mu) / (delta - 1) for eta with a descent
    at i, where mu = s_i eta is ascending at i and delta = alpha a + b is
    its eigenvalue gap at i, a = mu_i - mu_(i+1) != 0.  The pending factors
    of J_mu are multiplied in first, packed.  A remainder, or a quotient
    with a bit in `outside`, raises ArithmeticError naming eta."""
    pending, k, terms = j_mu
    scale = pending.at(k)
    if scale != 1:
        terms = {e: c * scale for e, c in terms.items()}
    j = i - 1
    (m1, c1), (m2, c2) = combinat.eigenvalue_offsets(combinat.swap_parts(eta, i))[j:i + 1]
    a, b = m1 - m2, c2 - c1
    delta = (a << k) + b
    swapped = {e[:j] + (e[i], e[j]) + e[i + 1:]: c for e, c in terms.items()}
    out = {}
    for e in terms.keys() | swapped.keys():
        num = delta * swapped.get(e, 0) - terms.get(e, 0)
        if num:
            q, r = divmod(num, delta - 1)
            if r or q & outside:
                raise ArithmeticError(f"J_{eta}: the swap step at {e} " + (
                    f"does not divide by {AlphaRational((b - 1, a))}" if r
                    else "leaves a digit outside the bound of the chain"))
            out[e] = q
    return Factored(), k, out


def build_E(eta) -> MultiPoly:
    """The monic polynomial with leading monomial z^eta that is a joint
    eigenfunction of the commuting first-order operators: the packed J_eta
    divided by `Factored.over` over d_eta / pending.  The pending factors are
    the ratios d_(Phi nu)/d_nu of the raising steps since the last swap, so
    they divide d_eta, and the quotient is a denominator."""
    eta = combinat.as_composition(eta)
    out = _E_CACHE.get(eta)
    if out is None:
        pending, k, terms = _packed_integral(eta)
        den = scalars.node_ratio(eta, ("d",)) / pending
        out = _E_CACHE[eta] = MultiPoly(len(eta), den.over(terms, k))
    return out


# ---------------------------------------------------------------------------
# the symmetric family
# ---------------------------------------------------------------------------

def _orbit_sums(kappa, label):
    """(D, K, {mu: sum}) with P_kappa[mu] = stab(mu) sum / D at each
    partition mu that carries a term, since Sym f at mu is stab(mu) times
    the sum of f over the rearrangements of mu and Sym E_(kappaR) =
    stab(kappa) P_kappa: D = stab(kappa) d_(kappaR) / pending, a Factored
    denominator, and the sum adds the ints of J_(kappaR) at alpha = 2^K at
    the e that sort to mu.  No digit carries: every coefficient of J is in
    Z>=0[alpha], and at alpha = 1 all add up to e(1) < 2^L <= 2^K, so no
    digit sum over any subset of exponents reaches 2^K; a digit outside
    [0, 2^L) raises ArithmeticError naming `label`."""
    eta_r = combinat.reverse_partition(kappa)
    pending, k, terms = _packed_integral(eta_r)
    sums, outside = collections.Counter(), _outside(eta_r, k)
    for e, c in terms.items():
        sums[combinat.sort_to_partition(e)] += c
    for mu, c in sums.items():
        if c & outside:
            raise ArithmeticError(f"{label}: the orbit sum at {mu} has a digit out of bounds")
    den = scalars.node_ratio(eta_r, ("d",), (), combinat.stabilizer_order(kappa)) / pending
    return den, k, sums


def _fill(n: int, dominant: dict) -> MultiPoly:
    """The symmetric polynomial with coefficient dominant[mu] at each
    distinct rearrangement of each partition mu: a value is moved, never added."""
    return MultiPoly(n, {e: c for mu, c in dominant.items() for e in combinat.rearrangements(mu)})


def build_P(kappa, n: int = None) -> MultiPoly:
    """The monic symmetric polynomial Sym E_(kappaR) / stab(kappa), kappa
    padded with zeros or cut of trailing zeros to n parts when n is given:
    stab(mu) s / D for each packed orbit sum s of `_orbit_sums`, divided as E
    is, stab(mu) inside the integer gcd of `Factored.over`, then `_fill`."""
    kappa = combinat.as_partition(kappa)
    if n is not None:
        if any(kappa[n:]):
            raise ValueError(f"partition {kappa} longer than N={n}")
        kappa = kappa[:n] + (0,) * (n - len(kappa))
    out = _P_CACHE.get(kappa)
    if out is None:
        den, k, sums = _orbit_sums(kappa, f"P_{kappa}")
        out = _P_CACHE[kappa] = _fill(len(kappa), den.over(sums, k, combinat.stabilizer_order))
    return out


# ---------------------------------------------------------------------------
# the anti-symmetric family
# ---------------------------------------------------------------------------

def build_S(rho_plus) -> MultiPoly:
    """The Vandermonde a_delta times the symmetric polynomial for
    eta+ = rho+ - staircase at alpha/(alpha+1); monic with leading monomial
    z^rho+.

    Only the coefficients at strictly decreasing lambda = nu + delta, nu a
    partition of |eta+|, are computed: with P = P_(eta+) at alpha,
    c_lambda = sum_sigma sgn(sigma) P[lambda - sigma delta]
             = sum_mu m_(lambda mu) P[mu],
    where the integer m_(lambda mu) sums sgn(sigma) over the sigma with
    sort(lambda - sigma delta) = mu, since P is symmetric.  With
    P[mu] = stab(mu) sum_mu / D from `_orbit_sums`, D c_lambda is summed in
    Z[alpha] and substituted alpha -> alpha/(alpha+1), a ring homomorphism:
    each D c_lambda, of degree at most B, goes to a numerator over
    (alpha+1)^B, and D to `D.shifted()`, one Factored denominator for all,
    the numerators packed at a k with 2^(k-1) above their l1 norms.  The signed
    rearrangements sigma delta, walked once, serve the sum and the write:
    lambda has distinct parts, so lambda o sigma is lambdaR read at sigma
    delta, where sgn(sigma) c_lambda goes, exact as S is antisymmetric."""
    rho_plus = combinat.as_partition(rho_plus)
    out = _S_CACHE.get(rho_plus)
    if out is not None:
        return out
    n = len(rho_plus)
    if not combinat.has_distinct_parts(rho_plus):
        raise ValueError(f"{rho_plus} must be strictly decreasing")
    delta = combinat.staircase(n)
    eta_plus = tuple(r - d for r, d in zip(rho_plus, delta))
    den, k, p = _orbit_sums(eta_plus, f"S_{rho_plus}")
    p = {mu: poly_mul(unpack(s, k), (combinat.stabilizer_order(mu),)) for mu, s in p.items()}
    shifted = den.shifted()
    alternant = combinat.signed_rearrangements(delta)  # the terms of the Vandermonde
    sums = {}
    for nu in combinat.partitions(sum(eta_plus), n):
        lam = tuple(map(operator.add, nu, delta))
        m = collections.Counter()
        for d, odd in alternant:
            diff = tuple(map(operator.sub, lam, d))
            if min(diff) >= 0:
                m[combinat.sort_to_partition(diff)] += -1 if odd else 1
        sums[lam] = functools.reduce(poly_add, (poly_mul(p[mu], (k,))
                                                for mu, k in m.items() if k and mu in p), ())
    big = max([-shifted.forms.get((1, 1), 0), *(len(c) - 1 for c in sums.values())])
    den = shifted * Factored([(1, 1)] * big)
    sums = {lam: homogeneous_compose(s, (0, 1), (1, 1), big) for lam, s in sums.items()}
    k = pack_width(max(sum(map(abs, c)) for c in sums.values()))
    terms = {}
    for lam, c in den.over({lam: pack(s, k) for lam, s in sums.items()}, k).items():
        lam_r, by_parity = lam[::-1], (c, -c)
        for d, odd in alternant:
            terms[tuple(map(lam_r.__getitem__, d))] = by_parity[odd]
    out = _S_CACHE[rho_plus] = MultiPoly(n, terms)
    return out

