"""Construction of the three Jack families, and the integral forms the
checks read.

E is built through J_eta = d_eta E_eta, whose coefficients lie in
Z>=0[alpha] (F. Knop and S. Sahi, Invent. Math. 128, 1997), held as
{exponent: int} times the raising factors not yet multiplied in (a
`qalpha.Factored`), each int the coefficient at alpha = 2^K (Kronecker
substitution: J. von zur Gathen and J. Gerhard, Modern Computer Algebra,
8.4).  J is walked down a chain of raising and swap steps to a cached or
zero label and built back up: a raising step relabels and records one
linear factor, a swap step is one big-integer multiply and one exact
divmod per coefficient, so the chain takes no polynomial gcd.  Every
coefficient of J_nu is at most e_nu(1) <= prod_i (nu_i + N)!/N! at
alpha = 1, which never shrinks up the chain, so every digit on the chain
below eta lies in [0, 2^L) for the L of that bound at eta.  A swap step
divides delta u - v by delta - 1 = alpha a + b - 1; with
2^K > (2|a| + |b| + |b - 1| + 1)(2^L - 1), when u, v and the quotient have
digits in [0, 2^L) the two sides differ by a polynomial with coefficients
below 2^K in size that vanishes at 2^K, that is, by zero; so a remainder,
or a quotient digit outside [0, 2^L), raises.  E is J over d_eta/pending,
made canonical by trial division at 2^K (`Factored.over`).

P and S are computed at dominant exponents from packed forms made once
per build, then written to the distinct rearrangements of each exponent
(`combinat.signed_rearrangements`, never the N! permutations).
Sym E_(kappaR) = stab(kappa) P_kappa (T. H. Baker and P. J. Forrester,
q-alg/9707001), so P sums the ints of the one chain at kappaR by sorted
exponent, over one Factored D.  S, the Vandermonde a_delta times P at
alpha/(alpha+1), is fixed by its coefficients at the strictly decreasing
lambda = nu + delta (a_delta s_nu = a_(nu+delta): I. G. Macdonald,
Symmetric Functions and Hall Polynomials, I.3), integer combinations of
the same orbit sums, substituted once, and carries sgn(pi) times them at
lambda o pi.  `integral` serves each family as s f = g over Z[alpha],
made and unpacked once per label and kept in _FORMS: J = d E; h P, one
exact int division of each orbit sum, its digits in [0, 2^L) as h P is in
Z>=0[alpha] (Macdonald, VI.10) with h P(1^N) = b at most the chain's
bound at alpha = 1; and S over the denominator its build forms.  verify's
rows read these forms, and its row integral.tie holds them to the printed
E, P and S.  Everything is cached by label and never mutated.
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
# (family, label): the (s, g) that `integral` serves, g = s f over Z[alpha]
_FORMS: dict = {}


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
    ints times the raising factors `pending`, its digits in [0, 2^L), L < K.
    The chain of predecessors (one raising or swap step each) is walked down
    to a cached or zero label and built back up, every label on it cached at
    the chain's K, or the cached label's K when that is larger."""
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
    """J_(Phi nu) = (alpha (nu_1 + 1) + N - #{j > 1: nu_j > nu_1}) Phi J_nu for
    eta = Phi nu: nu_1 + 1 = eta_N, the nu_j with j > 1 the eta_k with k < N.
    The factor joins the pending ones: a raising chain at N = 1 would
    otherwise store d_(k) z^k, whose coefficients grow with k, at every k."""
    pending, k, terms = j_nu
    top = eta[-1]
    b = len(eta) - sum(1 for p in eta[:-1] if p >= top)
    return pending * Factored([(top, b)]), k, {e[1:] + (e[0] + 1,): c for e, c in terms.items()}


def _swap_step(j_mu, eta, i, outside):
    """J_eta = (delta s_i J_mu - J_mu) / (delta - 1) for eta with a descent at
    i, mu = s_i eta ascending at i, delta = alpha a + b its eigenvalue gap
    at i, a != 0, J_mu's pending factors multiplied in first.  A remainder,
    or a quotient with a bit in `outside`, raises naming eta."""
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
    """The monic joint eigenfunction with leading monomial z^eta: the packed
    J_eta made canonical by `Factored.over` over d_eta / pending, a
    denominator, since the pending ratios d_(Phi nu)/d_nu divide d_eta."""
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
    """(D, K, {mu: sum}): P_kappa[mu] = stab(mu) sum / D,
    D = stab(kappa) d_(kappaR) / pending, sum the ints of J_(kappaR) at the e
    that sort to mu.  No digit carries, as J is in Z>=0[alpha] with e(1) < 2^L
    at alpha = 1; a digit outside [0, 2^L) raises naming `label`."""
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


def _fill(dominant: dict) -> dict:
    """dominant[mu] at each distinct rearrangement of each partition mu, moved, never added."""
    return {e: c for mu, c in dominant.items() for e in combinat.rearrangements(mu)}


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
        nums = den.over(sums, k, combinat.stabilizer_order)
        out = _P_CACHE[kappa] = MultiPoly(len(kappa), _fill(nums))
    return out


# ---------------------------------------------------------------------------
# the anti-symmetric family
# ---------------------------------------------------------------------------

def _alternant_numerators(rho_plus):
    """(s, k, {lambda: num}) with S_rho+[lambda] = num/s at
    each strictly decreasing lambda = nu + delta, eta+ = rho+ - delta, with a
    term.  With P = P_(eta+), a_delta P has c_lambda = sum_sigma sgn(sigma)
    P[lambda - sigma delta] = sum_mu m_(lambda mu) P[mu] there, the int
    m_(lambda mu) summing sgn(sigma) over sort(lambda - sigma delta) = mu.
    D c_lambda, P[mu] = stab(mu) sum_mu / D, is summed in Z[alpha], and
    alpha -> alpha/(alpha+1), a ring homomorphism, takes it to a numerator
    over (alpha+1)^B and D to `D.shifted()`: s = D.shifted() (alpha+1)^B."""
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
        sums[lam] = functools.reduce(poly_add, (poly_mul(p[mu], (c,))
                                                for mu, c in m.items() if c and mu in p), ())
    big = max([-shifted.forms.get((1, 1), 0), *(len(c) - 1 for c in sums.values())])
    den = shifted * Factored([(1, 1)] * big)
    sums = {lam: homogeneous_compose(s, (0, 1), (1, 1), big) for lam, s in sums.items()}
    k = pack_width(max(sum(map(abs, c)) for c in sums.values()))
    return den, k, {lam: pack(s, k) for lam, s in sums.items() if s}


def _signed_fill(n: int, dominant: dict) -> dict:
    """{lambda o sigma: sgn(sigma) c} for each lambda: c of dominant, lambda o
    sigma being lambdaR read at the signed rearrangement sigma delta."""
    alternant, out = combinat.signed_rearrangements(combinat.staircase(n)), {}
    for lam, c in dominant.items():
        lam_r, by_parity = lam[::-1], (c, -c)
        for d, odd in alternant:
            out[tuple(map(lam_r.__getitem__, d))] = by_parity[odd]
    return out


def build_S(rho_plus) -> MultiPoly:
    """The Vandermonde a_delta times P_(rho+ - delta) at alpha/(alpha+1),
    monic at z^rho+: `_alternant_numerators` made canonical, then signed."""
    rho_plus = combinat.as_partition(rho_plus)
    out = _S_CACHE.get(rho_plus)
    if out is None:
        den, k, nums = _alternant_numerators(rho_plus)
        out = _S_CACHE[rho_plus] = MultiPoly(len(rho_plus), _signed_fill(len(rho_plus),
                                                                         den.over(nums, k)))
    return out


# ---------------------------------------------------------------------------
# the integral forms the checks read
# ---------------------------------------------------------------------------

def integral(family: str, label) -> tuple:
    """(s, g), cached, with s f = g for f = build_E, build_P or build_S at
    the label (family "E", "P" or "S"): s = d, h or S's denominator, g a
    MultiPoly whose coefficients are the int tuples of Z[alpha], unpacked
    once from the ints at alpha = 2^k its family is formed at.  h/D is
    pending / prod_j (alpha kappa_j + N - j + 1), as P.value-and-hook
    checks; a remainder or a digit of h P out of bounds raises."""
    if family not in ("E", "P", "S"):
        raise ValueError(f"unknown family {family!r}")
    label = (combinat.as_composition if family == "E" else combinat.as_partition)(label)
    if (family, label) in _FORMS:
        return _FORMS[family, label]
    if family == "E":
        pending, k, terms = _packed_integral(label)
        s, scale = scalars.node_ratio(label, ("d",)), pending.at(k)
        terms = {e: c * scale for e, c in terms.items()}
    elif family == "P":
        den, k, sums = _orbit_sums(label, f"P_{label}")
        s = scalars.node_ratio(label, ("h",))
        num, den = s.at(k), den.at(k)
        outside, hp = _outside(combinat.reverse_partition(label), k), {}
        for mu, c in sums.items():
            q, r = divmod(num * combinat.stabilizer_order(mu) * c, den)
            if r or q & outside:
                raise ArithmeticError(f"P_{label}: h P at {mu} " + (
                    "is not in Z[alpha]" if r else "has a digit out of bounds"))
            hp[mu] = q
        terms = _fill(hp)
    else:
        s, k, nums = _alternant_numerators(label)
        terms = _signed_fill(len(label), nums)
    g = MultiPoly._raw(len(label), {e: unpack(c, k) for e, c in terms.items()})
    out = _FORMS[family, label] = s, g
    return out
