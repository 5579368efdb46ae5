"""Registry of verification checks and the report the CLI prints.

Every check is one row of CHECKS: its limits as data, a generator that
streams the cases of the effective sweep, and a test that returns a witness
for a failing case (naming the offending label and both values) or None
when the case holds.  One runner holds the requested bounds to the row's
limits, counts the cases, stops at the first witness, and reports the
effective bounds, the number of cases and every bound a limit cut
(`clamped`).  Checks are independent of one another and may run in
parallel worker processes.

Every row that states an identity between the families decides it as one
equation between two sides cleared into Z[alpha], a proportionality
together with its constant, at one point alpha = 2^K: E.eigen-triangular,
E.value-at-ones, E.swap-action, P.symmetric-eigen-dominance, P.two-routes,
sym.proportionality, asym.proportionality, asym.du-expansion, and the
kernel and binomial rows.  As l1(pq) <= l1(p) l1(q) and
l1(p + q) <= l1(p) + l1(q) for l1(c) = sum |c_i|, a row bounds l1 of
every coefficient of both sides by some B from the l1 norms of its cleared
inputs alone, not from the identity; it takes 2^(K-1) > B (`_point`, by
`qalpha.pack_width`), packs each input once, every closed form a Factored
packed by `at(K)` with l1 at most `l1_bound()` and a kernel read packed
(`polyalg.kernel_numerators`), and forms both sides on ints.
Two elements of Z[alpha] with coefficients in (-2^(K-1), 2^(K-1)) and one
value at 2^K are equal: at the lowest nonzero coefficient c_j of their
difference, 2^(Kj) (c_j + 2^K m) = 0 would need 2^K | c_j.  So the sides
agree iff their ints do, and a witness prints the ints' balanced base-2^K
digits, the sides' Z[alpha] values.  An input with a denominator is
refused, with a witness that prints it.  xi.commutation runs at the point
too, on random polynomials cleared of denominators, and the alpha-free
divided-difference.multiply-back on ints.  The closed-form rows compare
Factored ratios by content and forms, primes of Z[alpha], so by value, the
oracle rows Fractions: only the controls add or multiply in Q(alpha).  Sym
and Asym sum each orbit once, the Cauchy row each alternant by margin.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import combinat, jack, oracle, polyalg, scalars
from .polyalg import (MultiPoly, antisymmetrize, apply_transposition, cherednik_apply,
                      d2_apply, divided_difference, mul_variable, symmetrize)
from .qalpha import (ONE, AlphaRational, Factored, format_poly, pack, pack_width, times_multiple,
                     unpack)

FIG2_SHAPE = (8, 7, 7, 4, 3, 3, 2, 1, 0)
SOLVE_ALPHAS = (Fraction(2), Fraction(3), Fraction(7, 2))


@dataclass(frozen=True)
class Bounds:
    n_max: int = 4
    deg: int = 5
    ks: tuple = (1, 2)
    rs: tuple = (Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2))


@dataclass
class CheckResult:
    name: str
    params: dict  # effective bounds and fixed settings
    status: str  # pass / fail / skipped
    witness: str = None
    seconds: float = 0.0
    cases: int = 0
    clamped: list = field(default_factory=list)  # {"bound", "requested", "effective"}

    def to_json(self):
        return {"name": self.name, "params": self.params, "status": self.status,
                "cases": self.cases, "clamped": self.clamped,
                "witness": self.witness, "seconds": round(self.seconds, 4)}


@dataclass
class VerifyReport:
    results: list = field(default_factory=list)

    @property
    def counts(self):
        c = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            c[r.status] += 1
        return c

    @property
    def ok(self):
        return self.counts["fail"] == 0

    def to_json(self):
        return {"checks": [r.to_json() for r in self.results],
                "summary": self.counts,
                "total_seconds": round(sum(r.seconds for r in self.results), 4)}

    def to_text(self):
        lines = []
        width = max((len(r.name) for r in self.results), default=10)
        for r in self.results:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            lines.append(f"{mark}  {r.name:<{width}}  [{params}]  cases={r.cases}"
                         f"  ({r.seconds:.2f}s)")
            if r.clamped:
                lines.append("      clamped: " + ", ".join(
                    f"{c['bound']} {c['requested']} -> {c['effective']}" for c in r.clamped))
            if r.witness:
                lines.append(f"      witness: {r.witness}")
        c = self.counts
        lines.append(f"{c['pass']} passed, {c['fail']} failed, {c['skipped']} skipped")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# rows and their runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    """The effective bounds of one row: what its cases cover."""
    ns: tuple
    deg: int
    caps: dict
    ks: tuple
    rs: tuple

    def cap(self, where):
        """The degree cap at a variable count or a named sub-sweep."""
        return self.caps.get(where, self.deg)


@dataclass(frozen=True)
class Check:
    """One registry row, callable as bounds -> CheckResult.  Its limits are
    data: it sweeps N = 2 up to the requested N held to the range `ns`, and
    the requested degree held to `deg`; `caps` lowers the degree cap at a
    variable count (int key) or for a named sub-sweep (str key).  `k` and
    `r` mark rows that sweep the requested k or r values; `needs_k` fixes
    the k values instead (skipped unless all are requested).  `fixed`
    records settings no bound changes."""
    name: str
    cases: Callable  # Sweep -> iterable of argument tuples, in sweep order
    test: Callable  # (*case) -> witness string, or None when the case holds
    ns: tuple = (2, 3)
    deg: tuple = None
    caps: dict = field(default_factory=dict)
    k: bool = False
    needs_k: tuple = ()
    r: bool = False
    fixed: dict = field(default_factory=dict)

    def __call__(self, bounds: Bounds) -> CheckResult:
        params, clamped = {}, []

        def hold(bound, requested, lo, hi):
            effective = min(max(requested, lo), hi)
            if effective != requested:
                clamped.append({"bound": bound, "requested": requested,
                                "effective": effective})
            return effective

        def result(status, witness=None, cases=0):
            return CheckResult(self.name, params, status, witness,
                               cases=cases, clamped=clamped)

        ns = ()
        if self.ns is not None:
            ns = tuple(range(2, hold("N", bounds.n_max, *self.ns) + 1))
            params["N"] = list(ns)
        deg, caps = None, {}
        if self.deg is not None:
            deg = params["deg"] = hold("deg", bounds.deg, *self.deg)
            for where, cap in self.caps.items():
                if isinstance(where, int) and where not in ns:
                    continue
                bound = f"deg(N={where})" if isinstance(where, int) else f"deg({where})"
                caps[where] = hold(bound, bounds.deg, self.deg[0], cap)
                if caps[where] != deg:
                    params[bound] = caps[where]
        ks = tuple(bounds.ks)
        if self.needs_k:
            if not set(self.needs_k) <= set(ks):
                return result("skipped", "needs k in {%s}" % ",".join(map(str, self.needs_k)))
            if set(ks) != set(self.needs_k):
                clamped.append({"bound": "k", "requested": list(ks),
                                "effective": list(self.needs_k)})
            ks = self.needs_k
        if self.k or self.needs_k:
            params["k"] = list(ks)
        if self.r:
            params["r"] = [str(r) for r in bounds.rs]
        params.update(self.fixed)

        cases = 0
        try:
            for case in self.cases(Sweep(ns, deg, caps, ks, tuple(bounds.rs))):
                cases += 1
                witness = self.test(*case)
                if witness is not None:
                    return result("fail", witness, cases)
        except _Refused as exc:
            return result("fail", str(exc), cases)
        except Exception as exc:  # a crash is a failing check, not a crash of the run
            return result("fail", f"exception: {exc!r}", cases)
        return result("pass", cases=cases)


def _differ(label, got, want, k=None):
    """The witness for got != want, or None.  Polynomials, kernels and
    coefficient dicts are named by the first differing monomial in sorted
    order with both coefficients there (0 for an absent one); scalars by
    both values.  With k the values are ints at alpha = 2^k, printed as
    their balanced digits.  Nothing is formatted when the two agree."""
    if got == want:
        return None
    if isinstance(got, MultiPoly):
        got, want = got.terms, want.terms
    show = str if k is None else lambda v: format_poly(unpack(v, k))
    if isinstance(got, dict):
        key = min(e for e in got.keys() | want.keys() if got.get(e, 0) != want.get(e, 0))
        return f"{label}: at {key}: {show(got.get(key, 0))} != {show(want.get(key, 0))}"
    return f"{label}: {show(got)} != {show(want)}"


def _first(witnesses):
    """The first witness of a lazy sequence of sub-cases, or None."""
    return next(filter(None, witnesses), None)


class _Refused(ArithmeticError):
    """A cleared input outside Z[alpha]; its message is the row's witness."""


def _point(label, bound, *fs):
    """K = pack_width(bound), then each f over Z[alpha] packed at alpha = 2^K;
    a denominator raises _Refused, naming the first monomial with one."""
    for f in fs:
        if bad := [e for e, c in f.terms.items() if c.den != (1,)]:
            raise _Refused(f"{label}: at {min(bad)}: {f.terms[min(bad)]} not in Z[α]")
    k = pack_width(bound)
    return (k, *(MultiPoly._raw(f.nvars, {e: pack(c.num, k) for e, c in f.terms.items()})
                 for f in fs))


def _l1(p):
    """sum |p_i| of an int tuple p; _norms(f) is l1 of each coefficient, [0] for f = 0."""
    return sum(map(abs, p))


def _norms(f):
    return [_l1(c.num) for c in f.terms.values()] or [0]


_INTEGRAL: dict = {}


def _integral(family, label, f):
    """s f in Z[alpha] for the cached f = E, P or S and s = d, h or d(rho+):
    J = d E (F. Knop and S. Sahi, Invent. Math. 128, 1997), J = h P (I. G.
    Macdonald, Symmetric Functions and Hall Polynomials, VI.10), by
    times_multiple.  Kept per (family, label, id(f)) with f, whose id no
    other object takes while the entry lives; polynomials are never mutated,
    so only f itself is served the kept value, and a perturbed or rebuilt f
    is cleared afresh."""
    kept = _INTEGRAL.get((family, label, id(f)))
    if kept is None:
        s = scalars.const_h(label) if family == "P" else scalars.const_d(label)
        kept = _INTEGRAL[family, label, id(f)] = f, f.map_coeff(lambda c: times_multiple(c, s.num))
    return kept[1]


def _monic_below(label, f, lead, below):
    """The witness unless f has coefficient 1 at `lead` and every other
    monomial e of f satisfies below(e)."""
    witness = _differ(f"{label}: leading coefficient", f.coeff(lead), ONE)
    if witness:
        return witness
    above = [e for e in f.terms if e != lead and not below(e)]
    if not above:
        return None
    e = min(above)
    return _differ(f"{label}: monomial {e} not below the label", f.terms[e], 0)


def _compositions(s):
    """(eta,) for each swept N and composition eta up to the cap at N."""
    for n in s.ns:
        for eta in combinat.compositions_upto(s.cap(n), n):
            yield (eta,)


def _partitions(s):
    """(kappa, N) for each swept N and partition kappa up to the cap at N."""
    for n in s.ns:
        for kappa in combinat.partitions_upto(s.cap(n), n):
            yield kappa, n


def _kernels(s):
    """(N, D): one truncated kernel per swept N at the degree D."""
    return ((n, s.deg) for n in s.ns)


def _staircase_shapes(n, size):
    """(eta+, rho+) with rho+ = eta+ + staircase strictly decreasing, |rho+| <= size."""
    delta = combinat.staircase(n)
    for ep in combinat.partitions_upto(size - sum(delta), n):
        yield ep, tuple(p + d for p, d in zip(ep, delta))


def _shifted_shapes(s):
    """(eta+, rho+) for each swept N and |eta+| <= deg."""
    for n in s.ns:
        yield from _staircase_shapes(n, s.deg + n * (n - 1) // 2)


def _rhos(n, s):
    """(rho,) for every rearrangement of every rho+ with |rho+| <= deg + 1 in
    n variables."""
    for _, rho_plus in _staircase_shapes(n, s.deg + 1):
        for rho in combinat.rearrangements(rho_plus):
            yield (rho,)


def _basis(family, n, d):
    """The degree-d block of a family in n variables: each label in ascending
    order (composition order for E, dominance for P) with its E or P."""
    if family == "E":
        labels = sorted(combinat.compositions(d, n), key=combinat.composition_order_key)
        return {eta: jack.build_E(eta) for eta in labels}
    labels = sorted(combinat.partitions(d, n), key=combinat.dominance_key)
    return {kappa: jack.build_P(kappa, n) for kappa in labels}


# ---------------------------------------------------------------------------
# construction, symmetric and anti-symmetric family checks
# ---------------------------------------------------------------------------

# the construction sweep: |eta| <= 5 for N = 2, 3 and |eta| <= 3 for N = 4
_EIGEN = dict(ns=(2, 4), deg=(0, 5), caps={4: 3})


def _E_witness(f, eta):
    """The joint eigen-equations of f at the eigenvalues of eta, checked on
    g = d_eta f at one point, then monic triangularity: coefficient 1 at
    eta and every other monomial below it."""
    return (_eigen_witness(_integral("E", eta, f), eta)
            or _monic_below(f"eta={eta}", f, eta, lambda e: combinat.composition_lt(e, eta)))


def _xi_bound(g, eta):
    """xi_i maps z^e, |e| <= D, to a sum of l1 at most N D + N (alpha e_i,
    N - 1 divided differences of at most D terms, 1 - i), eigenvalue_i has
    l1 at most |eta| + N: with D the largest of |eta| and the degrees of g,
    N (D + 1) times l1(g) summed over g bounds both sides."""
    return len(eta) * (max(sum(eta), *map(sum, g.terms)) + 1) * sum(_norms(g))


def _eigen_witness(g, eta):
    label = f"eta={eta}: xi_%d dE vs eigenvalue * dE"
    try:
        k, g = _point(label % 1, _xi_bound(g, eta), g)
    except _Refused as exc:  # the controls and the tests call this outside the runner
        return str(exc)
    return _first(_differ(label % i, cherednik_apply(g, i, 1 << k), g.scale((ej << k) - c), k)
                  for i, (ej, c) in enumerate(combinat.eigenvalue_offsets(eta), start=1))


def _value_at_ones(f, eta):
    """E(1^N) = e/d, checked times d_eta at one point: (d E)(1^N) = e, the
    node product e packed by at(K), the left side bounded by the sum of l1
    over d E and the right by l1_bound()."""
    g, e = _integral("E", eta, f), scalars.node_ratio(eta, ("e",))
    label = f"eta={eta}: d E(1^N) vs e"
    k, g = _point(label, max(sum(_norms(g)), e.l1_bound()), g)
    return _differ(label, sum(g.terms.values()), e.at(k), k)


def _integral_witness(eta, f):
    """The witness unless f, meant to be d_eta E_eta, has every coefficient
    in Z>=0[alpha] of alpha-degree at most |eta| (F. Knop and S. Sahi,
    Invent. Math. 128, 1997)."""
    for e, c in sorted(f.terms.items()):
        label = f"eta={eta}: d E at {e}"
        if c.den != (1,):
            return _differ(f"{label}: denominator", AlphaRational(c.den), ONE)
        if len(c.num) - 1 > sum(eta):
            return _differ(f"{label}: α^{len(c.num) - 1} above |eta|", c.num[-1], 0)
        k = next((k for k, v in enumerate(c.num) if v < 0), None)
        if k is not None:
            return _differ(f"{label}: α^{k} below 0", c.num[k], -c.num[k])
    return None


def _swap_action(eta, i):
    """The three-case adjacent-swap action, with both sides built
    independently from the cache, checked on the cleared E at one point.
    For equal parts s_i J = J, J = d E.  Otherwise, with mu = s_i eta,
    delta = alpha a + b the eigenvalue gap at i, L the lcm of d_eta and d_mu
    and c = L/d, so that L E = c J:
    delta^2 s_i(c_eta J_eta) = delta c_eta J_eta + (delta^2 - [eta_i > eta_(i+1)]) c_mu J_mu.
    With l = |a| + |b|, each side is bounded by
    (l + 1)^2 (l1(c_eta) max l1(J_eta) + l1(c_mu) max l1(J_mu))."""
    label = f"eta={eta} i={i}: s_i E"
    g = _integral("E", eta, jack.build_E(eta))
    if eta[i - 1] == eta[i]:
        k, g = _point(label, max(_norms(g)), g)
        return _differ(label, apply_transposition(g, i, i + 1), g, k)
    mu = combinat.swap_parts(eta, i)
    (m1, c1), (m2, c2) = combinat.eigenvalue_offsets(eta)[i - 1:i + 1]
    a, b = m1 - m2, c2 - c1
    dens = [scalars.node_ratio(eta, ("d",)), scalars.node_ratio(mu, ("d",))]
    lcm = Factored.lcm(dens)
    c_eta, c_mu = (lcm / d for d in dens)
    h = _integral("E", mu, jack.build_E(mu))
    k, g, h = _point(label, (abs(a) + abs(b) + 1) ** 2 * (
        c_eta.l1_bound() * max(_norms(g)) + c_mu.l1_bound() * max(_norms(h))), g, h)
    delta = (a << k) + b
    g, square = g.scale(c_eta.at(k)), delta * delta
    rhs = g.scale(delta) + h.scale(c_mu.at(k) * (square - 1 if eta[i - 1] > eta[i] else square))
    return _differ(label, apply_transposition(g, i, i + 1).scale(square), rhs, k)


def _random_cases(s, seed, trials, draws, top, cap, coeff, keep):
    """(g, i, j) for each index pair with keep(i, j) and `trials` seeded
    random f per N, each of `draws` exponents with parts <= top given the
    coefficient coeff(rng) if of degree <= cap (a later draw replaces an
    earlier), and g = f times the lcm of its denominators, with int terms."""
    rng = random.Random(seed)
    for n in s.ns:
        for _ in range(trials):
            terms = {}
            for _ in range(draws):
                e = tuple(rng.randrange(0, top + 1) for _ in range(n))
                if sum(e) <= cap:
                    terms[e] = coeff(rng)
            m = math.lcm(*(c.denominator for c in terms.values()))
            g = MultiPoly(n, {e: c.numerator * (m // c.denominator) for e, c in terms.items()})
            yield from ((g, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if keep(i, j))


def _xi_commute(g, i, j):
    """xi_i xi_j g = xi_j xi_i g at alpha = 2^K, g an int multiple of a random
    f (xi is linear) with int coefficients: one xi multiplies l1 summed over
    the terms by at most N (D + 1), D the degree of g (_xi_bound)."""
    n, deg = g.nvars, max(map(sum, g.terms), default=0)
    k = pack_width((n * (deg + 1)) ** 2 * sum(map(abs, g.terms.values())))
    a = 1 << k
    lhs = cherednik_apply(cherednik_apply(g, j, a), i, a)
    rhs = cherednik_apply(cherednik_apply(g, i, a), j, a)
    return None if lhs == rhs else _differ(f"N={n} g={g}: xi_{i} xi_{j} vs xi_{j} xi_{i}",
                                           lhs, rhs, k)


def _multiply_back(f, i, p):
    """(z_i - z_p) DD_ip f = f - s_ip f, on the ints of f: no alpha appears."""
    dd = divided_difference(f, i, p)
    lhs, rhs = mul_variable(dd, i) - mul_variable(dd, p), f - apply_transposition(f, i, p)
    return None if lhs == rhs else _differ(f"N={f.nvars} ({i},{p}) f={f}", lhs, rhs)


def _P_witness(p, kappa):
    """Symmetry, the eigen-equation of alpha D2 on g = h P at one point, and
    monic dominance triangularity of the monomial expansion at kappa.  The
    eigen-equation alpha D2 g = c g is decided as g_e (alpha D2 g) =
    (alpha D2 g)_e g at the leading monomial e of g.  alpha D2 maps z^e,
    |e| <= D, to a sum of l1 at most D^2 + 2 (N - 1) D (D + 1) <= 2 N (D + 1)^2,
    which times l1(g) summed over g and at its largest bounds both sides."""
    g, label = _integral("P", kappa, p), f"kappa={kappa}: α D2 hP vs c hP"
    norms, deg = _norms(g), max(map(sum, g.terms))
    k, g = _point(label, 2 * p.nvars * (deg + 1) ** 2 * sum(norms) * max(norms), g)
    witness = _first(_differ(f"kappa={kappa}: s_{i} P vs P", apply_transposition(p, i, i + 1), p)
                     for i in range(1, p.nvars))
    if witness:  # alpha D2 takes symmetric input only
        return witness
    f, (e, lead) = d2_apply(g, 1 << k), g.lead_term()
    return (_differ(label, f.scale(lead), g.scale(f.terms.get(e, 0)), k)
            or _monic_below(f"kappa={kappa}", p, kappa, lambda e: combinat.dominance_leq(
                combinat.sort_to_partition(e), kappa)))


def _two_routes(kappa, n):
    """h P, with P built from the one chain at the increasing rearrangement,
    times the lcm L of the d_eta d'_eta is h L d'(kappa) sum_eta J_eta /
    (d_eta d'_eta) over every monomial of each J_eta; and (h P)(1^N) is h
    times each closed form of P(1^N), Factored.  At one point, bounded by
    l1(L) max l1(h P) and by l1 of each cofactor times the largest l1 of J."""
    dens = {eta: scalars.node_ratio(eta, ("d", "dp")) for eta in combinat.rearrangements(kappa)}
    lcm = Factored.lcm(list(dens.values()))
    h, label = scalars.node_ratio(kappa, ("h",)), f"kappa={kappa} N={n}"
    scale = h * lcm * scalars.node_ratio(kappa, ("dp",))
    routes = [(scale * pending / dens[eta], {e: unpack(c, k) for e, c in j.items()})
              for eta in dens for pending, k, j in [jack._packed_integral(eta)]]
    closed = {name: h * form for name, form in zip(
        ("b/h", "N!/stab e/d"), scalars.P_at_ones_forms(kappa))}
    hp = _integral("P", kappa, jack.build_P(kappa, n))
    k, hp = _point(label, max(lcm.l1_bound() * max(_norms(hp)), sum(_norms(hp)), *(
        form.l1_bound() for form in closed.values()), sum(
        c.l1_bound() * max(map(_l1, terms.values())) for c, terms in routes)), hp)
    total = {}
    for c, terms in routes:
        c = c.at(k)
        for e, t in terms.items():
            total[e] = total.get(e, 0) + c * pack(t, k)
    return (_differ(f"{label}: h L P vs h d' sum L J/(d d')", hp.scale(lcm.at(k)).terms,
                    {e: c for e, c in total.items() if c}, k)
            or _first(_differ(f"{label}: hP(1^N) vs h {name}", sum(hp.terms.values()),
                              form.at(k), k) for name, form in closed.items()))


def _P_stability(kappa, n):
    """Setting any one variable to zero drops to the same polynomial in one
    fewer variable, so every monomial of P is compared."""
    p, fewer = jack.build_P(kappa, n).terms, jack.build_P(kappa, n - 1).terms
    return _first(_differ(f"kappa={kappa} N={n}: P at z_{j + 1} = 0 vs P in N - 1 variables",
                          {e[:j] + e[j + 1:]: c for e, c in p.items() if e[j] == 0}, fewer)
                  for j in range(n))


def _sym_proportional(eta):
    """Sym E_eta is a multiple c of P_(eta+), and evaluation at 1^N forces
    c P(1^N) = N! E_eta(1^N), so c = N! e h/(d b).  Both are checked as one
    equation, times d_eta b, at one point: b Sym(d E) = N! e h P, that is
    Sym(d E) = c' h P with c' = c d/h.  No other closed form for c is
    claimed.  A coefficient of Sym(d E) sums N! coefficients of d E, so
    l1(b) N! max l1(d E) and l1(N! e) max l1(h P) bound the two sides."""
    kappa, n = combinat.sort_to_partition(eta), len(eta)
    label = f"eta={eta}: Sym d E vs c' h P"
    g = _integral("E", eta, jack.build_E(eta))
    hp = _integral("P", kappa, jack.build_P(kappa, n))
    b, e = scalars.node_ratio(kappa, ("b",)), scalars.node_ratio(eta, ("e",), (), math.factorial(n))
    k, g, hp = _point(label, max(b.l1_bound() * math.factorial(n) * max(_norms(g)),
                                 e.l1_bound() * max(_norms(hp))), g, hp)
    return _differ(label, symmetrize(g).scale(b.at(k)), hp.scale(e.at(k)), k)


def _hook_cases(s):
    """(kappa, with_norm) for |kappa| <= deg + 1 per N, then the 9-part shape
    (whose norm forms are not compared)."""
    for n in s.ns:
        for kappa in combinat.partitions_upto(s.deg + 1, n):
            yield kappa, True
    yield FIG2_SHAPE, False


def _value_and_hook(kappa, with_norm):
    """h(kappa)/stab(kappa) == d(kappaR) / prod_j (alpha*kappa_j + N - j + 1),
    whose product runs over all N rows: the factors N - j + 1 of empty rows
    are matched by the zero-part permutations inside stab, not by any
    diagram node.  Then the two forms of P(1^N), and with_norm the two forms
    of the norm ratio, agree."""
    d_r = scalars.node_ratio(combinat.reverse_partition(kappa), ("d",))
    denom = Factored((part, len(kappa) - j + 1) for j, part in enumerate(kappa, start=1))
    h = scalars.node_ratio(kappa, ("h",), (), Fraction(1, combinat.stabilizer_order(kappa)))
    witness = (_differ(f"kappa={kappa}: h/stab vs d(kappaR)/prod", h, d_r / denom)
               or _differ(f"kappa={kappa}: P(1^N) b/h vs N!/stab e/d",
                          *scalars.P_at_ones_forms(kappa)))
    if witness or not with_norm:
        return witness
    return _differ(f"kappa={kappa}: norm ratio bd'/(e'h) vs N!/stab route",
                   *scalars.norm_ratio_P_forms(kappa))


def _asym_cases(s):
    """Per N: (E_rho, S_rho+, rho) for every distinct-part rho of _rhos, then
    (E_eta, None, eta) for every composition eta with a repeated part up to
    the `repeated` cap plus one (Asym E must vanish)."""
    for n in s.ns:
        if n * (n - 1) // 2 > s.deg + 1:
            continue
        for (rho,) in _rhos(n, s):
            yield jack.build_E(rho), jack.build_S(combinat.sort_to_partition(rho)), rho
        for eta in combinat.compositions_upto(s.cap("repeated") + 1, n):
            if not combinat.has_distinct_parts(eta):
                yield jack.build_E(eta), None, eta


def _asym(f, s, rho):
    """Asym E_rho vanishes for repeated parts (s None), and is otherwise
    c S_rho+ with c = (-1)^(ascending pairs of rho) d'(rho)/d'(rhoR), the
    resolved closed form.  Both are checked on d E at the point, the second
    as one equation with c's sign and forms read from
    scalars.c_rho_resolved_ratio: d(rho+) d'(rhoR) Asym(d E) =
    d(rho) c d'(rhoR) (d(rho+) S), whose right cofactor is +-d(rho) d'(rho).
    A coefficient of Asym(d E) sums N! coefficients of d E, signed."""
    g = _integral("E", rho, f)
    a_max = math.factorial(len(rho)) * max(_norms(g))
    if s is None:
        label = f"rho={rho}: Asym d E vs 0"
        k, g = _point(label, a_max, g)
        return _differ(label, antisymmetrize(g), MultiPoly.zero(len(rho)), k)
    rho_plus, label = combinat.sort_to_partition(rho), f"rho={rho}: Asym d E vs c' d S"
    dp_r = scalars.node_ratio(combinat.reverse_partition(rho), ("dp",))
    left = scalars.node_ratio(rho_plus, ("d",)) * dp_r
    right = scalars.node_ratio(rho, ("d",)) * scalars.c_rho_resolved_ratio(rho) * dp_r
    s = _integral("S", rho_plus, s)
    k, g, s = _point(label, max(left.l1_bound() * a_max, right.l1_bound() * max(_norms(s))),
                     g, s)
    return _differ(label, antisymmetrize(g).scale(left.at(k)), s.scale(right.at(k)), k)


def _du_expansion(ep, rho_plus):
    """d(rho+) times the Vandermonde times the shifted P, d(rho+) S, expands
    over the rearrangements nu of rho+ as sum sign(nu) d(nu) E_nu, with
    sign(nu) = (-1)^(ascending pairs of nu); both sides lie in Z[alpha] and
    are compared at one point, the sum bounded by the sum over nu of
    max l1(d(nu) E_nu)."""
    label = f"eta+={ep} N={len(ep)}: d S vs sum over d E"
    nus = combinat.signed_rearrangements(rho_plus)
    s = _integral("S", rho_plus, jack.build_S(rho_plus))
    gs = [_integral("E", nu, jack.build_E(nu)) for nu, _ in nus]
    k, s, *gs = _point(label, max(*_norms(s), sum(max(_norms(g)) for g in gs)), s, *gs)
    acc = MultiPoly.zero(len(rho_plus))
    for (_, odd), g in zip(nus, gs):
        acc = acc - g if odd else acc + g
    return _differ(label, s, acc, k)


def _society(ep, rho_plus):
    """Three diagram-insertion identities tying the staircase-shifted shape
    rho+ = eta+ + staircase back to eta+ at alpha/(alpha+1) (Factored.shifted)."""
    n = len(ep)
    rho_r = combinat.reverse_partition(rho_plus)
    staircase_ratio = scalars.node_ratio(combinat.staircase(n), ("e",), ("ep",))
    return (_differ(f"eta+={ep} N={n}: e/e'(rho+) vs e/e'(staircase) b/e'(eta+)",
                    scalars.node_ratio(rho_plus, ("e",), ("ep",)),
                    staircase_ratio * scalars.node_ratio(ep, ("b",), ("ep",)).shifted())
            or _differ(f"eta+={ep} N={n}: d(rho+)/d'(rhoR) vs h/d'(eta+)",
                       scalars.node_ratio(rho_plus, ("d",)) / scalars.node_ratio(rho_r, ("dp",)),
                       scalars.node_ratio(ep, ("h",), ("dp",)).shifted())
            or _differ(f"eta+={ep} N={n}: e/e'(staircase) vs its product form",
                       staircase_ratio, scalars.staircase_norm_ratio(n)))


def _S_norm_ratio(rho_plus):
    """The anti-symmetric norm ratio N! d'(rhoR) e(rho+) / (d(rho+) e'(rho+)),
    as one factored product."""
    rho_r = combinat.reverse_partition(rho_plus)
    return (scalars.node_ratio(rho_plus, ("e",), ("d", "ep"), math.factorial(len(rho_plus)))
            * scalars.node_ratio(rho_r, ("dp",)))


def _shifted_P_norm_ratio(ep):
    """The symmetric norm ratio bd'/(e'h) of eta+ at alpha/(alpha+1), factored."""
    return scalars.node_ratio(ep, ("b", "dp"), ("ep", "h")).shifted()


def _norm_reconciliation(ep, rho_plus):
    """The two closed forms of the anti-symmetric norm agree as ratios:
    [bd'/(e'h)](alpha/(alpha+1)) * N! * e_delta/e'_delta equals the ratio of
    _S_norm_ratio."""
    n = len(ep)
    black = _shifted_P_norm_ratio(ep) * scalars.node_ratio(combinat.staircase(n), ("e",),
                                                           ("ep",), math.factorial(n))
    return _differ(f"eta+={ep} N={n}: shifted P form vs S form", black, _S_norm_ratio(rho_plus))


# ---------------------------------------------------------------------------
# kernel decompositions, binomial expansions and constant-term oracle checks
# ---------------------------------------------------------------------------

def _kernel_sum(family, n, d, at=None):
    """M and {label: (c, s f)} over the degree-d basis in n variables, with
    c = M / (s d') Factored in Z[alpha], so M sum f(x) f(y) / norm is the sum
    of c (s f)(x) (s f)(y): s = d (u = d'/d) for E and s = h (v = d'/h)
    for P, and M is the Factored lcm of every s d' and of d! alpha^d, the
    kernel's denominator at x-degree d.  s and d' are read at at(label)
    (default: the label)."""
    at = at or (lambda label: label)
    kind = "d" if family == "E" else "h"
    basis = _basis(family, n, d)
    dens = {label: scalars.node_ratio(at(label), (kind, "dp")) for label in basis}
    m = Factored.lcm([Factored([(1, 0)] * d, math.factorial(d)), *dens.values()])
    return m, {label: (m / dens[label], _integral(family, at(label), f))
               for label, f in basis.items()}


def _kernel_block(family, kernel, d, at=None):
    """The residual of one kernel block at one point, as (M K_d, M S_d, K):
    K_d holds the terms of x-degree d of a truncated kernel in x_1..x_n,
    y_1..y_n, S_d the same block of sum f(x) f(y) / norm (E with u_eta, P
    with v_kappa), M is the multiple of _kernel_sum, and both are int term
    dicts at alpha = 2^K.  M holds d! alpha^d, so M K_d is each numerator of
    `kernel` (polyalg.kernel_numerators) times M / (d! alpha^d) in Z[alpha],
    at most l1 of the one times l1 of the other; a coefficient of M S_d is
    at most the sum of l1(c) times the largest l1((s f)_e) squared."""
    k0, blocks, norms = kernel
    n = len(next(iter(blocks[0]))) // 2
    m, terms = _kernel_sum(family, n, d, at)
    cofactor = m / Factored([(1, 0)] * d, math.factorial(d))
    bound = max(cofactor.l1_bound() * norms[d],
                sum(c.l1_bound() * max(_norms(g)) ** 2 for c, g in terms.values()))
    k, *gs = _point(f"N={n} D={d}: M K_d and cleared {family}", bound,
                    *(g for _, g in terms.values()))
    scale = cofactor.at(k)
    block = {e: pack(unpack(v, k0), k) * scale for e, v in blocks[d].items()}
    total = {}
    for (c, _), g in zip(terms.values(), gs):  # summed in place, as the terms are large
        for e, v in g.scale(c.at(k)).outer(g).terms.items():
            total[e] = total.get(e, 0) + v
    return block, {e: c for e, c in total.items() if c}, k


def _decomposition(family, n, bound):
    """The kernel truncated at bound equals its sum over the family, one
    degree block at a time, each taken times its M (_kernel_block)."""
    kernel = polyalg.kernel_numerators(n, bound, family == "E")
    name = "Omega vs sum E x E / u" if family == "E" else "Pi vs sum P x P / v"
    return _first(_differ(f"N={n} D={bound}: {name}", *_kernel_block(family, kernel, d))
                  for d in range(bound + 1))


def _slice(label, block):
    """Both sides of a _kernel_block held to their terms x^label y^*, the
    slices that omega.pairing-diagonal and pi.v-stability compare.

    The degree-d basis is monic and triangular (E.eigen-triangular and
    P.symmetric-eigen-dominance check it), so its pairing matrix against
    the kernel block K_d is diag(1/norm) exactly when
    K_d = sum f(x) f(y) / norm.  The union of the slices x^label over the
    labels of the block is that equality, so a row of slices checks the
    same statement as a diagonal pairing matrix, at every monomial; both
    sides are taken times the same nonzero M, which slices alike, at the
    block's point."""
    n, (*sides, k) = len(label), block
    return [*({e: c for e, c in side.items() if e[:n] == label} for side in sides), k]


def _omega_pairing_cases(s):
    """(eta, N, block) for every composition up to deg: one truncated
    kernel per swept N, and per degree one _kernel_block against the E
    basis."""
    for n in s.ns:
        kernel = polyalg.kernel_numerators(n, s.deg, True)
        for d in range(s.deg + 1):
            block = _kernel_block("E", kernel, d)
            for eta in combinat.compositions(d, n):
                yield eta, n, block


def _v_stability_cases(s):
    """({kappa: block, kappa + (0,): block},) for each consecutive pair of
    swept variable counts N - 1, N and each partition kappa up to deg with
    N - 1 entries: one truncated kernel per N, and per degree one
    _kernel_block against the P basis in N - 1 and in N variables.  The N
    block reads h and d' at the label in N - 1 variables where that label
    exists, so one v_kappa = d'/h serves both."""
    kernels = {n: polyalg.kernel_numerators(n, s.deg, False) for n in s.ns}
    for d in range(s.deg + 1):
        for n in s.ns[1:]:
            fewer = _kernel_block("P", kernels[n - 1], d)
            more = _kernel_block("P", kernels[n], d, lambda k: k if k[-1] else k[:-1])
            for kappa in combinat.partitions(d, n - 1):
                yield {kappa: fewer, kappa + (0,): more},


def _binomial_term(r, e):
    """The coefficient of x^e in prod_j (1 - x_j)^(-r): prod_j (r)_(e_j)/e_j!."""
    return math.prod(Fraction(r + i, i + 1) for part in e for i in range(part))


def _binomial(family, r, n, bound, r_side=None):
    """The product at r against sum alpha^|eta| [r]_(eta+) / d'_eta E_eta over
    compositions (family E), or sum alpha^|kappa| [r]_kappa / d'_kappa P_kappa
    over partitions (family P), with the scalar side at r_side (default r);
    d' is the paper's u d for E and v h for P.  Both sides are taken times
    M, the Factored lcm of q^|label| s d' with r_side = p/q and s = d for E,
    h for P, and compared at one point: the product side is M times
    _binomial_term at each x^e, a Factored refused unless its content is an
    integer, and a coefficient of the sum is at most the sum of l1 of each
    cofactor times the largest l1 of its s f.  Checking several rational r
    certifies the identity in r by the degree bound."""
    r_side = r if r_side is None else r_side
    kind, q = ("d" if family == "E" else "h"), Fraction(r_side).denominator
    basis = {label: f for d in range(bound + 1) for label, f in _basis(family, n, d).items()}
    m = Factored.lcm([scalars.node_ratio(label, (kind, "dp"), (), q ** sum(label))
                      for label in basis])
    terms = [(m * scalars.binomial_ratio(r_side, label) / scalars.node_ratio(label, (kind,)),
              _integral(family, label, f)) for label, f in basis.items()]
    label = f"N={n} r={r}: prod (1-x_j)^-r vs sum over {family}"
    lhs = {e: m * Factored(content=_binomial_term(r, e))
           for e in combinat.compositions_upto(bound, n)}
    if bad := [e for e, c in lhs.items() if not isinstance(c.content, int)]:
        raise _Refused(f"{label}: at {min(bad)}: {lhs[min(bad)].value()} not in Z[α]")
    k, *gs = _point(label, max(*(c.l1_bound() for c in lhs.values()), sum(
        c.l1_bound() * max(_norms(g)) for c, g in terms)), *(g for _, g in terms))
    rhs = MultiPoly.zero(n)
    for (c, _), g in zip(terms, gs):
        rhs = rhs + g.scale(c.at(k))
    return _differ(label, MultiPoly(n, {e: c.at(k) for e, c in lhs.items()}), rhs, k)


def _contingency(a, b, memo):
    """K[a, b], the coefficient of x^a y^b in prod_{j,k} (1 - x_j y_k)^(-1):
    the number of non-negative integer matrices with row sums a and column
    sums b, 0 at a negative entry.  Permuting rows or columns permutes the
    matrices, so `memo` holds the counts made so far by sorted margins, and
    the smallest row is filled first."""
    if min(a) < 0 or min(b) < 0 or sum(a) != sum(b):
        return 0
    if len(a) == 1:
        return 1
    key = tuple(sorted(a)), tuple(sorted(b))
    if key not in memo:
        a, b = key
        memo[key] = sum(_contingency(a[1:], tuple(map(operator.sub, b, row)), memo)
                        for row in combinat.compositions(a[0], len(b)))
    return memo[key]


def _margins(top, vandermonde):
    """{sorted margin: signed count}: top - e, signed by c, over the terms
    c x^e of the Vandermonde, summed by sorted margin, with the negative
    margins and the counts that cancel dropped."""
    out = {}
    for e, c in vandermonde:
        a = tuple(map(operator.sub, top, e))
        if min(a) >= 0:
            key = tuple(sorted(a))
            out[key] = out.get(key, 0) + c
    return {a: c for a, c in out.items() if c}


def _cauchy(n, bound):
    """det[1/(1 - x_j y_k)] = V(x) V(y) prod_{j,k} (1 - x_j y_k)^(-1) with
    V(x) = prod_{j<k} (x_j - x_k) = sum_s sgn s x^(s delta), delta the
    staircase, through degree bound + N(N-1)/2 in x and in y.  Both sides
    alternate in x and in y, and each term has equal degree in both, so
    they agree iff they agree at x^(lambda + delta) y^(mu + delta) for
    partitions |lambda| = |mu| <= bound.  There the left side,
    sum_s sgn s prod_j (1 - x_j y_s(j))^(-1), is [lambda = mu], and the right
    side sum_{s,t} sgn s sgn t K[lambda + delta - s delta, mu + delta - t delta].
    K is 0 at a negative margin and depends only on the sorted margins, so
    each alternant is summed once by sorted margin (_margins), and the
    double sum runs over those classes (I. G. Macdonald, Symmetric Functions
    and Hall Polynomials, I.3)."""
    delta = combinat.staircase(n)
    vandermonde = [(e, -1 if odd else 1) for e, odd in combinat.signed_rearrangements(delta)]
    memo = {}
    for d in range(bound + 1):
        alternants = {lam: _margins(tuple(map(operator.add, lam, delta)), vandermonde)
                      for lam in combinat.partitions(d, n)}
        for lam, xs in alternants.items():
            for mu, ys in alternants.items():
                got = sum(cx * cy * _contingency(a, b, memo)
                          for a, cx in xs.items() for b, cy in ys.items())
                witness = _differ(f"N={n} D={bound}: lambda={lam} mu={mu}", got, int(lam == mu))
                if witness:
                    return witness
    return None


def _ct_block(family, spec, n, k):
    """The cases of one block of the family specialized at 1/k, paired by
    one Gram matrix: (label, None) asks for its norm ratio, (label, later
    label) for their pairing."""
    gram = oracle.ct_pairing(spec, spec, n, k)
    one = {(0,) * n: Fraction(1)}
    unit = oracle.ct_inner_product(one, one, n, k)
    labels = list(spec)
    for idx, l1 in enumerate(labels):
        yield family, l1, None, gram, unit, k
        for l2 in labels[idx + 1:]:
            yield family, l1, l2, gram, unit, k


def _ct_cases(s, family):
    """_ct_block per N, k and modulus d."""
    for n in s.ns:
        for k in s.ks:
            for d in range(s.deg + 1):
                spec = {label: f.specialize(Fraction(1, k))
                        for label, f in _basis(family, n, d).items()}
                yield from _ct_block(family, spec, n, k)


def _ct(family, l1, l2, gram, unit, k):
    """A later label pairs to zero; alone, <f, f>/<1, 1> is the closed-form
    norm ratio at alpha = 1/k."""
    if l2 is not None:
        return _differ(f"<{family}_{l1}, {family}_{l2}> at k={k}", gram[l1][l2], 0)
    ratio = scalars.norm_ratio_E if family == "E" else scalars.norm_ratio_P
    return _differ(f"{family}_{l1} k={k}: ct", gram[l1][l1] / unit,
                   ratio(l1).eval_at(Fraction(1, k)))


def _S_norm_cases(s):
    """The shapes of _shifted_shapes, then (None, staircase) for the
    weight-normalization bridge."""
    yield from _shifted_shapes(s)
    yield None, combinat.staircase(s.ns[-1])


def _S_norm(ep, rho_plus):
    """Anti-symmetric norms at the desk-scale point: the weight-2 norm of S
    at parameter 1 equals the weight-4 norm of the shifted P, and both match
    their closed forms.  ep None: the weight-normalization bridge is the
    staircase ratio."""
    n = len(rho_plus)
    if ep is None:
        one = {(0,) * n: Fraction(1)}
        bridge = (oracle.ct_inner_product(one, one, n, 2)
                  / oracle.ct_inner_product(one, one, n, 1))
        target = scalars.staircase_norm_ratio(n) * Factored(content=math.factorial(n))
        return _differ("weight bridge", bridge, target.value().eval_at(1))
    s_spec = jack.build_S(rho_plus).specialize(Fraction(1))
    # P at alpha/(alpha+1), taken at alpha = 1, is P at alpha = 1/2
    p_spec = jack.build_P(ep, n).specialize(Fraction(1, 2))
    return (_differ(f"eta+={ep}: <S,S> vs <P,P>", oracle.ct_inner_product(s_spec, s_spec, n, 1),
                    oracle.ct_inner_product(p_spec, p_spec, n, 2))
            or _differ(f"eta+={ep}: white ratio", oracle.ct_norm_ratio(s_spec, n, 1),
                       _S_norm_ratio(rho_plus).value().eval_at(1))
            or _differ(f"eta+={ep}: black ratio", oracle.ct_norm_ratio(p_spec, n, 2),
                       _shifted_P_norm_ratio(ep).value().eval_at(1)))


def _linear_solve(eta, a0):
    """A collision at a0 raises, so the row fails naming eta and a0."""
    return _differ(f"eta={eta} alpha0={a0}", oracle.solve_E_linear(eta, a0),
                   jack.build_E(eta).specialize(a0))


def _gram_schmidt(kappa, n, k):
    got = oracle.gram_schmidt_P(kappa, n, k)
    want = jack.build_P(kappa, n).specialize(Fraction(1, k))
    return _differ(f"kappa={kappa} N={n} k={k}", got, want)


# ---------------------------------------------------------------------------
# negative controls: every detector must reject a perturbed input
# ---------------------------------------------------------------------------

def _corrupt(f: MultiPoly) -> MultiPoly:
    """Add 1 to the lexicographically first coefficient."""
    e, c = f.lead_term()
    terms = dict(f.terms)
    terms[e] = c + ONE
    return MultiPoly(f.nvars, terms)


def _controls(s):
    """(label, detected) for each perturbed input, fed to the test of the
    row that would see it."""
    e21 = jack.build_E((2, 1))
    yield "eigen", _E_witness(_corrupt(e21), (2, 1)) is not None
    # alpha - 2^K0 vanishes at the point K0 of the unperturbed d E, so only a
    # K taken from the perturbed input sees it
    g = _integral("E", (2, 1), e21)
    e, shift = min(g.terms), AlphaRational((-(1 << pack_width(_xi_bound(g, (2, 1)))), 1))
    yield "kronecker", _eigen_witness(MultiPoly(2, {**g.terms, e: g.terms[e] + shift}),
                                      (2, 1)) is not None
    lead_scaled = e21.scale(AlphaRational.from_fraction(2))
    yield "triangular", _E_witness(lead_scaled, (2, 1)) is not None
    yield "P-properties", _P_witness(_corrupt(jack.build_P((2, 1), 2)), (2, 1)) is not None
    e10 = jack.build_E((1, 0))
    # d' in place of d leaves a denominator
    yield "integral-positive", _integral_witness(
        (1, 0), e10.scale(scalars.const_dp((1, 0)))) is not None
    yield "at-ones", _value_at_ones(_corrupt(e10), (1, 0)) is not None

    bad = dict(e10.specialize(Fraction(1)))
    bad[(0, 1)] += 1
    spec = {(1, 0): bad, (0, 1): jack.build_E((0, 1)).specialize(Fraction(1))}
    norm, pair, _ = _ct_block("E", spec, 2, 1)
    yield "ct-norm", _ct(*norm) is not None
    yield "ct-orthogonality", _ct(*pair) is not None

    block, total, k = _kernel_block("E", polyalg.kernel_numerators(2, 2, True), 1)
    c, g = _kernel_sum("E", 2, 1)[1][(1, 0)]
    g = MultiPoly._raw(2, {e: pack(v.num, k) for e, v in g.terms.items()})
    doubled = (MultiPoly(4, total) + g.scale(c.at(k)).outer(g)).terms  # one term twice
    yield "omega", _differ("omega", block, doubled, k) is not None
    yield "binomial", _binomial("E", Fraction(2), 2, 2, r_side=Fraction(3)) is not None

    yield "asym-proportional", _asym(jack.build_E((2, 0)), _corrupt(jack.build_S((2, 0))),
                                     (2, 0)) is not None

    sol = dict(oracle.solve_E_linear((1, 0), Fraction(2)))
    sol[(0, 1)] += 1
    yield "oracle-solve", _differ("oracle-solve", sol,
                                  e10.specialize(Fraction(2))) is not None
    gs = dict(oracle.gram_schmidt_P((2,), 2, 1))
    gs[(1, 1)] += 1
    yield "oracle-gram", _differ("oracle-gram", gs,
                                 jack.build_P((2, 0), 2).specialize(Fraction(1))) is not None


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

CHECKS = {row.name: row for row in (
    Check("E.eigen-triangular", _compositions,
          lambda eta: _E_witness(jack.build_E(eta), eta), **_EIGEN),
    Check("E.value-at-ones", _compositions,
          lambda eta: _value_at_ones(jack.build_E(eta), eta), **_EIGEN),
    Check("E.integral-positive", _compositions,
          lambda eta: _integral_witness(eta, _integral("E", eta, jack.build_E(eta))),
          **_EIGEN),
    Check("E.swap-action",
          lambda s: ((eta, i) for (eta,) in _compositions(s) for i in range(1, len(eta))),
          _swap_action, deg=(0, 4)),
    Check("xi.commutation",
          lambda s: _random_cases(s, 20240211, 3, 5, 2, s.deg, lambda rng: Fraction(
              rng.randrange(-9, 10), rng.randrange(1, 5)), operator.lt),
          _xi_commute, deg=(4, 4), fixed={"trials": 3}),
    Check("divided-difference.multiply-back",
          lambda s: _random_cases(s, 771, 4, 6, 3, math.inf, lambda rng: rng.randrange(-5, 6),
                                  operator.ne),
          _multiply_back, fixed={"trials": 4, "max-part": 3}),
    Check("P.symmetric-eigen-dominance", _partitions,
          lambda kappa, n: _P_witness(jack.build_P(kappa, n), kappa), ns=(2, 4), deg=(0, 5)),
    Check("P.two-routes", _partitions, _two_routes, deg=(0, 5)),
    Check("P.stability",
          lambda s: ((kappa, 3) for kappa in combinat.partitions_upto(s.deg, 2)),
          _P_stability, ns=(3, 3), deg=(0, 4)),
    Check("sym.proportionality", _compositions, _sym_proportional, deg=(0, 4)),
    Check("P.value-and-hook", _hook_cases, _value_and_hook, ns=(2, 4), deg=(0, 5),
          fixed={"max|kappa|": "deg+1", "fig2": "N=9"}),
    Check("asym.proportionality", _asym_cases, _asym, deg=(0, 5), caps={"repeated": 3},
          fixed={"max|rho|": "deg+1",
                 "sign": "(-1)^(ascending pairs) * d'(rho)/d'(rhoR)"}),
    Check("asym.c-closed-forms", lambda s: (case for n in s.ns for case in _rhos(n, s)),
          lambda rho: _differ(f"rho={rho}", scalars.c_rho_ratio(rho, "shifted-shape"),
                              scalars.c_rho_ratio(rho, "rearrangement")),
          deg=(0, 5), fixed={"max|rho|": "deg+1"}),
    Check("asym.du-expansion",
          lambda s: (shape for n in s.ns for shape in _staircase_shapes(n, s.deg + 1)),
          _du_expansion, deg=(0, 5), fixed={"max|rho|": "deg+1"}),
    Check("society.identities", _shifted_shapes, _society, deg=(0, 4)),
    Check("norm.reconciliation", _shifted_shapes, _norm_reconciliation, deg=(0, 4)),
    Check("omega.decomposition", _kernels, lambda n, d: _decomposition("E", n, d),
          deg=(0, 3)),
    Check("omega.pairing-diagonal", _omega_pairing_cases,
          lambda eta, n, block: _differ(f"eta={eta} N={n}", *_slice(eta, block)),
          ns=(2, 4), deg=(0, 3)),
    Check("pi.decomposition", _kernels, lambda n, d: _decomposition("P", n, d),
          deg=(0, 3)),
    Check("pi.v-stability", _v_stability_cases,
          lambda blocks: _first(_differ(f"kappa={label} N={len(label)}", *_slice(label, block))
                                for label, block in blocks.items()),
          ns=(3, 3), deg=(0, 3)),
    Check("binomial.nonsymmetric",
          lambda s: (("E", r, n, s.deg) for n in s.ns for r in s.rs),
          _binomial, deg=(0, 3), r=True),
    Check("binomial.symmetric",
          lambda s: (("P", r, n, s.deg) for n in s.ns for r in s.rs),
          _binomial, deg=(0, 3), r=True),
    Check("cauchy.double-alternant", _kernels, _cauchy, ns=(2, 4), deg=(0, 5)),
    Check("E.norm-orthogonality.ct", lambda s: _ct_cases(s, "E"), _ct, deg=(0, 4), k=True),
    Check("P.norm-orthogonality.ct", lambda s: _ct_cases(s, "P"), _ct, deg=(0, 4), k=True),
    Check("S.norm.ct", _S_norm_cases, _S_norm, ns=(2, 2), deg=(1, 1), needs_k=(1, 2),
          fixed={"alpha": 1}),
    Check("oracle.E-linear-solve",
          lambda s: ((eta, a0) for (eta,) in _compositions(s) for a0 in SOLVE_ALPHAS),
          _linear_solve, fixed={"alpha0": [str(a) for a in SOLVE_ALPHAS]}, **_EIGEN),
    Check("oracle.P-gram-schmidt",
          lambda s: ((kappa, n, k) for kappa, n in _partitions(s) for k in s.ks),
          _gram_schmidt, ns=(2, 4), deg=(0, 4), k=True),
    Check("negative.controls", _controls,
          lambda label, detected: None if detected else f"undetected perturbation: {label}",
          ns=None, fixed={"perturbation": "+1 on one coefficient; E doubled (triangular), "
                               "d' for d (integral-positive), alpha - 2^K0 on one cleared "
                               "coefficient (kronecker), one diagonal term twice (omega), "
                               "a wrong r (binomial)"}),
)}


def _run_one(args):
    key, bounds = args
    fn = CHECKS[key]
    start = time.perf_counter()
    try:
        result = fn(bounds)
    except Exception as exc:  # a crash is a failing check, not a crash of the run
        result = CheckResult(key, {}, "fail", f"exception: {exc!r}")
    result.seconds = time.perf_counter() - start
    return result


def run_checks(bounds: Bounds = None, name_filter: str = None, jobs: int = 1) -> VerifyReport:
    bounds = bounds or Bounds()
    keys = sorted(CHECKS)
    if name_filter:
        keys = [k for k in keys if name_filter in k]
    work = [(k, bounds) for k in keys]
    if jobs > 1 and len(work) > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            results = list(pool.map(_run_one, work))
    else:
        results = [_run_one(w) for w in work]
    results.sort(key=lambda r: r.name)
    return VerifyReport(results)
