"""Registry of verification checks and the report the CLI prints.

Every check is one row of CHECKS: its limits as data, a generator that
streams the cases of the effective sweep, and a test that returns a witness
for a failing case (naming the offending label and both values) or None
when the case holds.  One runner holds the requested bounds to the row's
limits, counts the cases, stops at the first witness, and reports the
effective bounds, the number of cases and every bound a limit cut
(`clamped`).  Checks are independent of one another and may run in
parallel worker processes.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import combinat, jack, oracle, polyalg, scalars
from .polyalg import (MultiPoly, apply_transposition, cherednik_apply,
                      divided_difference)
from .qalpha import ALPHA, ONE, AlphaRational, alpha_shift

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
        except Exception as exc:  # a crash is a failing check, not a crash of the run
            return result("fail", f"exception: {exc!r}", cases)
        return result("pass", cases=cases)


def _differ(label, got, want):
    """The witness for got != want, or None."""
    return None if got == want else f"{label}: {got} != {want}"


def _nonzero(kappa):
    return tuple(p for p in kappa if p) or (0,)


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


def _rhos(s):
    """(rho,) for every rearrangement of every rho+ with |rho+| <= deg + 1."""
    for n in s.ns:
        for _, rho_plus in _staircase_shapes(n, s.deg + 1):
            for rho in combinat.rearrangements(rho_plus):
                yield (rho,)


# ---------------------------------------------------------------------------
# construction, symmetric and anti-symmetric family checks
# ---------------------------------------------------------------------------

# the construction sweep: |eta| <= 5 for N = 2, 3 and |eta| <= 3 for N = 4
_EIGEN = dict(ns=(2, 4), deg=(0, 5), caps={4: 3})


def _eigen_triangular(eta):
    f = jack.build_E(eta)
    if not jack.eigen_ok(f, eta):
        bars = combinat.eigenvalue_vector(eta)
        for i in range(1, len(eta) + 1):
            lhs = cherednik_apply(f, i)
            rhs = f.scale(bars[i - 1])
            if lhs != rhs:
                return f"eta={eta} i={i}: xi_i E = {lhs} != {rhs}"
    if not jack.triangular_ok(f, eta):
        return f"eta={eta}: not monic triangular: {f}"
    return None


def _xi_cases(s):
    """(f, i, j) for three random polynomials of degree <= deg per N."""
    rng = random.Random(20240211)
    for n in s.ns:
        for _ in range(3):
            terms = {}
            for _ in range(5):
                e = tuple(rng.randrange(0, 3) for _ in range(n))
                if sum(e) <= s.deg:
                    terms[e] = AlphaRational.from_fraction(
                        Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
            f = MultiPoly(n, terms)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    yield f, i, j


def _xi_commute(f, i, j):
    lhs = cherednik_apply(cherednik_apply(f, i), j)
    rhs = cherednik_apply(cherednik_apply(f, j), i)
    return None if lhs == rhs else f"N={f.nvars} f={f}: [{i},{j}] != 0"


def _divided_difference_cases(s):
    """(f, i, p), i != p, for four random polynomials with parts <= 3 per N."""
    rng = random.Random(771)
    for n in s.ns:
        for _ in range(4):
            terms = {}
            for _ in range(6):
                e = tuple(rng.randrange(0, 4) for _ in range(n))
                terms[e] = AlphaRational.from_fraction(rng.randrange(-5, 6))
            f = MultiPoly(n, terms)
            for i in range(1, n + 1):
                for p in range(1, n + 1):
                    if i != p:
                        yield f, i, p


def _multiply_back(f, i, p):
    n = f.nvars
    dd = divided_difference(f, i, p)
    zi, zp = MultiPoly.variable(i, n), MultiPoly.variable(p, n)
    if dd * (zi - zp) != f - apply_transposition(f, i, p):
        return f"N={n} ({i},{p}) f={f}"
    return None


def _two_routes(kappa, n):
    if jack.check_pe_vs_sym(kappa, n):
        return None
    return f"kappa={kappa} N={n}: {jack.build_P(kappa, n)} vs {jack.build_P_sym_route(kappa, n)}"


def _sym_proportional(eta):
    try:
        jack.sym_constant(eta)
    except ArithmeticError as exc:
        return f"eta={eta}: {exc}"
    return None


def _hook_cases(s):
    """(kappa, with_norm) for |kappa| <= deg + 1 per N, then the 9-part shape
    (whose norm forms are not compared)."""
    for n in s.ns:
        for kappa in combinat.partitions_upto(s.deg + 1, n):
            yield kappa, True
    yield FIG2_SHAPE, False


def _value_and_hook(kappa, with_norm):
    if not scalars.check_hook_identity(kappa):
        return f"hook kappa={kappa}"
    if not scalars.check_P_ones_consistency(kappa):
        return (f"kappa={kappa}: {scalars.eval_P_at_ones(kappa)} != "
                f"{scalars.eval_P_at_ones_sym_route(kappa)}")
    if with_norm and not scalars.check_norm_P_consistency(kappa):
        return f"norm forms kappa={kappa}"
    return None


def _asym_cases(s):
    """Per N: every distinct-part rho of _rhos, then every composition with a
    repeated part up to the `repeated` cap plus one (Asym E must vanish)."""
    for n in s.ns:
        if n * (n - 1) // 2 > s.deg + 1:
            continue
        for _, rho_plus in _staircase_shapes(n, s.deg + 1):
            for rho in combinat.rearrangements(rho_plus):
                yield (rho,)
        for eta in combinat.compositions_upto(s.cap("repeated") + 1, n):
            if not combinat.has_distinct_parts(eta):
                yield (eta,)


def _asym(rho):
    try:
        c, ok = jack.check_asym_formula(rho)
    except ArithmeticError as exc:
        return f"rho={rho}: {exc}"
    if ok:
        return None
    if not combinat.has_distinct_parts(rho):
        return f"rho={rho}: Asym E != 0"
    return f"rho={rho}: measured {c} != {scalars.c_rho_resolved(rho)}"


# ---------------------------------------------------------------------------
# kernel decompositions and constant-term oracle checks
# ---------------------------------------------------------------------------

def _omega_pairing(eta, n, deg):
    try:
        u = oracle.u_from_series(eta, n, deg)
    except ArithmeticError as exc:
        return f"eta={eta} N={n}: {exc}"
    return _differ(f"eta={eta} N={n}", u, scalars.u_eta(eta))


def _v_stability(kappa, n, deg):
    """The v extracted at N - 1 and at N agree and equal d'/h."""
    small = oracle.v_from_series(kappa, n - 1, deg)
    big = oracle.v_from_series(kappa, n, deg)
    if small != big:
        return f"kappa={kappa}: {small} (N={n - 1}) != {big} (N={n})"
    target = scalars.v_kappa(kappa + (0,) * (n - 1 - len(kappa)))
    return _differ(f"kappa={kappa}: v vs d'/h", small, target)


def _ct_cases(s, family):
    """Per N, k and modulus d: the labels of the family specialized at 1/k;
    (label, None) asks for its norm ratio, (label, later label) for their
    pairing."""
    for n in s.ns:
        for k in s.ks:
            a0 = Fraction(1, k)
            for d in range(s.deg + 1):
                if family == "E":
                    spec = {e: jack.build_E(e).specialize(a0)
                            for e in combinat.compositions(d, n)}
                else:
                    spec = {p: jack.build_P(p, n).specialize(a0)
                            for p in combinat.partitions(d, n)}
                labels = list(spec)
                for idx, l1 in enumerate(labels):
                    yield family, spec, l1, None, n, k
                    for l2 in labels[idx + 1:]:
                        yield family, spec, l1, l2, n, k


def _ct(family, spec, l1, l2, n, k):
    if l2 is not None:
        pair = oracle.ct_inner_product(spec[l1], spec[l2], n, k)
        return None if pair == 0 else f"<{family}_{l1}, {family}_{l2}> = {pair} at k={k}"
    got = oracle.ct_norm_ratio(spec[l1], n, k)
    ratio = scalars.norm_ratio_E if family == "E" else scalars.norm_ratio_P
    return _differ(f"{family}_{l1} k={k}: ct", got, ratio(l1).eval_at(Fraction(1, k)))


def _S_norm_cases(s):
    n = s.ns[-1]
    for ep in combinat.partitions_upto(s.deg, n):
        yield ep, n
    yield None, n


def _S_norm(ep, n):
    """Anti-symmetric norms at the desk-scale point: the weight-2 norm of S
    at parameter 1 equals the weight-4 norm of the shifted P, and both match
    their closed forms.  ep None: the weight-normalization bridge is the
    staircase ratio."""
    if ep is None:
        one = {(0,) * n: Fraction(1)}
        bridge = (oracle.ct_inner_product(one, one, n, 2)
                  / oracle.ct_inner_product(one, one, n, 1))
        target = (math.factorial(n) * scalars.staircase_norm_ratio(n)).eval_at(1)
        return _differ("weight bridge", bridge, target)
    sh = alpha_shift()
    rho_plus = tuple(p + d for p, d in zip(ep, combinat.staircase(n)))
    s_spec = jack.build_S(rho_plus).specialize(Fraction(1))
    p_spec = jack.build_P(ep, n, shift_param=True).specialize(Fraction(1))
    lhs = oracle.ct_inner_product(s_spec, s_spec, n, 1)
    rhs = oracle.ct_inner_product(p_spec, p_spec, n, 2)
    if lhs != rhs:
        return f"eta+={ep}: <S,S>={lhs} != <P,P>={rhs}"
    rho_r = combinat.reverse_partition(rho_plus)
    white = (math.factorial(n) * scalars.const_dp(rho_r) * scalars.const_e(rho_plus)
             / (scalars.const_d(rho_plus) * scalars.const_ep(rho_plus))).eval_at(1)
    witness = _differ(f"eta+={ep}: white ratio", oracle.ct_norm_ratio(s_spec, n, 1), white)
    if witness:
        return witness
    black = (scalars.const_b(ep, sh) * scalars.const_dp(ep, sh)
             / (scalars.const_ep(ep, sh) * scalars.const_h(ep, sh))).eval_at(1)
    return _differ(f"eta+={ep}: black ratio", oracle.ct_norm_ratio(p_spec, n, 2), black)


def _linear_solve(eta, a0):
    try:
        got = oracle.solve_E_linear(eta, a0)
    except oracle.EigenvalueCollision:
        _, got = oracle.solve_E_auto(eta)
    return _differ(f"eta={eta} alpha0={a0}", got, jack.build_E(eta).specialize(a0))


def _gram_schmidt(kappa, n, k):
    got = oracle.gram_schmidt_P(_nonzero(kappa), n, k)
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
    """(label, detected) for each perturbed input, in turn."""
    e21 = jack.build_E((2, 1))
    yield "eigen", not jack.eigen_ok(_corrupt(e21), (2, 1))
    lead_scaled = e21.scale(AlphaRational.from_fraction(2))
    yield "triangular", not jack.triangular_ok(lead_scaled, (2, 1))
    p21 = jack.build_P((2, 1), 2)
    yield "P-properties", not jack.p_properties_ok(_corrupt(p21), (2, 1))
    yield "at-ones", (_corrupt(jack.build_E((1, 0))).eval_ones()
                      != scalars.eval_E_at_ones((1, 0)))

    bad = dict(jack.build_E((1, 0)).specialize(Fraction(1)))
    bad[(0, 1)] += 1
    yield "ct-norm", oracle.ct_norm_ratio(bad, 2, 1) != scalars.norm_ratio_E((1, 0)).eval_at(1)
    other = jack.build_E((0, 1)).specialize(Fraction(1))
    yield "ct-orthogonality", oracle.ct_inner_product(bad, other, 2, 1) != 0

    acc = jack.omega_sum(2, 2)
    e10 = jack.build_E((1, 0))
    acc = acc.add_outer(e10, e10, ONE)  # double-count one diagonal term
    yield "omega", acc != polyalg.omega_truncated(2, 2)
    yield "binomial", not _binomial_with_shifted_r()

    s = jack.build_S((2, 0))
    a = polyalg.antisymmetrize(jack.build_E((2, 0)))
    yield "asym-proportional", polyalg.exact_scalar_ratio(_corrupt(a), s) is None

    sol = dict(oracle.solve_E_linear((1, 0), Fraction(2)))
    sol[(0, 1)] += 1
    yield "oracle-solve", sol != jack.build_E((1, 0)).specialize(Fraction(2))
    gs = dict(oracle.gram_schmidt_P((2,), 2, 1))
    gs[(1, 1)] += 1
    yield "oracle-gram", gs != jack.build_P((2, 0), 2).specialize(Fraction(1))


def _binomial_with_shifted_r() -> bool:
    """bi2 with the scalar side evaluated at r+1: must not match."""
    r = Fraction(2)
    n, cap = 2, 2
    lhs = jack._one_variable_product(polyalg.binomial_series(r, cap), n, cap)
    rhs = MultiPoly.zero(n)
    for eta in combinat.compositions_upto(cap, n):
        kappa = combinat.sort_to_partition(eta)
        coeff = (ALPHA ** sum(eta) * scalars.gen_factorial(r + 1, kappa)
                 / (scalars.u_eta(eta) * scalars.const_d(eta)))
        rhs = rhs + jack.build_E(eta).scale(coeff)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

CHECKS = {row.name: row for row in (
    Check("E.eigen-triangular", _compositions, _eigen_triangular, **_EIGEN),
    Check("E.value-at-ones", _compositions,
          lambda eta: _differ(f"eta={eta}", jack.build_E(eta).eval_ones(),
                              scalars.eval_E_at_ones(eta)),
          **_EIGEN),
    Check("E.swap-action",
          lambda s: ((eta, i) for (eta,) in _compositions(s) for i in range(1, len(eta))),
          lambda eta, i: None if jack.check_s_i_action(eta, i) else f"eta={eta} i={i}",
          deg=(0, 4)),
    Check("xi.commutation", _xi_cases, _xi_commute, deg=(4, 4), fixed={"trials": 3}),
    Check("divided-difference.multiply-back", _divided_difference_cases, _multiply_back,
          fixed={"trials": 4, "max-part": 3}),
    Check("P.symmetric-eigen-dominance", _partitions,
          lambda kappa, n: (None if jack.check_P_symmetric_eigen(kappa, n)
                            else f"kappa={kappa} N={n}"),
          deg=(0, 5)),
    Check("P.two-routes", _partitions, _two_routes, deg=(0, 5)),
    Check("P.stability",
          lambda s: ((kappa, 3) for kappa in combinat.partitions_upto(s.deg, 2)),
          lambda kappa, n: None if jack.check_P_stability(kappa, n) else f"kappa={kappa} N={n}",
          ns=(3, 3), deg=(0, 4)),
    Check("sym.proportionality", _compositions, _sym_proportional, deg=(0, 4)),
    Check("P.value-and-hook", _hook_cases, _value_and_hook, ns=(2, 4), deg=(0, 5),
          fixed={"max|kappa|": "deg+1", "fig2": "N=9"}),
    Check("asym.proportionality", _asym_cases, _asym, deg=(0, 5), caps={"repeated": 3},
          fixed={"max|rho|": "deg+1",
                 "sign": "(-1)^(ascending pairs) * d'(rho)/d'(rhoR)"}),
    Check("asym.c-closed-forms", _rhos,
          lambda rho: _differ(f"rho={rho}", scalars.c_rho(rho, "shifted-shape"),
                              scalars.c_rho(rho, "rearrangement")),
          deg=(0, 5), fixed={"max|rho|": "deg+1"}),
    Check("asym.du-expansion",
          lambda s: ((ep, n) for n in s.ns for ep, _ in _staircase_shapes(n, s.deg + 1)),
          lambda ep, n: None if jack.check_du_expansion(ep, n) else f"eta+={ep} N={n}",
          deg=(0, 5), fixed={"max|rho|": "deg+1"}),
    Check("society.identities", _partitions,
          lambda ep, n: (None if scalars.check_society_identities(ep, n)
                         else f"eta+={ep} N={n}"),
          deg=(0, 4)),
    Check("norm.reconciliation", _partitions,
          lambda ep, n: (None if scalars.check_norm_reconciliation(ep, n)
                         else f"eta+={ep} N={n}"),
          deg=(0, 4)),
    Check("omega.decomposition", _kernels,
          lambda n, d: None if jack.check_omega_decomposition(n, d) else f"N={n} D={d}",
          deg=(0, 3)),
    Check("omega.pairing-diagonal",
          lambda s: ((eta, len(eta), s.deg) for (eta,) in _compositions(s)),
          _omega_pairing, deg=(0, 3)),
    Check("pi.decomposition", _kernels,
          lambda n, d: None if jack.check_pi_decomposition(n, d) else f"N={n} D={d}",
          deg=(0, 3)),
    Check("pi.v-stability",
          lambda s: ((_nonzero(kappa), 3, s.deg) for kappa in combinat.partitions_upto(s.deg, 2)),
          _v_stability, ns=(3, 3), deg=(0, 3)),
    Check("binomial.nonsymmetric",
          lambda s: ((r, n, s.deg) for n in s.ns for r in s.rs),
          lambda r, n, d: None if jack.check_binomial(r, n, d, "bi2") else f"N={n} r={r}",
          deg=(0, 3), r=True),
    Check("binomial.symmetric",
          lambda s: ((r, n, s.deg) for n in s.ns for r in s.rs),
          lambda r, n, d: None if jack.check_binomial(r, n, d, "bi3") else f"N={n} r={r}",
          deg=(0, 3), r=True),
    Check("cauchy.double-alternant", _kernels,
          lambda n, d: None if polyalg.check_cauchy_alternant(n, d) else f"N={n}",
          deg=(0, 3)),
    Check("E.norm-orthogonality.ct", lambda s: _ct_cases(s, "E"), _ct, deg=(0, 4), k=True),
    Check("P.norm-orthogonality.ct", lambda s: _ct_cases(s, "P"), _ct, deg=(0, 4), k=True),
    Check("S.norm.ct", _S_norm_cases, _S_norm, ns=(2, 2), deg=(1, 1), needs_k=(1, 2),
          fixed={"alpha": 1}),
    Check("oracle.E-linear-solve",
          lambda s: ((eta, a0) for (eta,) in _compositions(s) for a0 in SOLVE_ALPHAS),
          _linear_solve, fixed={"alpha0": [str(a) for a in SOLVE_ALPHAS]}, **_EIGEN),
    Check("oracle.P-gram-schmidt",
          lambda s: ((kappa, n, k) for kappa, n in _partitions(s) for k in s.ks),
          _gram_schmidt, deg=(0, 4), k=True),
    Check("negative.controls", _controls,
          lambda label, detected: None if detected else f"undetected perturbation: {label}",
          ns=None, fixed={"perturbation": "+1 on one coefficient"}),
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
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, work))
    else:
        results = [_run_one(w) for w in work]
    results.sort(key=lambda r: r.name)
    return VerifyReport(results)
