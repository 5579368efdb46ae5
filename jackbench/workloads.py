"""Workload definitions: the jobs of each workload, how a worker runs one,
and how the parent checks its output.

A job is a plain-JSON spec.  Each job runs cold in its own interpreter
(worker.py), and its output is a list with one item per operation.  The
parent checks every item against computations made apart from the
construction, outside the timed pass.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

from jackpoly import cli, combinat, jack, oracle, scalars, verify
from jackpoly.qalpha import ZERO, AlphaRational

WORKLOADS = ("verify-default", "compute-reach", "oracle-reach")

# The default bounds of `jackpoly verify`, written out so that a change of
# the defaults does not silently change the workload.
VERIFY_BOUNDS = {"n_max": 4, "deg": 5, "ks": [1, 2], "rs": ["1", "2", "3", "5/2"]}

# Registered checks at the time the benchmark was defined; each one gets a
# per-layer metric verify.check_s.<name>.
VERIFY_CHECKS = (
    "E.eigen-triangular", "E.value-at-ones", "E.swap-action", "xi.commutation",
    "divided-difference.multiply-back", "P.symmetric-eigen-dominance",
    "P.two-routes", "P.stability", "sym.proportionality", "P.value-and-hook",
    "asym.proportionality", "asym.c-closed-forms", "asym.du-expansion",
    "society.identities", "norm.reconciliation", "omega.decomposition",
    "omega.pairing-diagonal", "pi.decomposition", "pi.v-stability",
    "binomial.nonsymmetric", "binomial.symmetric", "cauchy.double-alternant",
    "E.norm-orthogonality.ct", "P.norm-orthogonality.ct", "S.norm.ct",
    "oracle.E-linear-solve", "oracle.P-gram-schmidt", "negative.controls")

# compute-reach draws one label per slot.  The labels of a slot took the
# same speed-normalised cold time to within about 7 % (median of five
# passes each, 2-core machine, CPython 3.11), so the drawn set costs about
# the same whatever the seed.  All lie beyond the verify sweep (N = 4 up to
# |eta| = 3, N <= 3 up to 5), and every P here is cheap enough to check
# against Gram-Schmidt at N = 5.
COMPUTE_SLOTS = {
    "E": (
        ((2, 4, 2, 0, 0), (1, 0, 4, 3, 0), (0, 4, 1, 3, 0)),
        ((4, 2, 0, 2, 0), (4, 0, 0, 4, 0), (4, 1, 0, 0, 3)),
        ((4, 2, 2, 0, 0), (4, 0, 1, 3, 0), (4, 0, 3, 1, 0), (0, 4, 4, 0, 0)),
        ((4, 4, 0, 0, 0), (4, 3, 0, 1, 0), (4, 1, 3, 0, 0), (4, 1, 0, 3, 0)),
    ),
    "P": (
        ((3, 2, 1, 1, 0), (4, 1, 1, 0, 0)),
        ((5, 2, 0, 0), (4, 1, 1, 1, 0)),
        ((4, 3, 1, 0), (5, 3, 0, 0)),
    ),
    "S": (
        ((8, 3, 2, 1, 0), (7, 4, 2, 1, 0)),
        ((9, 3, 2, 1, 0), (8, 4, 2, 1, 0)),
        ((7, 3, 2, 1, 0), (6, 4, 3, 1, 0)),
    ),
}

# Rational points at which the checker applies the oracle's own operator to
# a computed E (drawn per label), and at which the linear-solve oracle runs
# (drawn per eta; the values verify uses).
CHECK_ALPHAS = ("2", "3", "5/2", "7/3")
SOLVE_ALPHAS = ("2", "3", "7/2")

# oracle-reach sizes: constant-term norms and pairwise orthogonality at
# N = 4, the linear solve through |eta| = 6 at N = 3, and Gram-Schmidt at
# N = 3 for k = 1, 2, 3.
CT_N, CT_KS, CT_DEG_E, CT_DEG_P = 4, (2, 3), 4, 5
SOLVE_N, SOLVE_DEG = 3, 6
GS_N, GS_KS, GS_DEG = 3, (1, 2, 3), 7

# Reduced sizes for the self-test.
TINY = {
    "verify": {"n_max": 2, "deg": 2, "ks": [1, 2], "rs": ["1", "2"]},
    "compute": [("E", (2, 1, 0)), ("P", (2, 1, 0)), ("S", (3, 1, 0))],
    "ct": (2, (1,), 2, 2), "solve": (2, 3), "gs": (2, (1,), 3),
}


# ---------------------------------------------------------------------------
# job generation (parent side, from the seed)
# ---------------------------------------------------------------------------

def make_jobs(workload, rng, tiny=False):
    """The jobs of one round; rng is a random.Random seeded from --seed."""
    if workload == "verify-default":
        return [{"kind": "verify", "bounds": TINY["verify"] if tiny else VERIFY_BOUNDS}]
    if workload == "compute-reach":
        if tiny:
            labels = TINY["compute"]
        else:
            labels = [(family, rng.choice(slot))
                      for family in ("E", "P", "S")
                      for slot in COMPUTE_SLOTS[family]]
        return [{"kind": "compute", "family": family, "label": list(label),
                 "check_alpha": rng.choice(CHECK_ALPHAS)}
                for family, label in labels]
    if workload == "oracle-reach":
        ct_n, ct_ks, deg_e, deg_p = TINY["ct"] if tiny else (CT_N, CT_KS, CT_DEG_E, CT_DEG_P)
        solve_n, solve_deg = TINY["solve"] if tiny else (SOLVE_N, SOLVE_DEG)
        gs_n, gs_ks, gs_deg = TINY["gs"] if tiny else (GS_N, GS_KS, GS_DEG)
        jobs = [{"kind": "ct", "n": ct_n, "k": k, "deg_E": deg_e, "deg_P": deg_p}
                for k in ct_ks]
        jobs.append({"kind": "solve", "n": solve_n, "alphas": [
            [list(eta), rng.choice(SOLVE_ALPHAS)]
            for eta in combinat.compositions_upto(solve_deg, solve_n)]})
        jobs.append({"kind": "gs", "n": gs_n, "ks": list(gs_ks), "deg": gs_deg})
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def op_count(job):
    """Operations a job attempts (one per output item)."""
    kind = job["kind"]
    if kind == "verify":
        return len(verify.CHECKS)
    if kind == "compute":
        return 1
    if kind == "ct":
        return len(_ct_labels(job))
    if kind == "solve":
        return len(job["alphas"])
    if kind == "gs":
        return len(job["ks"]) * len(list(combinat.partitions_upto(job["deg"], job["n"])))
    raise ValueError(f"unknown job kind {kind!r}")


def _ct_labels(job):
    """(family, label, second label or None) for every certificate of a
    ct job: a norm, or the pairing of two labels."""
    n = job["n"]
    out = []
    for d in range(job["deg_E"] + 1):
        out += [("E", lab) for lab in combinat.compositions(d, n)]
    for d in range(job["deg_P"] + 1):
        out += [("P", lab) for lab in combinat.partitions(d, n)]
    return _ct_certificates(out)


def _ct_certificates(labels):
    """Norms of every label, and every pair of one family and degree."""
    certs = []
    for idx, (fam, lab) in enumerate(labels):
        certs.append((fam, lab, None))
        for fam2, lab2 in labels[idx + 1:]:
            if fam2 == fam and sum(lab2) == sum(lab):
                certs.append((fam, lab, lab2))
    return certs


# ---------------------------------------------------------------------------
# worker side: set-up (inputs) and the timed pass
# ---------------------------------------------------------------------------

def prepare(job):
    """Build the inputs of a job; runs in the worker before the timed pass."""
    kind = job["kind"]
    if kind == "verify":
        b = job["bounds"]
        return verify.Bounds(n_max=b["n_max"], deg=b["deg"], ks=tuple(b["ks"]),
                             rs=tuple(Fraction(r) for r in b["rs"]))
    if kind == "compute":
        return ["compute", job["family"], ",".join(map(str, job["label"])),
                "--format", "json"]
    if kind == "ct":
        a0 = Fraction(1, job["k"])
        certs = _ct_labels(job)
        polys = {}
        for fam, lab, _ in certs:
            if (fam, lab) not in polys:
                built = jack.build_E(lab) if fam == "E" else jack.build_P(lab, job["n"])
                polys[(fam, lab)] = built.specialize(a0)
        return certs, polys
    if kind == "solve":
        return [(tuple(eta), Fraction(a0)) for eta, a0 in job["alphas"]]
    if kind == "gs":
        return [(k, kappa) for k in job["ks"]
                for kappa in combinat.partitions_upto(job["deg"], job["n"])]
    raise ValueError(f"unknown job kind {kind!r}")


def run(job, inputs):
    """The timed pass.  Returns (output items, info); info holds numbers
    that are not outputs (per-check seconds, bytes written)."""
    kind = job["kind"]
    if kind == "verify":
        report = verify.run_checks(inputs, jobs=1)
        items = [[r.name, r.status, r.witness] for r in report.results]
        return items, {"check_s": {r.name: r.seconds for r in report.results}}
    if kind == "compute":
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(inputs)
        text = buf.getvalue()
        return [{"code": code, "text": text}], {"bytes_out": len(text.encode())}
    if kind == "ct":
        certs, polys = inputs
        n, k = job["n"], job["k"]
        items = []
        for fam, lab, lab2 in certs:
            f = polys[(fam, lab)]
            if lab2 is None:
                value = oracle.ct_norm_ratio(f, n, k)
            else:
                value = oracle.ct_inner_product(f, polys[(fam, lab2)], n, k)
            items.append([fam, list(lab), None if lab2 is None else list(lab2), str(value)])
        return items, {}
    if kind == "solve":
        items = []
        for eta, a0 in inputs:
            try:
                sol = oracle.solve_E_linear(eta, a0)
            except oracle.EigenvalueCollision:
                a0, sol = oracle.solve_E_auto(eta)
            items.append([list(eta), str(a0), _fraction_poly(sol)])
        return items, {}
    if kind == "gs":
        items = []
        for k, kappa in inputs:
            parts = tuple(p for p in kappa if p) or (0,)
            items.append([k, list(kappa),
                          _fraction_poly(oracle.gram_schmidt_P(parts, job["n"], k))])
        return items, {}
    raise ValueError(f"unknown job kind {kind!r}")


def _fraction_poly(d):
    return [[list(e), str(c)] for e, c in sorted(d.items())]


# ---------------------------------------------------------------------------
# parent side: checks against independent computations
# ---------------------------------------------------------------------------

class Checker:
    """Checks output items; memoizes the reference values it computes."""

    def __init__(self):
        self._refs = {}

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def item_ok(self, job, item):
        kind = job["kind"]
        try:
            if kind == "verify":
                return item[1] == "pass"
            if kind == "compute":
                return self._compute_ok(job, item)
            if kind == "ct":
                return self._ct_ok(job, item)
            if kind == "solve":
                eta, a0 = tuple(item[0]), Fraction(item[1])
                want = self._ref(("E", eta, a0),
                                 lambda: jack.build_E(eta).specialize(a0))
                return _parse_fraction_poly(item[2]) == want
            if kind == "gs":
                k, kappa = item[0], tuple(item[1])
                a0 = Fraction(1, k)
                want = self._ref(("P", kappa, a0),
                                 lambda: jack.build_P(kappa, job["n"]).specialize(a0))
                return _parse_fraction_poly(item[2]) == want
        except (KeyError, ValueError, TypeError, ArithmeticError):
            return False
        raise ValueError(f"unknown job kind {kind!r}")

    def _ct_ok(self, job, item):
        fam, lab, lab2 = item[0], tuple(item[1]), item[2]
        value = Fraction(item[3])
        if lab2 is not None:
            return value == 0
        a0 = Fraction(1, job["k"])
        closed = scalars.norm_ratio_E(lab) if fam == "E" else scalars.norm_ratio_P(lab)
        return value == closed.eval_at(a0)

    def _compute_ok(self, job, item):
        if item["code"] != 0:
            return False
        poly = json.loads(item["text"])
        label = tuple(job["label"])
        n = len(label)
        if poly["N"] != n:
            return False
        terms = {tuple(t["exp"]): (tuple(t["coeff"]["num"]), tuple(t["coeff"]["den"]))
                 for t in poly["terms"]}
        if terms.get(label) != ((1,), (1,)):
            return False  # not monic at the label
        family = job["family"]
        if family == "E":
            return (all(combinat.composition_lt(e, label) for e in terms if e != label)
                    and _eigen_ok(terms, label, Fraction(job["check_alpha"])))
        if family == "P":
            return (_swap_invariant(terms, sign=1)
                    and self._p_ones_ok(terms, label)
                    and self._p_gram_schmidt_ok(terms, label))
        if family == "S":
            return _swap_invariant(terms, sign=-1)
        return False

    def _p_ones_ok(self, terms, kappa):
        """P(1^N) = b/h, exactly in Q(alpha)."""
        total = ZERO
        for num, den in terms.values():
            total = total + AlphaRational.from_json({"num": list(num), "den": list(den)})
        return total == scalars.eval_P_at_ones(kappa)

    def _p_gram_schmidt_ok(self, terms, kappa, k=1):
        """P at alpha = 1/k equals Gram-Schmidt under the constant term."""
        a0 = Fraction(1, k)
        parts = tuple(p for p in kappa if p) or (0,)
        want = self._ref(("GS", kappa, k),
                         lambda: oracle.gram_schmidt_P(parts, len(kappa), k))
        got = {}
        for e, (num, den) in terms.items():
            v = _eval_int_poly(num, a0) / _eval_int_poly(den, a0)
            if v:
                got[e] = v
        return got == want


def _eval_int_poly(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _eigen_ok(terms, eta, a0):
    """Joint eigen-equations of E at a rational point, with the oracle's
    own Fraction operator (which does not use polyalg)."""
    f = {}
    for e, (num, den) in terms.items():
        v = _eval_int_poly(num, a0) / _eval_int_poly(den, a0)
        if v:
            f[e] = v
    bars = combinat.eigenvalue_fractions(eta, a0)
    for i in range(1, len(eta) + 1):
        lhs = {}
        for e, c in f.items():
            for m, v in oracle._xi_monomial(e, i, a0).items():
                lhs[m] = lhs.get(m, 0) + c * v
        lhs = {m: v for m, v in lhs.items() if v}
        if lhs != oracle.qp_scale(f, bars[i - 1]):
            return False
    return True


def _swap_invariant(terms, sign):
    """Each adjacent transposition maps the coefficient at e to sign times
    itself at the swapped exponent (sign -1: alternating)."""
    for e, (num, den) in terms.items():
        want = (num, den) if sign == 1 else (tuple(-c for c in num), den)
        for i in range(len(e) - 1):
            swapped = e[:i] + (e[i + 1], e[i]) + e[i + 2:]
            if terms.get(swapped) != want:
                return False
    return True


def _parse_fraction_poly(items):
    return {tuple(e): Fraction(c) for e, c in items}


# ---------------------------------------------------------------------------
# negative control
# ---------------------------------------------------------------------------

def perturb(job, items, rng):
    """A copy of the output with one item changed by a one-coefficient
    perturbation (+1); returns (index, items)."""
    items = json.loads(json.dumps(items))
    idx = rng.randrange(len(items))
    item = items[idx]
    kind = job["kind"]
    if kind == "verify":
        item[1] = "fail"  # a report has no coefficients: flip one verdict
    elif kind == "compute":
        poly = json.loads(item["text"])
        term = rng.choice(poly["terms"])
        num, den = term["coeff"]["num"], term["coeff"]["den"]
        size = max(len(num), len(den))
        num = [a + b for a, b in zip(num + [0] * (size - len(num)),
                                     den + [0] * (size - len(den)))]
        while num and num[-1] == 0:
            num.pop()
        term["coeff"]["num"] = num
        item["text"] = json.dumps(poly)
    elif kind == "ct":
        item[3] = str(Fraction(item[3]) + 1)
    else:
        coeffs = item[2]
        pick = coeffs[rng.randrange(len(coeffs))]
        pick[1] = str(Fraction(pick[1]) + 1)
    return idx, items
