"""What one default verify keeps, and what it catches at N = 4.

A pass makes once, and keeps, each quantity that depends on its key alone
and that several rows ask for: a label's diagram walk (combinat), the
integral form s f of a cached E, P or S (verify), and the alpha-free image of
a monomial under the oracle's operators.  A kept value must be the value
made again: a warm pass gives the verdicts of a cold one, and a cached E or
P replaced after a pass is cleared afresh.  The P rows read N = 4, so a P
wrong at N = 4 fails the gate.
"""

import collections
import sys

import pytest

import jackpoly
from conftest import CACHES
from jackpoly import combinat, jack, oracle, qalpha, verify
from jackpoly.polyalg import MultiPoly, monomial_symmetric
from jackpoly.qalpha import ALPHA, ONE

KERNEL_ROWS = ("omega.decomposition", "omega.pairing-diagonal", "pi.decomposition",
               "pi.v-stability")


def _verdicts(results):
    return [(r.name, r.status, r.cases, r.params, r.clamped, r.witness) for r in results]


@pytest.fixture(scope="module")
def default_pass():
    """One default verify from empty caches, row by row in registry order,
    counting calls per row, then a second pass on the caches it left:
    (cold results, warm results, counts, the caches)."""
    counts, row = collections.Counter(), [None]
    with pytest.MonkeyPatch.context() as mp:
        caches = {}
        for module, name in CACHES:
            caches[module, name] = {}
            mp.setattr(module, name, caches[module, name])

        def counted(module, name, key):
            fn = getattr(module, name)

            def call(*args):
                counts[key(args), row[0]] += 1
                return fn(*args)
            mp.setattr(module, name, call)

        counted(combinat, "node_stats", lambda args: ("node", *args))
        counted(oracle, "_q_xi_monomial", lambda args: ("image", *args))
        counted(verify, "times_multiple", lambda args: "times_multiple")
        counted(qalpha.Factored, "over", lambda args: "over")
        # by the function that asks: the key is made inside `call`, two frames down
        counted(qalpha.Factored, "poly", lambda args: ("poly", sys._getframe(2).f_code.co_name))
        counted(qalpha.Factored, "value", lambda args: "value")
        for name in ("_sum", "_product"):  # the Henrici paths of Q(alpha)
            counted(qalpha, name, lambda args, name=name: name)
        for module in vars(jackpoly).values():  # every binding of the Z[alpha] product
            if getattr(module, "poly_mul", None) is qalpha.poly_mul:
                counted(module, "poly_mul", lambda args: "poly_mul")
        cold = []
        for row[0] in sorted(verify.CHECKS):
            cold.append(verify.CHECKS[row[0]](verify.Bounds()))
        row[0] = None
        warm = verify.run_checks().results
    return cold, warm, counts, caches


def test_a_warm_pass_gives_the_verdicts_of_a_cold_one(default_pass):
    cold, warm, _, _ = default_pass
    assert all(r.status == "pass" for r in cold), [(r.name, r.witness) for r in cold]
    assert _verdicts(warm) == _verdicts(cold)


def test_a_pass_walks_each_diagram_and_images_each_monomial_once(default_pass):
    _, _, counts, caches = default_pass
    calls = collections.Counter()
    for (key, _), n in counts.items():
        calls[key] += n
    nodes = [key for key in calls if key[0] == "node"]
    assert nodes and all(calls[key] == 1 for key in nodes)
    assert len(nodes) == sum(map(len, caches[combinat, "_NODES"].values()))
    images = [key for key in calls if key[0] == "image"]
    assert images and all(calls[key] == 1 for key in images)
    assert len(images) == len(caches[oracle, "_IMAGE_CACHE"])


def test_clear_caches_empties_every_memo_a_pass_filled(default_pass, monkeypatch):
    """jackpoly.clear_caches reads each memo from its module when called,
    so it empties the very dicts the pass filled, every one of them."""
    caches = default_pass[3]
    assert all(caches.values()), [key for key, cache in caches.items() if not cache]
    for (module, name), cache in caches.items():
        monkeypatch.setattr(module, name, dict(cache))
    jackpoly.clear_caches()
    assert [key for key in CACHES if getattr(*key)] == []


def test_a_warm_pass_clears_no_S_again(default_pass):
    """S is cached by label like E and P, so the warm pass, run after the
    counted cold one, serves every S and its integral form from the caches."""
    _, _, counts, _ = default_pass
    assert sum(n for (key, row), n in counts.items() if key == "over" and row is None) == 0


def test_the_kernel_rows_clear_no_kernel(default_pass):
    """The kernel rows read its Z[alpha] numerators: no Factored.over, and
    no times_multiple but pi.v-stability's, which clears the P in N
    variables at the label in N - 1 variables, a key no earlier row uses."""
    _, _, counts, _ = default_pass
    for name in KERNEL_ROWS:
        assert counts["over", name] == 0, name
        if name != "pi.v-stability":
            assert counts["times_multiple", name] == 0, name


def test_a_cold_pass_expands_few_Z_alpha_products(default_pass):
    """The kernels and cofactors are formed at the point, every closed form
    enters a row as a Factored packed by at(K), and the closed-form rows
    compare factorizations, so a cold default pass makes at most 21,910
    products of int tuples (43,820 when each kernel was multiplied out in
    Z[alpha]), expands a Factored product only inside Factored.over, and
    expands at most 400 Factored values into Q(alpha) (769 when four rows
    read their node products as field elements)."""
    total = collections.Counter()
    for (key, row), n in default_pass[2].items():
        if row is not None:  # the cold pass
            total[key] += n
    assert 0 < total["poly_mul"] <= 21910, total["poly_mul"]
    callers = {key[1] for key in total if key[0] == "poly"}
    assert callers == {"over"}, callers
    assert 0 < total["value"] <= 400, total["value"]


def test_only_the_controls_take_field_sums_and_products(default_pass):
    """Every row decides on ints at a point alpha = 2^K, on Factored ratios
    or on Fractions at a rational: a cold default pass reaches the Henrici
    sum and product of Q(alpha) only under negative.controls, which perturb
    their inputs in the field (1,146 calls when the operator rows and P's
    stab(mu) ran on Q(alpha))."""
    rows = {row for (key, row), n in default_pass[2].items()
            if key in ("_sum", "_product") and row is not None}
    assert rows == {"negative.controls"}, rows


@pytest.mark.parametrize("family, label, extra, row", [
    # +1 at the lowest monomial, below the label: only the eigen-equations,
    # checked on d E, see it
    ("E", (2, 1, 0), MultiPoly(3, {(0, 1, 2): ONE}), "E.eigen-triangular"),
    # alpha m_(1,1,1) keeps P symmetric and monic: only alpha D2 on h P sees it
    ("P", (2, 1, 0, 0), monomial_symmetric((1, 1, 1), 4).scale(ALPHA),
     "P.symmetric-eigen-dominance"),
])
def test_a_replaced_cached_value_is_cleared_afresh(default_pass, monkeypatch, family, label,
                                                   extra, row):
    """After a full pass, a cached E or P replaced by a perturbed copy
    fails its row: the integral form kept for the old object is not
    served for the new one."""
    for (module, name), cache in default_pass[3].items():
        monkeypatch.setattr(module, name, cache)
    cache = jack._E_CACHE if family == "E" else jack._P_CACHE
    f = cache[label]
    assert extra.terms.keys() <= f.terms.keys()
    assert any(kept[0] is f for kept in verify._INTEGRAL.values())
    monkeypatch.setitem(cache, label, f + extra)
    result = verify.CHECKS[row](verify.Bounds())
    name = "eta" if family == "E" else "kappa"
    assert result.status == "fail" and result.witness.startswith(f"{name}={label}:"), result.witness


def _P_mutants():
    """alpha added to P_kappa at N = 4, 1 <= |kappa| <= 3, at the lowest
    partition exponent of its degree and at its reversal, which is no
    partition: 12 mutants."""
    for d in (1, 2, 3):
        low = min(combinat.partitions(d, 4))
        for kappa in combinat.partitions(d, 4):
            for e in (low, low[::-1]):
                yield pytest.param(kappa, e, id=f"{kappa}@{e}")


@pytest.mark.parametrize("kappa, e", _P_mutants())
def test_every_P_mutant_at_N_4_fails_a_default_row(monkeypatch, kappa, e):
    """Each of the two rows lifted to N = 4 catches the mutant alone."""
    p = jack.build_P(kappa, 4)
    monkeypatch.setitem(jack._P_CACHE, kappa, p + MultiPoly(4, {e: ALPHA}))
    failed = {name for name, row in verify.CHECKS.items()
              if name.startswith(("P.", "oracle.P"))
              and row(verify.Bounds()).status == "fail"}
    assert {"P.symmetric-eigen-dominance", "oracle.P-gram-schmidt"} <= failed, failed
