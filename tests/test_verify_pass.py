"""What one default verify keeps, what it reads, and what it catches.

A pass makes once, and keeps, each quantity that depends on its key alone
and that several rows ask for: a label's diagram walk (combinat), the
integral forms jack serves, and the alpha-free image of a monomial under
the oracle's operators.  A kept value must be the value
made again: a warm pass gives the verdicts of a cold one.  The rows at the
point read the forms jack serves, and integral.tie ties every label they
read to the printed E, P or S, so a cached E or P replaced after a pass
fails the tie.  The P rows read N = 4, so a P wrong at N = 4 fails the gate.
"""

import collections
import sys

import pytest

import jackpoly
from conftest import CACHES
from jackpoly import combinat, jack, oracle, qalpha, verify
from jackpoly.polyalg import MultiPoly, monomial_symmetric
from jackpoly.qalpha import ALPHA, ONE, poly_add

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
        counted(qalpha.Factored, "over", lambda args: "over")
        # by the function that asks: the key is made inside `call`, two frames down
        counted(qalpha.Factored, "poly", lambda args: ("poly", sys._getframe(2).f_code.co_name))
        counted(qalpha.Factored, "value", lambda args: "value")
        for name in ("_sum", "_product", "_gcd"):  # the Henrici paths of Q(alpha)
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


class _CountedStores(dict):
    """A memo that counts the stores made at each key."""

    def __init__(self):
        super().__init__()
        self.stores = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def test_a_pass_serves_each_integral_form_once(fresh_caches, monkeypatch):
    """A cold default pass makes each form jack serves once, one per case
    of integral.tie; a repeat read returns the kept pair itself, and every
    kept g still equals the form made afresh, so no row mutated one."""
    monkeypatch.setattr(jack, "_FORMS", _CountedStores())
    assert verify.run_checks(verify.Bounds()).ok
    forms = jack._FORMS
    assert len(forms) == verify.CHECKS["integral.tie"](verify.Bounds()).cases == 201
    assert set(forms.stores.values()) == {1}
    assert all(jack.integral(*key) is pair for key, pair in forms.items())
    for module, name in CACHES:
        monkeypatch.setattr(module, name, {})
    assert all(jack.integral(*key)[1].terms == g.terms for key, (_, g) in forms.items())


def test_an_unknown_family_is_refused_before_its_label_is_read():
    with pytest.raises(ValueError, match=r"^unknown family 'Q'$"):
        jack.integral("Q", None)


def test_a_warm_pass_clears_no_S_again(default_pass):
    """S is cached by label like E and P, so the warm pass, run after the
    counted cold one, serves every S and its integral form from the caches."""
    _, _, counts, _ = default_pass
    assert sum(n for (key, row), n in counts.items() if key == "over" and row is None) == 0


def test_the_kernel_rows_clear_no_kernel(default_pass):
    """The kernel rows read its Z[alpha] numerators and the served integral
    forms: no Factored.over, so they make no E and no P canonical."""
    _, _, counts, _ = default_pass
    for name in KERNEL_ROWS:
        assert counts["over", name] == 0, name


def test_a_cold_pass_expands_few_Z_alpha_products(default_pass):
    """The kernels and cofactors are formed at the point, every closed form
    enters a row as a Factored packed by at(K) or evaluated at a rational by
    eval_at, and the closed-form rows compare factorizations, so a cold
    default pass makes at most 21,910 products of int tuples (43,820 when
    each kernel was multiplied out in Z[alpha]), expands a Factored product
    only inside Factored.over, and expands no Factored value into Q(alpha)
    (359 when the cached families were cleared by a field element and the ct
    rows evaluated their closed forms in Q(alpha))."""
    total = collections.Counter()
    for (key, row), n in default_pass[2].items():
        if row is not None:  # the cold pass
            total[key] += n
    assert 0 < total["poly_mul"] <= 21910, total["poly_mul"]
    callers = {key[1] for key in total if key[0] == "poly"}
    assert callers == {"over"}, callers
    assert total["value"] == 0, total["value"]


def test_only_the_controls_take_field_sums_and_products(default_pass):
    """Every row decides on ints at a point alpha = 2^K, on Factored ratios
    or on Fractions at a rational, and the controls perturb printed values
    as (num + den)/den and served ones as ints: a cold default pass, the
    controls included, reaches no Henrici sum or product of Q(alpha) and no
    polynomial gcd (9 sums and products and 4 gcds when the controls
    perturbed in the field)."""
    rows = {row for (key, row), n in default_pass[2].items()
            if key in ("_sum", "_product", "_gcd") and row is not None}
    assert rows == set(), rows


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
    """After a full pass, a cached E or P replaced by a perturbed copy: the
    row reads the form jack serves, not the printed one, and passes, and
    integral.tie holds the new printed value against that form and fails,
    naming the label."""
    for (module, name), cache in default_pass[3].items():
        monkeypatch.setattr(module, name, cache)
    cache = jack._E_CACHE if family == "E" else jack._P_CACHE
    f = cache[label]
    assert extra.terms.keys() <= f.terms.keys() and (family, label) in jack._FORMS
    monkeypatch.setitem(cache, label, f + extra)
    assert verify.CHECKS[row](verify.Bounds()).status == "pass"
    result = verify.CHECKS["integral.tie"](verify.Bounds())
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


def _failed(names):
    return {name for name in names if verify.CHECKS[name](verify.Bounds()).status == "fail"}


@pytest.mark.parametrize("kappa, e", _P_mutants())
def test_every_P_mutant_at_N_4_fails_a_default_row(monkeypatch, kappa, e):
    """The mutant in the printed P fails integral.tie and the Gram-Schmidt
    oracle, each alone; the same mutant in the served h P fails
    P.symmetric-eigen-dominance, which reads it."""
    rows = [name for name in verify.CHECKS
            if name.startswith(("P.", "oracle.P")) or name == "integral.tie"]
    p = jack.build_P(kappa, 4)
    with monkeypatch.context() as m:
        m.setitem(jack._P_CACHE, kappa, p + MultiPoly(4, {e: ALPHA}))
        failed = _failed(rows)
    assert {"integral.tie", "oracle.P-gram-schmidt"} <= failed, failed
    integral = jack.integral

    def served(family, label):
        s, g = integral(family, label)
        if (family, label) == ("P", kappa):
            g = MultiPoly._raw(4, {**g.terms, e: poly_add(g.terms.get(e, ()), (0, 1))})
        return s, g
    monkeypatch.setattr(jack, "integral", served)
    assert "P.symmetric-eigen-dominance" in _failed(rows)


BOUNDS = [pytest.param(verify.Bounds(), {"E": 136, "P": 46, "S": 19}, id="defaults"),
          pytest.param(verify.Bounds(n_max=3, deg=3), None, id="N3-deg3"),
          pytest.param(verify.Bounds(n_max=2, deg=6), None, id="N2-deg6")]


@pytest.mark.parametrize("bounds, sizes", BOUNDS)
def test_every_served_read_is_a_tie_case(monkeypatch, bounds, sizes):
    """Every (family, label) a row reads from jack.integral is a case of
    integral.tie at the same bounds, which reads each of its cases there:
    what the rows check is what compute prints."""
    reads, row = collections.defaultdict(set), [None]
    integral = jack.integral

    def served(family, label):
        reads[row[0]].add((family, tuple(label)))
        return integral(family, label)
    monkeypatch.setattr(jack, "integral", served)
    for row[0] in sorted(verify.CHECKS):
        assert verify.CHECKS[row[0]](bounds).status == "pass", row[0]
    ties = reads.pop("integral.tie")
    assert {name: sorted(r - ties) for name, r in reads.items() if r - ties} == {}
    assert reads.keys() >= {"E.eigen-triangular", "P.two-routes", "asym.du-expansion",
                            "pi.v-stability", "negative.controls"}
    if sizes:
        assert collections.Counter(family for family, _ in ties) == sizes


def _printed_mutants():
    """(family, label, f) for +1 at the lowest monomial, and alpha^12 there,
    of every printed E, P and S that integral.tie sweeps at N = 3, degree 3."""
    reads, integral = set(), jack.integral
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jack, "integral", lambda family, label: (
            reads.add((family, label)), integral(family, label))[1])
        assert verify.CHECKS["integral.tie"](verify.Bounds(n_max=3, deg=3)).status == "pass"
    build = {"E": jack.build_E, "P": jack.build_P, "S": jack.build_S}
    for family, label in sorted(reads):
        f = build[family](label)
        low = min(f.terms)
        for c in (ONE, ALPHA ** 12):
            yield family, label, f + MultiPoly(f.nvars, {low: c})


def test_every_printed_mutant_fails_the_tie(monkeypatch):
    caches = {"E": jack._E_CACHE, "P": jack._P_CACHE, "S": jack._S_CACHE}
    names = {"E": "eta", "P": "kappa", "S": "rho+"}
    mutants = list(_printed_mutants())
    assert len(mutants) == 2 * 71
    for family, label, f in mutants:
        with monkeypatch.context() as m:
            m.setitem(caches[family], label, f)
            result = verify.CHECKS["integral.tie"](verify.Bounds(n_max=3, deg=3))
        assert result.status == "fail", (family, label)
        assert result.witness.startswith(f"{names[family]}={label}: "), result.witness
