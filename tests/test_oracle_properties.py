"""Property tests for the oracles: at a rational parameter drawn by
hypothesis, the back-substituted solution equals the construction
specialized there, wherever the spectrum separates the ansatz, and the int
solve equals a Fraction back-substitution written out here, collisions
included; and every constant-term pairing equals its Fraction double sum."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from fractions import Fraction  # noqa: E402

from jackpoly import combinat, jack, oracle  # noqa: E402

given, settings, assume = hypothesis.given, hypothesis.settings, hypothesis.assume

# every composition with N in {2, 3, 4} parts and |eta| <= 4
labels = st.sampled_from([eta for n in (2, 3, 4) for eta in combinat.compositions_upto(4, n)])
alphas = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(labels, alphas)
def test_solve_matches_construction(eta, a0):
    try:
        sol = oracle.solve_E_linear(eta, a0)
    except oracle.EigenvalueCollision:
        assume(False)
    assert sol == jack.build_E(eta).specialize(a0)


def _xi_fraction(exps, i, a0):
    """The i-th first-order operator at a0 on one monomial, in Fractions."""
    out = {}

    def bump(e, c):
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    ii = i - 1
    if exps[ii]:
        bump(exps, a0 * exps[ii])
    if i > 1:
        bump(exps, Fraction(1 - i))
    for pp in range(len(exps)):
        a, b = exps[ii], exps[pp]
        if pp == ii or a == b:
            continue
        mult = ii if pp < ii else pp
        base = list(exps)
        for t in range(abs(a - b)):
            base[ii], base[pp] = (a - 1 - t, b + t) if a > b else (a + t, b - 1 - t)
            base[mult] += 1
            bump(tuple(base), Fraction(1 if a > b else -1))
            base[mult] -= 1
    return out


def _solve_fraction(eta, a0):
    """Back-substitution along the monic triangular ansatz over Fractions,
    then the residual of every equation."""
    n, m = len(eta), sum(eta)
    comps = sorted((nu for nu in combinat.compositions(m, n) if combinat.composition_leq(nu, eta)),
                   key=combinat.composition_order_key)
    bars = combinat.eigenvalue_fractions(eta, a0)
    for nu in comps:
        if nu != eta and combinat.eigenvalue_fractions(nu, a0) == bars:
            raise oracle.EigenvalueCollision(f"eigenvalues of {nu} and {eta} collide at alpha = {a0}")
    rows = []
    for i in range(1, n + 1):
        row = {}
        for nu in comps:
            for mono, c in _xi_fraction(nu, i, a0).items():
                row.setdefault(mono, {})[nu] = c
        rows.append(row)
    x = {eta: Fraction(1)}
    for mu in reversed(comps[:-1]):
        for row, lam in zip(rows, bars):
            eq = row.get(mu, {})
            pivot = eq.get(mu, 0) - lam
            if pivot:
                x[mu] = -sum(c * x.get(nu, 0) for nu, c in eq.items() if nu != mu) / pivot
                break
        else:
            raise ArithmeticError(f"no operator separates {mu} from the label")
    for row, lam in zip(rows, bars):
        for mono in set(comps).union(*rows):
            if sum(c * x.get(nu, 0) for nu, c in row.get(mono, {}).items()) != lam * x.get(mono, 0):
                raise ArithmeticError(f"eigen-equation {lam} fails at {mono}")
    return {nu: c for nu, c in x.items() if c}


def _outcome(solve, eta, a0):
    try:
        return "solved", solve(eta, a0)
    except (oracle.EigenvalueCollision, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(labels, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
def test_int_solve_is_the_fraction_back_substitution(eta, a0):
    got = _outcome(oracle.solve_E_linear, eta, a0)
    assert got == _outcome(_solve_fraction, eta, a0)
    if got[0] == "solved":
        assert all(type(c) is Fraction for c in got[1].values())


# Polynomials in n variables for ct_pairing: int or Fraction coefficients
# with denominators up to 10^6, possibly empty.
coefficients = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))


def polys(n):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coefficients, max_size=6)


@st.composite
def families(draw):
    """(n, k, fs, gs).  Each family holds drawn polynomials and, for a drawn
    p, the difference p - p o (z_1 <-> z_2), whose pairing with a polynomial
    symmetric in z_1, z_2 is a sum that cancels to 0."""
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.sampled_from((1, 2)))
    fam = st.lists(polys(n), max_size=3)
    fs, gs = draw(fam), draw(fam)
    p = draw(polys(n))
    diff = dict(p)
    for mu, c in p.items():
        swapped = (mu[1], mu[0]) + mu[2:]
        diff[swapped] = diff.get(swapped, 0) - c
    gs.append(diff)
    fs.append({mu: c for mu, c in draw(polys(n)).items()
               if mu[0] == mu[1]})
    return n, k, dict(enumerate(fs)), dict(enumerate(gs))


@settings(max_examples=150, deadline=None)
@given(families())
def test_ct_pairing_is_the_fraction_double_sum(case):
    n, k, fs, gs = case
    w = oracle.weight_expand(n, k)
    got = oracle.ct_pairing(fs, gs, n, k)
    for a, f in fs.items():
        for b, g in gs.items():
            want = sum((Fraction(cf) * cg * w.get(tuple(p - q for p, q in zip(mu, nu)), 0)
                        for mu, cf in f.items() for nu, cg in g.items()), Fraction(0))
            assert got[a][b] == want
            assert type(got[a][b]) is Fraction
    # the last f is symmetric in z_1, z_2 and the last g antisymmetric
    assert got[len(fs) - 1][len(gs) - 1] == 0
