"""Property test for the linear-solve oracle: at a rational parameter drawn
by hypothesis, the back-substituted solution equals the construction
specialized there, wherever the spectrum separates the ansatz."""

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
