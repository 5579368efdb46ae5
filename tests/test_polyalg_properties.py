"""Property tests for the sparse polynomial operators: the divided-difference
multiply-back identity, the transposition as a relabeling, subtraction, and
the rule that no zero coefficient is ever stored, on polynomials drawn by
hypothesis."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from jackpoly import polyalg as pa  # noqa: E402
from jackpoly.qalpha import ALPHA, AlphaRational  # noqa: E402

given, settings = hypothesis.given, hypothesis.settings
MP = pa.MultiPoly

# Small exponents and coefficients, so that sums and products often cancel.
coeffs = st.builds(lambda a, b: AlphaRational.from_fraction(a) + ALPHA * b,
                   st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    polys = st.dictionaries(exps, coeffs, max_size=6).map(lambda d: MP(n, d))
    return draw(polys), draw(polys)


PROPERTY = settings(max_examples=100, deadline=None)


def _pairs(n):
    return [(i, p) for i in range(1, n + 1) for p in range(1, n + 1) if i != p]


@PROPERTY
@given(poly_pairs())
def test_divided_difference_multiply_back(pair):
    f, _ = pair
    n = f.nvars
    for i, p in _pairs(n):
        zi, zp = MP.variable(i, n), MP.variable(p, n)
        assert pa.divided_difference(f, i, p) * (zi - zp) == f - pa.apply_transposition(f, i, p)


@PROPERTY
@given(poly_pairs())
def test_transposition_is_an_involutive_relabeling(pair):
    f, _ = pair
    n = f.nvars
    for i, p in _pairs(n):
        g = pa.apply_transposition(f, i, p)
        perm = list(range(n))
        perm[i - 1], perm[p - 1] = p - 1, i - 1
        assert g == pa.apply_permutation(f, perm)
        assert len(g.terms) == len(f.terms)
        assert pa.apply_transposition(g, i, p) == f


@PROPERTY
@given(poly_pairs())
def test_subtraction_adds_the_negation(pair):
    a, b = pair
    assert a - b == a + (-b)
    assert not a - a


@PROPERTY
@given(poly_pairs())
def test_no_zero_coefficient_is_stored(pair):
    a, b = pair
    n = a.nvars
    results = [a + b, a - b, a * b, b * a, a + (-a)]
    results += [pa.divided_difference(a, i, p) for i, p in _pairs(n)]
    for g in results:
        assert all(g.terms.values())
