"""Property tests for Q(alpha): the field axioms, the canonical form, the
JSON round trip, and the Z[alpha] helpers of the construction, on elements
drawn by hypothesis."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from jackpoly.qalpha import (ONE, ZERO, AlphaRational, _mul, _trim, linear_forms,  # noqa: E402
                             linear_product, over_linear, over_linear_forms, times_linear)

given, settings = hypothesis.given, hypothesis.settings

coeffs = st.integers(min_value=-12, max_value=12)
polys = st.lists(coeffs, min_size=1, max_size=4)
nonzero_polys = polys.filter(any)
elements = st.builds(AlphaRational, polys, nonzero_polys)
nonzero = elements.filter(bool)

PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(elements, elements, elements)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x
    assert x - x == ZERO and -(-x) == x
    assert x - y == x + (-y)


@PROPERTY
@given(elements, nonzero)
def test_division_and_inverse(x, y):
    assert y * y.inverse() == ONE
    assert (x / y) * y == x
    assert y ** -2 == (y * y).inverse()


@PROPERTY
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_canonical_form(num, den, factor):
    """A common factor cancels, the denominator leads positive, and the
    form is unique, so equal values are equal tuples."""
    x = AlphaRational(num, den)
    assert x.den[-1] > 0
    factor = _trim(factor)
    scaled = AlphaRational(_mul(x.num, factor), _mul(x.den, factor))
    assert (scaled.num, scaled.den) == (x.num, x.den)


@PROPERTY
@given(elements)
def test_json_round_trip(x):
    assert AlphaRational.from_json(x.to_json()) == x


# linear factors alpha*a + b with a > 0, as the diagram constants have them
factors = st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))


@PROPERTY
@given(nonzero_polys, factors, st.integers(min_value=-3, max_value=3))
def test_linear_multiply_and_exact_division(p, ab, shift):
    a, b = ab
    p = _trim(p)
    q = times_linear(p, a, b)
    assert q == _mul(p, (b, a))
    assert over_linear(q, a, b) == p
    # alpha*a + b + shift divides q only when it equals a factor of q
    other = over_linear(q, a, b + shift)
    if other is not None:
        assert _mul(other, _trim((b + shift, a))) == q


@PROPERTY
@given(polys, st.lists(factors, max_size=5), st.lists(factors, max_size=3))
def test_ratio_over_linear_forms_is_canonical(num, den_pairs, num_pairs):
    """num times some linear factors over others: the same (num, den)
    tuples as the field division, which reduces by gcd."""
    num = _mul(_trim(num), linear_product(num_pairs).num)
    got = over_linear_forms(num, *linear_forms(den_pairs))
    want = AlphaRational(num) / linear_product(den_pairs)
    assert (got.num, got.den) == (want.num, want.den)
