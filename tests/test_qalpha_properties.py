"""Property tests for Q(alpha): the field axioms, the canonical form, and
the JSON round trip, on elements drawn by hypothesis."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from jackpoly.qalpha import ONE, ZERO, AlphaRational, _mul, _trim  # noqa: E402

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
