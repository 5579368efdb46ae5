"""Property tests for the sparse polynomial operators: the divided-difference
multiply-back identity, the transposition as a relabeling, subtraction, the
rule that no zero coefficient is ever stored, and Sym and Asym summed by
orbits against the sums over all N! permutations, on polynomials drawn by
hypothesis."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from conftest import perm_sign  # noqa: E402
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


# Sym and Asym: ints (some above 2^64), Z[alpha] and Q(alpha) coefficients
ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))
in_z_alpha = st.builds(lambda a, b: AlphaRational.from_fraction(a) + ALPHA * b,
                       ints, st.integers(-2, 2))
in_q_alpha = st.builds(lambda c, a: c / (ALPHA + a), in_z_alpha, st.integers(1, 3))


@st.composite
def orbit_cases(draw):
    """(f, perm): f in N <= 5 variables with several terms on each of a few
    orbits, exponents with repeated and with distinct entries, and a
    permutation of its variables."""
    n = draw(st.integers(1, 5))
    coeffs = draw(st.sampled_from([ints, in_z_alpha, in_q_alpha]))
    terms = {}
    for base in draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=3)):
        for e in draw(st.lists(st.permutations(base), min_size=1, max_size=4)):
            terms[tuple(e)] = draw(coeffs)
    return MP(n, terms), tuple(draw(st.permutations(range(n))))


def _permutation_sum(f, signed):
    """The definition: the sum of pi f over all N! permutations pi, each
    signed by sgn(pi) when `signed`."""
    out = MP.zero(f.nvars)
    for perm in itertools.permutations(range(f.nvars)):
        g = pa.apply_permutation(f, perm)
        out = out - g if signed and perm_sign(perm) < 0 else out + g
    return out


@PROPERTY
@given(orbit_cases())
def test_orbit_sums_equal_permutation_sums(case):
    f, perm = case
    g = pa.apply_permutation(f, perm)
    for op, signed in ((pa.symmetrize, False), (pa.antisymmetrize, True)):
        assert op(f) == _permutation_sum(f, signed)
        # Sym(f - pi f) = 0 and Asym(f - sgn(pi) pi f) = 0: orbits that cancel
        cancel = f - (g.scale(perm_sign(perm)) if signed else g)
        assert op(cancel) == _permutation_sum(cancel, signed)
        assert not op(cancel)
        assert all(op(f).terms.values())
