"""Property tests for Q(alpha): the field axioms, the canonical form, the
JSON round trip, the reduced sum and product against the general Henrici
route, evaluation against Horner in Fractions, and the Z[alpha] helpers of
the construction, on elements drawn by hypothesis."""

import itertools
import math
import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from jackpoly import qalpha  # noqa: E402
from jackpoly.qalpha import (ALPHA, ONE, ZERO, AlphaRational, Factored,  # noqa: E402
                             _exact_scale, _gcd, _product, _sum, _trim, alpha_shift, pack,
                             poly_mul, times_multiple, unpack)

given, settings = hypothesis.given, hypothesis.settings

coeffs = st.integers(min_value=-12, max_value=12)
polys = st.lists(coeffs, min_size=1, max_size=4)
nonzero_polys = polys.filter(any)
elements = st.builds(AlphaRational, polys, nonzero_polys)
nonzero = elements.filter(bool)

PROPERTY = settings(max_examples=150, deadline=None)


def pack_all(nums):
    """({key: pack(num, k)}, k) for a dict of int tuples, 2^(k-1) above each l1 norm."""
    k = max(2, max((sum(map(abs, p)) for p in nums.values()), default=0).bit_length() + 1)
    return {key: pack(p, k) for key, p in nums.items()}, k


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
    scaled = AlphaRational(poly_mul(x.num, factor), poly_mul(x.den, factor))
    assert (scaled.num, scaled.den) == (x.num, x.den)


@PROPERTY
@given(elements)
def test_json_round_trip(x):
    assert AlphaRational.from_json(x.to_json()) == x


def over_linear(p, a, b):
    """p / (alpha*a + b) when the quotient lies in Z[alpha], else None; a != 0.
    Synthetic division from the top: p_k = a q_(k-1) + b q_k, and the
    constant term must come out as b q_0.  The reference for the trial
    division of Factored.over at alpha = 2^k."""
    n = len(p) - 1
    if n < 1:
        return None if p else ()
    q = [0] * n
    carry = 0
    for k in range(n, 0, -1):
        c, rem = divmod(p[k] - carry, a)
        if rem:
            return None
        q[k - 1] = c
        carry = b * c
    return tuple(q) if p[0] == carry else None


def over_reference(den, nums):
    """Factored.over on int tuples: each form divided out by over_linear
    while exact, up to its multiplicity, then the integer content."""
    out = {}
    for key, num in nums.items():
        if num:
            left = {}
            for (a, b), m in den.forms.items():
                while m and (q := over_linear(num, a, b)) is not None:
                    num, m = q, m - 1
                if m:
                    left[a, b] = m
            g = math.gcd(den.content, *num)
            out[key] = AlphaRational._raw(_exact_scale(num, g),
                                          Factored(content=den.content // g, forms=left).poly())
    return out


def _pairs(values):
    return {key: (v.num, v.den) for key, v in values.items()}


def times_linear(p, a, b):
    """p (alpha*a + b) in Z[alpha], for a != 0: the reference for
    over_linear's round trip."""
    if not p:
        return ()
    return tuple(map(operator.add, [b * c for c in p] + [0], [0] + [a * c for c in p]))


# linear factors alpha*a + b with a > 0, as the diagram constants have them
factors = st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))


@PROPERTY
@given(nonzero_polys, factors, st.integers(min_value=-3, max_value=3))
def test_linear_multiply_and_exact_division(p, ab, shift):
    a, b = ab
    p = _trim(p)
    q = times_linear(p, a, b)
    assert q == poly_mul(p, (b, a))
    assert over_linear(q, a, b) == p
    # alpha*a + b + shift divides q only when it equals a factor of q
    other = over_linear(q, a, b + shift)
    if other is not None:
        assert poly_mul(other, _trim((b + shift, a))) == q


def field_product(pairs, content=1):
    """content * prod of alpha*a + b, one factor at a time in Q(alpha)."""
    out = AlphaRational.from_fraction(content)
    for a, b in pairs:
        out = out * AlphaRational((b, a))
    return out


@st.composite
def batches(draw, forms=factors, min_keys=0):
    """A factored denominator, its forms repeated up to three times over an
    int content, and a dict of numerators: each a polynomial, zero at
    times, times some of those forms and some others."""
    den_pairs = [f for f in draw(st.lists(forms, max_size=3))
                 for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    nums = {}
    for key in range(draw(st.integers(min_value=min_keys, max_value=6))):
        pairs = draw(st.lists(st.sampled_from(den_pairs), max_size=4)) if den_pairs else []
        pairs += draw(st.lists(forms, max_size=2))
        nums[key] = poly_mul(_trim(draw(polys)), Factored(pairs).poly())
    return Factored(den_pairs, draw(st.integers(min_value=1, max_value=12))), nums


@PROPERTY
@given(batches())
def test_ratio_over_linear_forms_is_canonical(batch):
    """A batch of numerators over one factored denominator: each value has
    the same (num, den) tuples as the field division, which reduces by gcd,
    and a zero numerator is dropped."""
    den, nums = batch
    got = den.over(*pack_all(nums))
    assert got.keys() == {key for key, num in nums.items() if num}
    for key, value in got.items():
        want = AlphaRational(nums[key]) / den.value()
        assert (value.num, value.den) == (want.num, want.den)


def test_batch_over_examples():
    """A repeated form divided out once, twice or not at all, a numerator
    no form divides, and a zero numerator, over 6 (alpha + 1)^2 (2 alpha + 1)."""
    den = Factored([(1, 1), (1, 1), (2, 1)], 6)
    got = den.over(*pack_all({"once": (2, 2), "twice": (3, 6, 3), "none": (5, 0, 1), "zero": ()}))
    assert {key: (v.num, v.den) for key, v in got.items()} == {
        "once": ((1,), (3, 9, 6)), "twice": ((1,), (2, 4)), "none": ((5, 0, 1), (6, 24, 30, 12))}


def _least_k(polys):
    """The least k >= 2 at which every coefficient is a balanced digit."""
    return max([2, *((c if c >= 0 else ~c).bit_length() + 1 for p in polys for c in p)])


# forms alpha*a + b of split denominators, a > 0 and b of either sign
signed_factors = st.tuples(st.integers(min_value=1, max_value=6),
                           st.integers(min_value=-6, max_value=6))


@PROPERTY
@given(batches(signed_factors, 1), st.data())
def test_packed_over_is_the_tuple_route(batch, data):
    """Trial division at 2^k gives the tuple route's values: at the l1 k of
    pack_all; at the least k that holds the digits, where the bound fails
    often and the numerator is packed again; and after one digit of one
    numerator moves by one, when the value must move too."""
    den, nums = batch
    want = _pairs(over_reference(den, nums))
    assert _pairs(den.over(*pack_all(nums))) == want
    k = _least_k(nums.values())
    assert _pairs(den.over({key: pack(num, k) for key, num in nums.items()}, k)) == want
    key = data.draw(st.sampled_from(sorted(nums)))
    num = list(nums[key]) or [0]
    i = data.draw(st.integers(min_value=0, max_value=len(num) - 1))
    num[i] += data.draw(st.sampled_from((-1, 1)))
    moved = {key: _trim(num)}
    got = den.over(*pack_all(moved))
    assert _pairs(got) == _pairs(over_reference(den, moved))
    assert _pairs(got) != _pairs(den.over(*pack_all({key: nums[key]})))


@PROPERTY
@given(signed_factors.filter(lambda ab: math.gcd(*ab) == 1), st.integers(min_value=2, max_value=6),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool))
def test_packed_over_rejects_a_false_divisor(form, k, cofactor):
    """x = cofactor * F(2^k) is divisible at 2^k by construction, but its
    balanced digits num carry, so F need not divide num: when it does not,
    F stays in the denominator, as the tuple route keeps it."""
    den, f = Factored([form]), (form[0] << k) + form[1]
    hypothesis.assume(f)
    num = unpack(cofactor * f, k)
    hypothesis.assume(over_linear(num, *form) is None)
    got = den.over({0: cofactor * f}, k)
    assert _pairs(got) == _pairs(over_reference(den, {0: num}))
    assert got[0].den == den.poly()


def test_packed_over_retries_at_a_larger_k(monkeypatch):
    """3 (alpha + 1) at k = 3 divides to 3, but 3 (1 + 1) is not below 2^2:
    the bound fails, and the numerator is packed again at 6."""
    packed, real = [], qalpha.pack
    monkeypatch.setattr(qalpha, "pack", lambda poly, k: packed.append(k) or real(poly, k))
    got = Factored([(1, 1)], 2).over({0: pack((3, 3), 3)}, 3)
    assert _pairs(got) == {0: ((3,), (2,))} and packed == [6]
    vanishing = Factored([(1, -4)]).over({0: pack((0, 1), 2)}, 2)  # alpha - 4 is 0 at 2^2
    assert _pairs(vanishing) == {0: ((0, 1), (-4, 1))} and packed == [6, 4]


# any linear factor: a constant one (a = 0), the zero factor (0, 0), a < 0, b < 0
small = st.integers(min_value=-6, max_value=6)
any_factors = st.tuples(small, small)
contents = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@PROPERTY
@given(st.lists(any_factors, max_size=5), st.lists(any_factors, max_size=5), contents)
def test_factored_ratio_is_the_field_ratio(up, down, content):
    """A factored product or ratio is canonical with no gcd: the same
    (num, den) tuples as the product and quotient taken one factor at a
    time in Q(alpha); a zero denominator raises as the field does."""
    got = (Factored(up, content) * Factored(down)).value()
    want = field_product(up, content) * field_product(down)
    assert (got.num, got.den) == (want.num, want.den)
    if any(a == b == 0 for a, b in down):
        with pytest.raises(ZeroDivisionError):
            Factored(up, content) / Factored(down)
        return
    got = (Factored(up, content) / Factored(down)).value()
    want = field_product(up, content) / field_product(down)
    assert (got.num, got.den) == (want.num, want.den)


@PROPERTY
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=9), st.lists(factors, max_size=4)),
                min_size=1, max_size=4))
def test_factored_lcm_is_least(dens):
    """Each denominator divides the lcm in Z[alpha], and the cofactors share
    no common factor, so no smaller common multiple exists."""
    dens = [Factored(pairs, content) for content, pairs in dens]
    common = Factored.lcm(dens)
    cofactors = [(common / d).poly() for d in dens]
    for d, cofactor in zip(dens, cofactors):
        assert poly_mul(cofactor, d.poly()) == common.poly()
    g = cofactors[0]
    for cofactor in cofactors[1:]:
        g = _gcd(g, cofactor)[0]
    assert g == (1,)


@PROPERTY
@given(st.lists(any_factors, max_size=5),
       st.lists(any_factors.filter(lambda ab: ab != (0, 0)), max_size=5), contents)
def test_shifted_is_the_substitution(up, down, content):
    """Each alpha*a + b taken to (alpha*(a + b) + b)/(alpha + 1) gives the
    same canonical element as substituting alpha -> alpha/(alpha+1) into
    the value."""
    ratio = Factored(up, content) / Factored(down)
    got = ratio.shifted().value()
    want = ratio.value().substitute(alpha_shift())
    assert (got.num, got.den) == (want.num, want.den)


nonzero_factors = any_factors.filter(lambda ab: ab != (0, 0))
ratios = st.builds(lambda up, down, content: Factored(up, content) / Factored(down),
                   st.lists(any_factors, max_size=4), st.lists(nonzero_factors, max_size=4),
                   contents)


@PROPERTY
@given(ratios, ratios, st.lists(nonzero_factors, min_size=1, max_size=3))
def test_factored_equality_is_value_equality(a, b, extra):
    """a == b exactly when a.value() == b.value(): for ratios drawn apart,
    with zero and Fraction contents and forms of either sign, shifted,
    rebuilt from the same pairs in the other order, made zero, and times
    a quotient that cancels to 1."""
    rebuilt = (Factored([f for f, m in a.forms.items() if m > 0 for _ in range(m)][::-1],
                        a.content)
               / Factored([f for f, m in a.forms.items() if m < 0 for _ in range(-m)]))
    one = Factored(extra) / Factored(extra[::-1])
    zeros = [Factored([(0, 0)] + list(extra), a.content), b * Factored([(0, 0)])]
    assert one == Factored() and one.value() == ONE
    sides = [a, b, a.shifted(), b.shifted(), rebuilt, a * one, *zeros]
    for x in sides:
        for y in sides:
            assert (x == y) == (x.value() == y.value()), (x.content, x.forms, y.content, y.forms)
    assert a == rebuilt == a * one and zeros[0] == zeros[1]


@PROPERTY
@given(st.lists(any_factors, max_size=5), st.integers(min_value=-20, max_value=20),
       st.integers(min_value=0, max_value=12))
def test_factored_at_is_the_packed_product(pairs, content, k):
    """at(k) is pack(poly(), k) for a product in Z[alpha]; l1_bound() is at
    least the l1 norm of poly(), so at a k with 2^(k-1) above it the digits
    of at(k) are poly(); a denominator or a Fraction content is refused."""
    f = Factored(pairs, content)
    poly = f.poly()
    assert f.at(k) == pack(poly, k)
    assert f.l1_bound() >= sum(map(abs, poly))
    big = f.l1_bound().bit_length() + 2
    assert unpack(f.at(big), big) == poly
    for outside in (f / Factored([(7, 13)]), f * Factored(content=Fraction(1, 97))):
        if not outside.content:
            continue  # zero is in Z[alpha] whatever its forms
        with pytest.raises(ValueError, match="not in Z"):
            outside.at(k)


def _horner(poly, x):
    """poly evaluated at x in Q(alpha), by field operations."""
    out = ZERO
    for c in reversed(poly):
        out = out * x + c
    return out


# (p0, p1, q0, q1) of a Moebius map alpha -> (p1 alpha + p0)/(q1 alpha + q0)
moebius = st.tuples(coeffs, coeffs, coeffs, coeffs).filter(lambda t: t[1] * t[2] != t[0] * t[3])


@PROPERTY
@given(elements, moebius)
def test_substitute_is_the_field_composition(x, coefficients):
    """x at a Moebius map is num over den evaluated there in Q(alpha),
    whose sums and quotients reduce by the PRS."""
    p0, p1, q0, q1 = coefficients
    image = AlphaRational((p0, p1), (q0, q1))
    got = x.substitute(image)
    want = _horner(x.num, image) / _horner(x.den, image)
    assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("image", [AlphaRational(3), ALPHA * ALPHA, 1 / (ALPHA * ALPHA + 1)])
def test_substitute_refuses_other_images(image):
    with pytest.raises(ValueError, match="not a Moebius map"):
        (ONE / (ALPHA + 1)).substitute(image)


@PROPERTY
@given(elements, nonzero_polys, st.booleans())
def test_times_multiple_is_the_field_product(x, p, multiple):
    """x p over denominator 1 when x.den divides p, else the field product:
    the same canonical element either way."""
    p = poly_mul(_trim(p), x.den) if multiple else _trim(p)
    got = times_multiple(x, p)
    want = x * AlphaRational(p)
    assert (got.num, got.den) == (want.num, want.den)
    if multiple:
        assert got.den == (1,)


# ---------------------------------------------------------------------------
# the reduced sum and product against the general Henrici route: always
# gcd(b, d), then gcd(t, g); multiplication by plain convolution
# ---------------------------------------------------------------------------

def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _ref_sum(a, b, c, d):
    g, s, e = _gcd(b, d)
    t = _trim([x + y for x, y in itertools.zip_longest(_ref_mul(a, e), _ref_mul(c, s),
                                                          fillvalue=0)])
    if not t:
        return (), (1,)
    _, t, g = _gcd(t, g)
    return t, _ref_mul(_ref_mul(s, e), g)


def _ref_product(a, b, c, d):
    if not a or not c:
        return (), (1,)
    _, a, d = _gcd(a, d)
    _, c, b = _gcd(c, b)
    return _ref_mul(a, c), _ref_mul(b, d)


# operands that hit the fast paths: the unit, integers, shared denominators
units = st.sampled_from([ONE, AlphaRational(-1), AlphaRational(3)])
integral = st.builds(AlphaRational, polys)
operands = st.one_of(elements, units, integral)


@st.composite
def same_denominator(draw):
    den = draw(nonzero_polys)
    return AlphaRational(draw(polys), den), AlphaRational(draw(polys), den)


pairs = st.one_of(st.tuples(operands, operands), same_denominator())


@PROPERTY
@given(pairs)
def test_sum_and_product_match_the_general_route(pair):
    x, y = pair
    args = (x.num, x.den, y.num, y.den)
    assert _sum(*args) == _ref_sum(*args)
    assert _sum(x.num, x.den, _ref_mul(y.num, (-1,)), y.den) == _ref_sum(
        x.num, x.den, _ref_mul(y.num, (-1,)), y.den)
    assert _product(*args) == _ref_product(*args)


@PROPERTY
@given(st.one_of(polys, st.just([1])), st.one_of(polys, st.just([1])))
def test_mul_matches_convolution(p, q):
    p, q = _trim(p), _trim(q)
    assert poly_mul(p, q) == _ref_mul(p, q)


# ---------------------------------------------------------------------------
# evaluation at a rational point against Horner in Fractions
# ---------------------------------------------------------------------------

def _ref_eval(x, alpha0):
    def horner(cs):
        out = Fraction(0)
        for c in reversed(cs):
            out = out * alpha0 + c
        return out
    return horner(x.num) / horner(x.den)


points = st.one_of(st.sampled_from([Fraction(0), Fraction(-1), Fraction(-3), Fraction(1, 2),
                                    Fraction(-7, 3), Fraction(5, 2)]),
                   st.fractions(min_value=-20, max_value=20, max_denominator=12))


@PROPERTY
@given(operands, points)
def test_eval_at_matches_fraction_horner(x, alpha0):
    try:
        want = _ref_eval(x, alpha0)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="pole"):
            x.eval_at(alpha0)
    else:
        got = x.eval_at(alpha0)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("den, alpha0", [
    ((0, 1), 0),                  # 1/alpha at 0
    ((2, 1), -2),                 # at a negative root
    ((1, 2), Fraction(-1, 2)),    # at a non-integer root
    ((-6, 1, 1), 2),              # (alpha + 3)(alpha - 2) at 2
    ((-6, 1, 1), -3),
])
def test_eval_at_raises_at_a_pole(den, alpha0):
    with pytest.raises(ZeroDivisionError, match="pole"):
        AlphaRational((1, 1), den).eval_at(alpha0)


@pytest.mark.parametrize("num, den, alpha0, want", [
    ((), (1,), Fraction(-5, 3), Fraction(0)),
    ((3,), (1,), 0, Fraction(3)),
    ((0, 1), (1, 1), 0, Fraction(0)),
    ((1, 0, 2), (3, 1), Fraction(-1, 2), Fraction(3, 5)),
    ((0, 0, 0, 1), (1, 0, 1), Fraction(2, 3), Fraction(8, 39)),
    ((5, 1), (0, 0, 2), Fraction(-4), Fraction(1, 32)),
])
def test_eval_at_examples(num, den, alpha0, want):
    assert AlphaRational(num, den).eval_at(alpha0) == want


@PROPERTY
@given(st.integers(min_value=2, max_value=80), st.data())
def test_pack_unpack_round_trip(k, data):
    """A signed tuple with every coefficient in [-2^(k-1), 2^(k-1)) and no
    trailing zero is the balanced base-2^k digits of its value at 2^k."""
    half = 1 << k - 1
    digits = st.lists(st.integers(min_value=-half, max_value=half - 1), max_size=8)
    poly = _trim(data.draw(digits))
    assert unpack(pack(poly, k), k) == poly
