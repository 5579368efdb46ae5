"""sympy as an independent referee for the canonical form in Q(alpha).

`qalpha._gcd` (gcd with cofactors) and `qalpha._reduce` (the canonical
form) are compared with sympy's `gcd` and `cancel` on seeded random inputs
and on adversarial ones: a shared factor of degree >= 4, coefficients above
2**64, constant operands, negative leading coefficients, and coprime pairs
whose values at small integer points share a spurious integer factor, which
an evaluation-based gcd would read back as a common factor.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from jackpoly import qalpha  # noqa: E402

X = sympy.Symbol("x")

# Pairs whose values at a small integer point share a spurious integer
# factor, which an evaluation-based gcd would read back as a wrong candidate.
SPURIOUS_PAIRS = [
    ((1, 1), (17, 1)),
    ((6, 6), (-68, -4)),
    ((0, 2, 3, 0, -1), (10, 53, 79, 39, 3)),
    ((-9, -6, 6, 2, -1), (87, -12, -32, 4, 1)),
    ((6, -4, 5, -3, 2), (66, -46, 19, 4, 3)),
]


def to_sympy(p):
    return sympy.Poly(list(reversed(p)), X, domain="ZZ")


def from_sympy(poly):
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def referee_gcd(a, b):
    g = sympy.gcd(to_sympy(a), to_sympy(b))
    return from_sympy(-g if g.LC() < 0 else g)


def referee_reduce(num, den):
    p, q = to_sympy(num).cancel(to_sympy(den), include=True)
    c = sympy.gcd(p.content(), q.content())
    p, q = p.exquo_ground(c), q.exquo_ground(c)
    if q.LC() < 0:
        p, q = -p, -q
    return from_sympy(p), from_sympy(q)


def poly(rng, deg, bound, lead=None):
    cs = [rng.randint(-bound, bound) for _ in range(deg)]
    cs.append(lead if lead is not None else rng.choice([-1, 1]) * rng.randint(1, bound))
    return tuple(cs)


def times(a, b):
    return from_sympy(to_sympy(a) * to_sympy(b))


def linear_product(rng, n):
    """A product of n factors (k + c*alpha), the shape of the Jack constants."""
    p = (rng.randint(1, 4),)
    for _ in range(n):
        p = times(p, (rng.randint(-6, 6), rng.randint(1, 3)))
    return p


def pairs(kind, count=120, seed=11):
    """Seeded (a, b) pairs of nonzero polynomials sharing a factor h."""
    rng = random.Random(f"{kind}-{seed}")
    out = []
    for _ in range(count):
        bound, h_deg = 9, rng.randint(0, 3)
        f_deg, g_deg = rng.randint(0, 4), rng.randint(0, 4)
        lead_f = lead_g = None
        if kind == "shared-degree-4":
            h_deg = rng.randint(4, 6)
        elif kind == "big-coefficients":
            bound = 2 ** rng.randint(65, 90)
        elif kind == "constant-operand":
            f_deg = h_deg = 0
        elif kind == "negative-leading":
            lead_f, lead_g = -rng.randint(1, 9), -rng.randint(1, 9)
        elif kind == "linear-factors":
            h = linear_product(rng, rng.randint(0, 4))
            out.append((times(h, linear_product(rng, rng.randint(0, 4))),
                        times(h, linear_product(rng, rng.randint(0, 4)))))
            continue
        h = poly(rng, h_deg, bound)
        a = times(h, poly(rng, f_deg, bound, lead_f))
        b = times(h, poly(rng, g_deg, bound, lead_g))
        out.append((a, b))
    return out


KINDS = ["random", "shared-degree-4", "big-coefficients", "constant-operand",
         "negative-leading", "linear-factors"]


@pytest.mark.parametrize("kind", KINDS + ["spurious"])
def test_gcd_and_cofactors_match_sympy(kind):
    cases = SPURIOUS_PAIRS if kind == "spurious" else pairs(kind)
    for a, b in cases + [(b, a) for a, b in cases]:
        g, qa, qb = qalpha._gcd(a, b)
        assert g == referee_gcd(a, b), (a, b)
        assert times(g, qa) == a and times(g, qb) == b, (a, b)


@pytest.mark.parametrize("kind", KINDS + ["spurious"])
def test_reduce_matches_sympy_cancel(kind):
    cases = SPURIOUS_PAIRS if kind == "spurious" else pairs(kind)
    for a, b in cases + [(b, a) for a, b in cases]:
        assert qalpha._reduce(a, b) == referee_reduce(a, b), (a, b)


def test_field_operations_are_canonical():
    """Sums, differences, products and quotients equal the unreduced
    fraction and are coprime with a positive leading denominator."""
    rng = random.Random(5)
    elems = [qalpha.AlphaRational(a, b)
             for kind in ("linear-factors", "random", "constant-operand")
             for a, b in pairs(kind, 40)]
    for _ in range(200):
        x, y = rng.choice(elems), rng.choice(elems)
        xn, xd, yn, yd = (to_sympy(p) for p in (x.num, x.den, y.num, y.den))
        for result, num, den in ((x + y, xn * yd + yn * xd, xd * yd),
                                 (x - y, xn * yd - yn * xd, xd * yd),
                                 (x * y, xn * yn, xd * yd),
                                 (x / y, xn * yd, xd * yn)):
            n, d = to_sympy(result.num), to_sympy(result.den)
            assert n * den == d * num, (x, y)
            assert d.LC() > 0
            assert referee_gcd(result.num or (0,), result.den) == (1,), (x, y)

