"""Exact arithmetic in the rational-function field Q(alpha).

Elements are reduced ratios of integer-coefficient polynomials in the
parameter alpha.  Polynomials are stored as tuples of ints, index = power,
with no trailing zeros (the zero polynomial is the empty tuple).  The
canonical form divides out the polynomial gcd and the integer content and
fixes the sign so the denominator has a positive leading coefficient, which
makes equality a plain tuple comparison.

Reduction works in two layers:

* Products and sums of canonical operands use Henrici's reduced forms
  (P. Henrici, J. ACM 3, 1956), the method of `fractions.Fraction`: a
  product takes gcd(a, d) and gcd(c, b) of the crossed numerators and
  denominators and multiplies the cofactors; a sum takes g = gcd(b, d) and,
  only when g != 1, gcd(t, g) of the new numerator t with g.  Both results
  are canonical without a further gcd, and an inverse only moves the sign.
  Multiplying by the polynomial 1 returns the other operand, so a sum
  over one shared denominator b adds the numerators and takes only
  gcd(t, b), and none when b = 1.
* Every polynomial gcd goes through `_gcd`, which returns the gcd together
  with both cofactors.  A constant operand needs only an integer gcd;
  otherwise the primitive pseudo-remainder sequence computes it, and exact
  division by it gives the cofactors.

The closed-form constants and the denominators of the construction are
products of linear factors alpha*a + b, held as `Factored` ratios, whose
canonical form needs no gcd, at alpha or, by `Factored.shifted`, at
alpha/(alpha+1).  The construction works in Z[alpha], on plain int
tuples and on ints: `pack` and `unpack` hold an element of Z[alpha] as
one int, its value at alpha = 2^k, and read it back by balanced digits.
`Factored.over` makes a batch of packed numerators canonical over a
factored denominator by trial division of ints at 2^k, one linear factor
at a time; `times_multiple` clears a denominator by exact division, and
`homogeneous_compose` carries a numerator through alpha -> alpha/(alpha+1).

Evaluation at a rational point p/q stays in ints until one final
`Fraction`: numerator and denominator are evaluated homogeneously, as
q^deg f(p/q), by Horner.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer-polynomial helpers (tuples of ints, ascending powers)
# ---------------------------------------------------------------------------

def _trim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if a == (1,):
        return b
    if b == (1,):
        return a
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)  # Z has no zero divisors: the top coefficient stays


def _scale(a, k):
    if k == 0:
        return ()
    if k == 1:
        return a
    return tuple(c * k for c in a)


def _exact_scale(a, k):
    """a / k for an integer k that divides every coefficient."""
    if k == 1:
        return a
    return tuple(c // k for c in a)


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b over Z (b nonzero, deg a >= deg b)."""
    db, lb = len(b) - 1, b[-1]
    r = _trim(a)
    while len(r) - 1 >= db:
        lr, shift = r[-1], len(r) - 1 - db
        r = [c * lb for c in r]
        for i, c in enumerate(b):
            r[i + shift] -= lr * c
        r = _trim(r)
    return r


def _div_exact(a, b):
    """Quotient a / b over Z, or None when b does not divide a exactly."""
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for i in range(len(q) - 1, -1, -1):
        coef, rem = divmod(r[i + db], lb)
        if rem:
            return None
        q[i] = coef
        if coef:
            for j, cb in enumerate(b):
                r[i + j] -= coef * cb
    if any(r):
        return None
    return tuple(q)


def _prs_gcd(a, b):
    """Primitive PRS on primitive a, b: (h, a/h, b/h), h's leading
    coefficient > 0."""
    pa, pb = a, b
    while pb:
        r = _pseudo_rem(pa, pb)
        pa, pb = pb, (_exact_scale(r, math.gcd(*r)) if r else r)
    h = poly_neg(pa) if pa[-1] < 0 else pa
    return h, _div_exact(a, h), _div_exact(b, h)


def _gcd(a, b):
    """Polynomial gcd over Z (content included) of nonzero a and b, with the
    cofactors: (g, a/g, b/g), g's leading coefficient > 0."""
    if len(a) == 1 or len(b) == 1:
        c = math.gcd(*a, *b)
        return (c,), _exact_scale(a, c), _exact_scale(b, c)
    ca, cb = math.gcd(*a), math.gcd(*b)
    pa, pb = _exact_scale(a, ca), _exact_scale(b, cb)
    h, qa, qb = _prs_gcd(pa, pb)
    c = math.gcd(ca, cb)
    return _scale(h, c), _scale(qa, ca // c), _scale(qb, cb // c)


def _power(a, k):
    out = (1,)
    while k:
        if k & 1:
            out = poly_mul(out, a)
        k >>= 1
        if k:
            a = poly_mul(a, a)
    return out


def homogeneous_compose(coeffs, p, q, big):
    """sum_i c_i p^i q^(big - i) in Z[alpha] for polynomials p and q and
    big >= deg coeffs: q^big times coeffs composed with alpha -> p/q."""
    out, ppow, qpows = (), (1,), [(1,)]
    for _ in range(big):
        qpows.append(poly_mul(qpows[-1], q))
    for i, c in enumerate(coeffs):
        if c:
            out = poly_add(out, _scale(poly_mul(ppow, qpows[big - i]), c))
        ppow = poly_mul(ppow, p)
    return out


def _homogeneous(a, p, q):
    """q^deg(a) a(p/q) in Z, by Horner on ints."""
    out, qpow = 0, 1
    for c in reversed(a):
        out = out * p + c * qpow
        qpow *= q
    return out


def _product(a, b, c, d):
    """Canonical (a/b)(c/d) of canonical operands (Henrici)."""
    if not a or not c:
        return (), (1,)
    if d != (1,):
        _, a, d = _gcd(a, d)
    if b != (1,):
        _, c, b = _gcd(c, b)
    return poly_mul(a, c), poly_mul(b, d)


def _sum(a, b, c, d):
    """Canonical a/b + c/d of canonical operands (Henrici).  With
    g = gcd(b, d), b = g s and d = g e, the numerator t = a e + c s is
    coprime to s and e, so only gcd(t, g) can remain.  Over one shared
    denominator that is gcd(t, b), and over denominator 1 nothing."""
    if b == d:
        g, s, e = b, (1,), (1,)
    else:
        g, s, e = _gcd(b, d)
    t = poly_add(poly_mul(a, e), poly_mul(c, s))
    if not t:
        return (), (1,)
    if g == (1,):
        return t, poly_mul(s, d)
    _, t, g = _gcd(t, g)
    return t, poly_mul(poly_mul(s, e), g)


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class AlphaRational:
    """An element of Q(alpha) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        (n, dn), (d, dd) = _coerce_poly(num), _coerce_poly(den)
        self.num, self.den = _reduce(_scale(n, dd), _scale(d, dn))

    @classmethod
    def _raw(cls, num, den):
        """Internal constructor from already-canonical tuples."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_fraction(cls, q) -> "AlphaRational":
        q = Fraction(q)
        return cls._raw((q.numerator,) if q.numerator else (),
                        (q.denominator,))

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlphaRational._raw(*_sum(self.num, self.den,
                                        other.num, other.den))

    __radd__ = __add__

    def __neg__(self):
        return AlphaRational._raw(poly_neg(self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlphaRational._raw(*_sum(self.num, self.den,
                                        poly_neg(other.num), other.den))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlphaRational._raw(*_product(self.num, self.den,
                                            other.num, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "AlphaRational":
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(alpha)")
        if self.num[-1] < 0:
            return AlphaRational._raw(poly_neg(self.den), poly_neg(self.num))
        return AlphaRational._raw(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return AlphaRational._raw(_power(self.num, k), _power(self.den, k))

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as its Fraction, since it compares equal to it
        if len(self.num) < 2 and len(self.den) == 1:
            return hash(Fraction(self.num[0] if self.num else 0, self.den[0]))
        return hash((self.num, self.den))

    # -- specialization and substitution ------------------------------------

    def eval_at(self, alpha0) -> Fraction:
        """Exact value at a rational point p/q; raises on a pole.  Numerator
        and denominator are evaluated homogeneously in ints, as
        q^deg f(p/q), and divided once."""
        alpha0 = Fraction(alpha0)
        p, q = alpha0.numerator, alpha0.denominator
        d = _homogeneous(self.den, p, q)
        if d == 0:
            raise ZeroDivisionError(f"pole at alpha = {alpha0}")
        n = _homogeneous(self.num, p, q)
        shift = len(self.den) - len(self.num)
        if shift >= 0:
            return Fraction(n * q ** shift, d)
        return Fraction(n, d * q ** -shift)

    def substitute(self, image: "AlphaRational") -> "AlphaRational":
        """Compose with a Moebius map alpha -> (p1 alpha + p0)/(q1 alpha + q0),
        p1 q0 != p0 q1, such as alpha/(alpha+1); any other image raises
        ValueError.  Such a map keeps a coprime num and den coprime, so only
        the integer content is divided out, with no polynomial gcd."""
        p, q = image.num, image.den
        (p0, p1), (q0, q1) = (p + (0, 0))[:2], (q + (0, 0))[:2]
        if len(p) > 2 or len(q) > 2 or p1 * q0 == p0 * q1:
            raise ValueError(f"alpha -> {image} is not a Moebius map")
        big = max(len(self.num), len(self.den)) - 1
        num, den = (homogeneous_compose(f, p, q, big) for f in (self.num, self.den))
        g = math.gcd(*num, *den) if den[-1] > 0 else -math.gcd(*num, *den)
        return AlphaRational._raw(_exact_scale(num, g), _exact_scale(den, g))

    # -- presentation -------------------------------------------------------

    def __str__(self):
        return format_alpha(self)

    def __repr__(self):
        return f"AlphaRational({self.num!r}, {self.den!r})"

    def to_json(self):
        return {"num": list(self.num), "den": list(self.den)}

    @classmethod
    def from_json(cls, obj):
        return cls._raw(*_reduce(_trim(obj["num"]), _trim(obj["den"])))


def _reduce(num, den):
    """Canonical form: coprime over Z, denominator leading coefficient > 0."""
    if not den:
        raise ZeroDivisionError("zero denominator in Q(alpha)")
    if not num:
        return (), (1,)
    if den == (1,):
        return num, den
    _, num, den = _gcd(num, den)
    if den[-1] < 0:
        num, den = poly_neg(num), poly_neg(den)
    return num, den


def _coerce_poly(v):
    """Accept int / Fraction / coefficient sequence; return (poly, denom_int)."""
    if isinstance(v, (int, Fraction)):
        return ((v.numerator,) if v else (), v.denominator)
    if isinstance(v, AlphaRational):
        raise TypeError("pass AlphaRational operands through arithmetic, not the constructor")
    return (_trim(tuple(int(c) for c in v)), 1)


def _coerce(other):
    if isinstance(other, AlphaRational):
        return other
    if isinstance(other, (int, Fraction)):
        return AlphaRational.from_fraction(other)
    return NotImplemented


ZERO = AlphaRational(0)
ONE = AlphaRational(1)
ALPHA = AlphaRational((0, 1))


def alpha_shift() -> AlphaRational:
    """The substituted parameter alpha/(alpha+1)."""
    return AlphaRational._raw((0, 1), (1, 1))


# ---------------------------------------------------------------------------
# Z[alpha]: integral forms and ratios of products of linear factors
# ---------------------------------------------------------------------------

def pack(poly, k):
    """The int tuple poly at alpha = 2^k (Kronecker substitution: J. von
    zur Gathen and J. Gerhard, Modern Computer Algebra, 8.4)."""
    return sum(c << k * i for i, c in enumerate(poly))


def unpack(x, k):
    """The int tuple of the balanced base-2^k digits of x, each in
    [-2^(k-1), 2^(k-1)), lowest first, k >= 2: the one tuple with
    coefficients in that range whose pack at k is x."""
    half, out = 1 << k - 1, []
    while x:
        d = x & ((1 << k) - 1)
        x >>= k
        if d >= half:
            d, x = d - (1 << k), x + 1
        out.append(d)
    return tuple(out)


def pack_width(bound) -> int:
    """The least k >= 2 with 2^(k-1) > bound: each entry of a tuple of l1 at
    most bound is then a balanced digit, so `unpack` reads its `pack` back."""
    return max(2, bound.bit_length() + 1)


class Factored:
    """content * prod (alpha*a + b)^m over the primitive linear forms
    `forms` {(a, b): m}, gcd(a, b) = 1, a > 0 and m != 0; the content is an
    int or a Fraction, 0 when a factor is zero.  Distinct primitive forms
    are coprime and their products primitive (Gauss's lemma), so `value`
    and `over` take no polynomial gcd.  Never mutated."""

    __slots__ = ("content", "forms")

    def __init__(self, pairs=(), content=1, forms=None):
        """content * prod of alpha*a + b over the int pairs (a, b) * forms."""
        forms = {} if forms is None else forms
        for a, b in pairs:
            if a == 0:
                content *= b
                continue
            g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
            content *= g
            forms[a // g, b // g] = forms.get((a // g, b // g), 0) + 1
        if isinstance(content, Fraction) and content.denominator == 1:
            content = content.numerator
        self.content, self.forms = content, forms

    def _times(self, other, sign, content):
        forms = dict(self.forms)
        for f, m in other.forms.items():
            forms[f] = forms.get(f, 0) + sign * m
        return Factored(content=content, forms={f: m for f, m in forms.items() if m})

    def __mul__(self, other):
        return self._times(other, 1, self.content * other.content)

    def __truediv__(self, other):
        return self._times(other, -1, Fraction(self.content, other.content))

    @staticmethod
    def lcm(dens) -> "Factored":
        """The lcm of denominators: int contents, no negative multiplicity."""
        forms = {}
        for d in dens:
            for f, m in d.forms.items():
                forms[f] = max(m, forms.get(f, 0))
        return Factored(content=math.lcm(*(d.content for d in dens)), forms=forms)

    def shifted(self) -> "Factored":
        """The ratio at alpha/(alpha+1): each alpha*a + b becomes
        (alpha*(a + b) + b)/(alpha + 1), through the constructor, so no gcd
        is taken."""
        images = [((a + b, b), m) for (a, b), m in self.forms.items()]
        images.append(((1, 1), -sum(self.forms.values())))
        return (Factored([f for f, m in images for _ in range(m)], self.content)
                / Factored([f for f, m in images for _ in range(-m)]))

    def _expand(self, c, sign):
        """The int c times the forms of multiplicity sign * m > 0, in Z[alpha]."""
        out = _trim((c,))
        for (a, b), m in self.forms.items():
            if m * sign > 0:
                out = poly_mul(out, _power((b, a), m * sign))
        return out

    def _integral(self):
        if not isinstance(self.content, int) or min(self.forms.values(), default=1) < 0:
            raise ValueError(f"not in Z[alpha]: {self.content} times {self.forms}")
        return self

    def poly(self):
        """The product in Z[alpha]; for an int content and no m < 0."""
        return self._integral()._expand(self.content, 1)

    def at(self, k) -> int:
        """pack(poly(), k) without the expansion: content * prod (a 2^k + b)^m."""
        forms = self._integral().forms
        return self.content * math.prod(((a << k) + b) ** m for (a, b), m in forms.items())

    def l1_bound(self) -> int:
        """|content| prod (|a| + |b|)^m >= l1(poly()), as l1(pq) <= l1(p) l1(q)."""
        return abs(self.content) * math.prod((abs(a) + abs(b)) ** m
                                             for (a, b), m in self.forms.items())

    def value(self) -> AlphaRational:
        """The canonical element of Q(alpha); its denominator leads positive."""
        c = self.content  # an int has a numerator and a denominator too
        num = self._expand(c.numerator, 1)
        return AlphaRational._raw(num, self._expand(c.denominator, -1)) if num else ZERO

    def __eq__(self, other):
        """Equal values: a nonzero one factors one way, a content 0 is zero."""
        return (isinstance(other, Factored) and self.content == other.content
                and (not self.content or self.forms == other.forms))

    def __str__(self):
        return str(self.value())

    def over(self, nums, k, times=lambda key: 1) -> dict:
        """{key: t num / self} in canonical form, t = times(key) an int > 0, for each
        nonzero num in Z[alpha] of the dict nums, given as its int x at alpha = 2^k with
        every coefficient in [-2^(k-1), 2^(k-1)), over a denominator self (an int
        content > 0, no m < 0).  Each form F = alpha*a + b is divided out of x while
        F(2^k) divides it, up to its multiplicity: F | num gives F(2^k) | x, so a
        remainder proves F divides neither num nor, being primitive, t num.  The
        quotient q is unpacked once and kept when |q|_inf prod (a + |b|) over the forms
        divided out is below 2^(k-1): q prod F and num then have balanced digits and
        pack to x, so they are equal; else x is packed again at 2k.  Then only an
        integer gcd remains, t inside it; each leftover is expanded once."""
        out, dens = {}, {}
        for key, x in nums.items():
            j = k
            while x:
                q, left, size = x, {}, 1
                for (a, b), m in self.forms.items():
                    f = (a << j) + b
                    if not f:  # a form that vanishes at 2^j decides nothing
                        break
                    while m and not (qr := divmod(q, f))[1]:
                        q, m, size = qr[0], m - 1, size * (a + abs(b))
                    if m:
                        left[a, b] = m
                else:
                    if max(map(abs, num := unpack(q, j))) * size < 1 << j - 1:
                        break
                x, j = pack(unpack(x, j), 2 * j), 2 * j
            if x:
                num = _scale(num, times(key))
                g = math.gcd(self.content, *num)
                den = self.content // g, tuple(left.items())
                dens[den] = dens.get(den) or Factored(content=den[0], forms=left).poly()
                out[key] = AlphaRational._raw(_exact_scale(num, g), dens[den])
        return out


def times_multiple(x: AlphaRational, p) -> AlphaRational:
    """x p for p in Z[alpha].  When x's denominator divides p, as d_eta
    divides every denominator of E_eta, that is x.num (p / x.den) over 1,
    by one exact division and no gcd; otherwise the field product."""
    q = _div_exact(p, x.den)
    if q is None:
        return x * AlphaRational._raw(p, (1,))
    return AlphaRational._raw(poly_mul(x.num, q), (1,))


# ---------------------------------------------------------------------------
# printing: `join_terms` is the sign layout of every printed term list;
# `polyalg.term_text` writes the terms of the polynomials in z, x and m[...]
# ---------------------------------------------------------------------------

ALPHA_CHAR = "α"


def join_terms(chunks) -> str:
    """Lay out a list of signed term texts: "0" for none, else the first
    chunk, then " - x" for each later chunk written "-x" and " + x" for
    any other."""
    if not chunks:
        return "0"
    return chunks[0] + "".join(f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
                               for ch in chunks[1:])


def format_poly(cs) -> str:
    chunks = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if c:
            var = ALPHA_CHAR if i == 1 else f"{ALPHA_CHAR}^{i}"
            chunks.append(str(c) if i == 0 else var if c == 1 else
                          f"-{var}" if c == -1 else f"{c}*{var}")
    return join_terms(chunks)


def format_alpha(x: AlphaRational) -> str:
    if x.den == (1,):
        return format_poly(x.num)
    return f"({format_poly(x.num)})/({format_poly(x.den)})"
