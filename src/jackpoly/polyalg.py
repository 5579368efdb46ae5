"""Sparse multivariate polynomials over Q(alpha) and the operators on them.

Terms live in a dict keyed by exponent tuples (length = number of
variables); zero coefficients are never stored.  Every operator that sums
terms into a dict does so through `_add_term`, which drops a key whose sum
vanishes; the variable relabelings (`apply_permutation`,
`apply_transposition`) are bijections on exponent tuples, so they move
terms without summing any.  Variable indices in the operator API are
1-based to match diagram coordinates.  Coefficients are Q(alpha) elements,
or ints for a polynomial taken at one point alpha = 2^k (`verify`); a
truncated kernel in x_1..x_N, y_1..y_N is one MultiPoly in 2N variables, its
Z[alpha] numerators built on ints at alpha = 2^k, once per (N, D, diagonal),
by `kernel_numerators` (verify reads them) and made canonical over D! alpha^D
by `Factored.over` with no polynomial gcd.  The oracle keeps its Laurent data
(negative exponents, Fraction coefficients) in plain dicts and reads nothing
of this module.  Text output writes each term with `term_text` and lays the
list out with `qalpha.join_terms`, the one sign-joining rule of the package.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .combinat import (ascending_pair_count, rearrangements, signed_rearrangements,
                       stabilizer_order)
from .qalpha import ALPHA, ONE, ZERO, AlphaRational, Factored, join_terms, pack_width


def _add_term(out: dict, key, c) -> None:
    """out[key] += c, deleting the key when the sum vanishes."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    elif key in out:
        del out[key]


def monomial_text(exps, symbol: str) -> str:
    """Render an exponent tuple as e.g. z1^2*z3; the empty string for 1."""
    return "*".join(f"{symbol}{i+1}" + (f"^{k}" if k > 1 else "")
                    for i, k in enumerate(exps) if k)


def term_text(c, mono: str, bare: bool = False) -> str:
    """One signed term for `join_terms`, with an AlphaRational or Fraction
    coefficient: str(c) without a monomial, the monomial alone at c == 1
    and negated at c == -1, else c*mono for a bare coefficient and
    (c)*mono for any other."""
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}" if bare else f"({c})*{mono}"


class MultiPoly:
    """Sparse polynomial in z_1..z_N with Q(alpha) coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    if len(exps) != nvars:
                        raise ValueError(f"exponent {exps} has wrong length for N={nvars}")
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: ONE})

    @classmethod
    def monomial(cls, exps, coeff=ONE):
        return cls(len(exps), {tuple(exps): coeff})

    @classmethod
    def variable(cls, i: int, nvars: int):
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(nvars, {tuple(exps): ONE})

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("ambient variable counts differ")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(out, e, c)
        return MultiPoly._raw(self.nvars, out)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return self.mul_truncated(other, math.inf)
        if isinstance(other, (int, Fraction, AlphaRational)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def mul_truncated(self, other, degree):
        """The product without its terms of total degree above `degree`."""
        self._check(other)
        rhs = [(e, c, sum(e)) for e, c in other.terms.items()]
        out = {}
        for e1, c1 in self.terms.items():
            room = degree - sum(e1)
            for e2, c2, d2 in rhs:
                if d2 <= room:
                    _add_term(out, tuple(map(operator.add, e1, e2)), c1 * c2)
        return MultiPoly._raw(self.nvars, out)

    def outer(self, other):
        """f(x) g(y) in the variables of f followed by those of g."""
        return MultiPoly._raw(self.nvars + other.nvars,
                              {e1 + e2: c1 * c2 for e1, c1 in self.terms.items()
                               for e2, c2 in other.terms.items()})

    def scale(self, c):
        if not c:
            return MultiPoly._raw(self.nvars, {})
        return MultiPoly._raw(self.nvars, {e: k * c for e, k in self.terms.items()})

    @classmethod
    def _raw(cls, nvars, terms):
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = terms
        return self

    # -- queries ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def coeff(self, exps):
        return self.terms.get(tuple(exps), ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def lead_term(self):
        """Lexicographically first nonzero term, or None."""
        if not self.terms:
            return None
        e = min(self.terms)
        return e, self.terms[e]

    def map_coeff(self, fn):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return MultiPoly._raw(self.nvars, out)

    def specialize(self, alpha0) -> dict:
        """Exact Fraction-coefficient dict at a rational parameter value."""
        alpha0 = Fraction(alpha0)
        out = {}
        for e, c in self.terms.items():
            v = c.eval_at(alpha0)
            if v:
                out[e] = v
        return out

    # -- presentation -------------------------------------------------------

    def to_json(self):
        return {"N": self.nvars,
                "terms": [{"exp": list(e), "coeff": c.to_json()}
                          for e, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, obj):
        terms = {tuple(t["exp"]): AlphaRational.from_json(t["coeff"])
                 for t in obj["terms"]}
        return cls(obj["N"], terms)

    def format(self, symbol="z"):
        # an int, or a coefficient c*alpha^k over denominator 1, prints without parentheses
        return join_terms([term_text(c, monomial_text(e, symbol), isinstance(c, int) or (
                               c.den == (1,) and sum(map(bool, c.num)) == 1))
                           for e, c in self.sorted_terms()])

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"MultiPoly(N={self.nvars}, {self.format()})"


# ---------------------------------------------------------------------------
# variable actions
# ---------------------------------------------------------------------------

def apply_transposition(f: MultiPoly, i: int, p: int) -> MultiPoly:
    """Swap variables z_i and z_p (1-based)."""
    n = f.nvars
    if not (1 <= i <= n and 1 <= p <= n and i != p):
        raise ValueError(f"bad transposition indices ({i},{p}) for N={n}")
    perm = list(range(n))
    perm[i - 1], perm[p - 1] = p - 1, i - 1
    return apply_permutation(f, perm)


def apply_permutation(f: MultiPoly, perm) -> MultiPoly:
    """Substitute variable i by variable perm[i] (0-based images).  A
    permutation maps distinct exponent tuples to distinct ones, so terms are
    relabelled, never summed."""
    n = f.nvars
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{tuple(perm)} is not a permutation of {n} variables")
    source = [0] * n
    for i, j in enumerate(perm):
        source[j] = i
    return MultiPoly._raw(n, {tuple(map(e.__getitem__, source)): c
                              for e, c in f.terms.items()})


def mul_variable(f: MultiPoly, i: int) -> MultiPoly:
    a = i - 1
    out = {}
    for e, c in f.terms.items():
        out[e[:a] + (e[a] + 1,) + e[a + 1:]] = c
    return MultiPoly._raw(f.nvars, out)


def degree_scale(f: MultiPoly, i: int) -> MultiPoly:
    """The Euler-type action z_i d/dz_i, exponent-weighted termwise."""
    a = i - 1
    out = {}
    for e, c in f.terms.items():
        if e[a]:
            out[e] = c * e[a]
    return MultiPoly._raw(f.nvars, out)


def divided_difference(f: MultiPoly, i: int, p: int) -> MultiPoly:
    """(f - s_ip f)/(z_i - z_p), by the telescoping rule on each monomial.

    For a monomial with exponents (a, b) at the two positions the quotient
    is a geometric bridge: sum_u z_i^u z_p^(a+b-1-u) over min(a,b) <= u <
    max(a,b), negated when a < b.  No general division is ever performed.
    """
    n = f.nvars
    if not (1 <= i <= n and 1 <= p <= n and i != p):
        raise ValueError(f"bad index pair ({i},{p}) for N={n}")
    ii, pp = i - 1, p - 1
    out = {}
    for e, c in f.terms.items():
        a, b = e[ii], e[pp]
        if a == b:
            continue
        sc = c if a > b else -c
        base = list(e)
        for u in range(min(a, b), max(a, b)):
            base[ii] = u
            base[pp] = a + b - 1 - u
            _add_term(out, tuple(base), sc)
    return MultiPoly._raw(n, out)


# ---------------------------------------------------------------------------
# the commuting first-order operators and the symmetric second-order one
# ---------------------------------------------------------------------------

def cherednik_apply(f: MultiPoly, i: int, alpha=ALPHA) -> MultiPoly:
    """alpha z_i df/dz_i + sum_{p<i} z_i DD_ip f + sum_{p>i} z_p DD_ip f
    + (1-i) f, where DD_ip is the divided difference for the pair.  With
    an int alpha and int coefficients it is the operator at that point."""
    n = f.nvars
    if not 1 <= i <= n:
        raise ValueError(f"operator index {i} out of range for N={n}")
    out = degree_scale(f, i).scale(alpha)
    for p in range(1, n + 1):
        if p == i:
            continue
        dd = divided_difference(f, i, p)
        out = out + mul_variable(dd, i if p < i else p)
    if i > 1:
        out = out + f.scale(1 - i)
    return out


def d2_apply(f: MultiPoly, alpha=ALPHA) -> MultiPoly:
    """alpha times the second-order symmetric eigenoperator:
    alpha sum_j z_j^2 d^2/dz_j^2 plus 2 sum over pairs of
    (z_j^2 d_j - z_k^2 d_k)/(z_j - z_k), defined on symmetric input where
    every pair term is again a polynomial, so it keeps Z[alpha]
    coefficients in Z[alpha].  With an int alpha and int coefficients it is
    the operator at that point."""
    n = f.nvars
    if any(apply_transposition(f, i, i + 1) != f for i in range(1, n)):
        raise ValueError("d2_apply requires a symmetric polynomial")
    out = {}
    for e, c in f.terms.items():
        w = 0
        for k in e:
            w += k * (k - 1)
        if w:
            out[e] = c * (alpha * w)
    acc = MultiPoly._raw(n, out)
    for j in range(1, n):
        g = mul_variable(degree_scale(f, j), j)
        for k in range(j + 1, n + 1):
            acc = acc + divided_difference(g, j, k).scale(2)
    return acc


# ---------------------------------------------------------------------------
# symmetrization, alternants, bases
# ---------------------------------------------------------------------------

def _orbit_sum(f: MultiPoly, signed: bool) -> MultiPoly:
    """The sum of sgn(pi)^signed pi f over all N! permutations pi of the
    variables, one orbit at a time.  Its coefficient at a rearrangement e of
    a decreasing lambda is stab(lambda) s_lambda, s_lambda the sum of f over
    the rearrangements of lambda, for Sym; for Asym it is
    sgn(e) sum sgn(e') f_e' over the rearrangements e' of lambda, with
    sgn(e) = (-1)^(ascending pairs of e), and 0 when lambda has a repeated
    entry.  So each term is added once into its lambda, and each nonzero sum
    is written to every rearrangement of lambda, walked with its sign."""
    n, sums = f.nvars, {}
    for e, c in f.terms.items():
        if signed:
            if len(set(e)) < n:
                continue
            if ascending_pair_count(e) & 1:
                c = -c
        _add_term(sums, tuple(sorted(e, reverse=True)), c)
    out = {}
    for lam, c in sums.items():
        if not signed:
            c = c * stabilizer_order(lam)
        for e, odd in signed_rearrangements(lam):
            out[e] = -c if signed and odd else c
    return MultiPoly._raw(n, out)


def symmetrize(f: MultiPoly) -> MultiPoly:
    """Sym f, the sum of f over all permutations of the variables."""
    return _orbit_sum(f, False)


def antisymmetrize(f: MultiPoly) -> MultiPoly:
    """Asym f, the signed sum of f over all permutations of the variables."""
    return _orbit_sum(f, True)


def vandermonde(n: int) -> MultiPoly:
    """prod_{j<k} (x_j - x_k)."""
    out = MultiPoly.one(n)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            out = out * (MultiPoly.variable(j, n) - MultiPoly.variable(k, n))
    return out


def monomial_symmetric(kappa, n: int) -> MultiPoly:
    """Sum of the distinct rearrangements of the exponent vector."""
    kappa = tuple(kappa)
    if len(kappa) > n:
        raise ValueError(f"partition {kappa} longer than N={n}")
    padded = kappa + (0,) * (n - len(kappa))
    return MultiPoly._raw(n, dict.fromkeys(rearrangements(padded), ONE))


# ---------------------------------------------------------------------------
# truncated generating kernels
# ---------------------------------------------------------------------------

def binomial_series(c, degree: int) -> list:
    """Coefficients of (1-t)^(-c) through t^degree: c(c+1)...(c+n-1)/n!."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    out = [ONE]
    cur = ONE
    for n in range(1, degree + 1):
        cur = cur * (c + (n - 1)) / n
        out.append(cur)
    return out


_KERNELS: dict = {}


def kernel_numerators(n: int, bound: int, diagonal: bool) -> tuple:
    """(k, blocks, norms), kept per (n, bound, diagonal) and never mutated:
    blocks[D] is D! alpha^D K_D as {exponent: its int at alpha = 2^k}, K_D the
    x-degree D terms of prod_{j,k} (1 - x_j y_k)^(-1/alpha), times
    prod_j (1 - x_j y_j)^(-1) when `diagonal`; norms[D] is its largest l1
    norm.  The factors give prod_{i<m} (1 + i alpha) and m! alpha^m at m,
    as [1/alpha]_m / m! = prod_{i<m} (1 + i alpha) / (m! alpha^m), x-degrees
    D1 and D2 multiply with binom(D1 + D2, D1), and all lies in Z>=0[alpha]:
    at alpha = 1, an l1 norm, block D sums to D! binom(F + D - 1, D) over F
    factors.  2^(k-1) exceeds that at D = bound, so an int's base-2^k digits
    are its coefficients, and their sum is it mod 2^k - 1.  A key is
    sum_i e_i B^i, B = 2^s > bound, with the x-degree the digit above."""
    if bound < 0:
        raise ValueError("truncation bound must be >= 0")
    if (n, bound, diagonal) in _KERNELS:
        return _KERNELS[n, bound, diagonal]
    total = math.factorial(bound) * math.comb(n * n + n * diagonal + bound - 1, bound)
    k, s = pack_width(total), max(1, bound.bit_length())
    top, alpha = 2 * n * s, 1 << k
    rising = [math.prod(1 + i * alpha for i in range(m)) for m in range(bound + 1)]
    factors = [(j, n + i, rising) for j in range(n) for i in range(n)]
    if diagonal:
        factors += [(j, n + j, [math.factorial(m) * alpha ** m for m in range(bound + 1)])
                    for j in range(n)]
    terms = {0: 1}
    for j, i, series in factors:
        step = (1 << s * j) + (1 << s * i) + (1 << top)
        table = [[series[m] * math.comb(deg + m, m) for m in range(bound - deg + 1)]
                 for deg in range(bound + 1)]
        out = {}
        for key, c in terms.items():
            for v in table[key >> top]:
                out[key] = out.get(key, 0) + c * v
                key += step
        terms = out
    blocks, norms, mask = [{} for _ in range(bound + 1)], [0] * (bound + 1), (1 << s) - 1
    for key, c in terms.items():
        d = key >> top
        blocks[d][tuple(key >> s * i & mask for i in range(2 * n))] = c
        norms[d] = max(norms[d], c % (alpha - 1))
    _KERNELS[n, bound, diagonal] = k, blocks, norms
    return k, blocks, norms


def _kernel(n: int, bound: int, diagonal: bool) -> MultiPoly:
    """kernel_numerators, each block made canonical over D! alpha^D."""
    k, blocks, _ = kernel_numerators(n, bound, diagonal)
    return MultiPoly._raw(2 * n, {
        e: v for d, block in enumerate(blocks)
        for e, v in Factored([(1, 0)] * d, math.factorial(d)).over(block, k).items()})


def pi_truncated(n: int, bound: int) -> MultiPoly:
    """Truncation of prod_{j,k} (1 - x_j y_k)^(-1/alpha) to degree <= bound
    in x and in y, held in x_1..x_n, y_1..y_n: every term has equal degree
    in x and in y, so that is total degree <= 2 bound."""
    return _kernel(n, bound, False)


def omega_truncated(n: int, bound: int) -> MultiPoly:
    """Truncation of prod_j (1 - x_j y_j)^(-1) prod_{j,k} (1 - x_j y_k)^(-1/alpha),
    held as pi_truncated holds its kernel."""
    return _kernel(n, bound, True)
