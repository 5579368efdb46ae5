"""Brute-force cross-checks that never touch the main construction path.

Every routine takes and returns Fraction-coefficient dicts keyed by
integer exponent tuples (negative exponents allowed for the torus weight)
and works inside in ints, with one Fraction per output value:

* the torus inner product at integer inverse parameter, realized as a
  Laurent constant term against the fully expanded weight, whose
  coefficients are ints; ct_pairing pairs two labelled families at once.
  Inside, every exponent vector e is one packed int key sum_j e_j B^j, so
  mu - nu is one subtraction and the weight a dict on int keys.  The base
  B is chosen per call: it exceeds twice every entry of the weight
  (k(N-1) at most) and of every difference mu - nu, negative entries
  included, so keys are equal only when their exponents are.  It clears
  each polynomial's denominators once and reads each polynomial of the
  first family once into its int dual vector, so every pairing is an int
  dot product and one division; ct_inner_product is its 1 x 1 case;
* a linear-algebra construction of the non-symmetric polynomials at a
  specialized rational parameter p/q: the triangular ansatz, its
  eigenvalues at alpha = 0 and the alpha-free rows of the operators are
  built once per label, each operator image of a monomial once per
  (monomial, operator); scaled by q to ints, an entry at p/q is q c plus
  p nu_i on the diagonal, read in place by the back-substitution along the
  ansatz over one common denominator and by an exact int residual check;
* Gram-Schmidt construction of the symmetric polynomials from monomial
  symmetric functions, by fraction-free (Bareiss) elimination of their int
  Gram matrix of constant-term pairings, whose pivots are its leading
  principal minors.  The weight is symmetric, so <m_a, m_b> is
  |orbit(a)| <z^a, m_b>: one monomial per row.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from fractions import Fraction

from . import combinat


class EigenvalueCollision(ValueError):
    """The specialized eigenvalue vectors fail to separate the ansatz."""


ALPHA0_SEQUENCE = (Fraction(2), Fraction(3), Fraction(5), Fraction(7, 2),
                   Fraction(11, 3), Fraction(13, 2))


# ---------------------------------------------------------------------------
# Fraction-dict polynomial helpers
# ---------------------------------------------------------------------------

def qp_scale(f: dict, c: Fraction) -> dict:
    if not c:
        return {}
    return {e: v * c for e, v in f.items()}


# ---------------------------------------------------------------------------
# the torus weight and constant-term inner product
# ---------------------------------------------------------------------------

_WEIGHT_CACHE: dict = {}
_PACKED_WEIGHT: dict = {}


def _powers(base: int, n: int) -> list:
    """[B^0, ..., B^(n-1)]: the packed key of an exponent e is the dot
    product of e with these."""
    return [base ** j for j in range(n)]


def weight_expand(n: int, k: int) -> dict:
    """Fully expanded prod_{j != l} (1 - z_j/z_l)^k as a Laurent dict with
    int coefficients, built one pair j < l at a time from
    (1 - t)^k (1 - 1/t)^k = sum_{m=0}^{2k} (-1)^(k+m) C(2k, m) t^(m-k),
    t = z_j/z_l.  The product runs on packed keys in base B = 2k(n-1) + 1:
    every entry of every partial product lies in [-k(n-1), k(n-1)], so
    the balanced base-B digits of a key give its exponent back."""
    if k < 1:
        raise ValueError("the weight exponent k must be a positive integer")
    cached = _WEIGHT_CACHE.get((n, k))
    if cached is not None:
        return cached
    half = k * (n - 1)
    base = 2 * half + 1
    powers = _powers(base, n)
    out = {0: 1}
    for j, l in itertools.combinations(range(n), 2):
        step = powers[j] - powers[l]
        factor = [((m - k) * step, (-1) ** (k + m) * math.comb(2 * k, m))
                  for m in range(2 * k + 1)]
        prod = {}
        for e1, c1 in out.items():
            for e2, c2 in factor:
                e = e1 + e2
                prod[e] = prod.get(e, 0) + c1 * c2
        out = {e: c for e, c in prod.items() if c}
    weight = {}
    for key, c in out.items():
        e = []
        for _ in range(n):
            digit = (key + half) % base - half
            e.append(digit)
            key = (key - digit) // base
        weight[tuple(e)] = c
    _WEIGHT_CACHE[(n, k)] = weight
    return weight


def _packed_weight(n: int, k: int, base: int) -> dict:
    """What weight_expand(n, k) returns, keyed in base `base`; the copy is
    kept only while weight_expand returns the same dict."""
    w = weight_expand(n, k)
    cached = _PACKED_WEIGHT.get((n, k, base))
    if cached is None or cached[0] is not w:
        powers = _powers(base, n)
        cached = _PACKED_WEIGHT[(n, k, base)] = (
            w, {sum(map(operator.mul, e, powers)): c for e, c in w.items()})
    return cached[1]


def _extent(polys):
    """(smallest, largest) exponent entry over the polynomials, or None
    when they have no monomial."""
    monos = [mu for f in polys for mu in f]
    if not monos:
        return None
    return min(map(min, monos)), max(map(max, monos))


def _integral(f: dict, n: int, powers: list):
    """(D, {key(mu): D f_mu}) with D the lcm of the denominators of f, so
    that every scaled coefficient is an int, and key(mu) the dot product of
    mu with powers; raises when an exponent does not have n entries."""
    if set(map(len, f)) - {n}:
        mu = next(mu for mu in f if len(mu) != n)
        raise ValueError(f"exponent {mu} has {len(mu)} entries, not n = {n}")
    dens = [c.denominator for c in f.values()]
    d = math.lcm(*dens)
    keys = [sum(map(operator.mul, mu, powers)) for mu in f]
    return d, dict(zip(keys, (c.numerator * (d // e) for c, e in zip(f.values(), dens))))


def ct_pairing(fs: dict, gs: dict, n: int, k: int) -> dict:
    """{a: {b: <f_a, g_b>}} for two labelled families of polynomials, where
    <f, g> is the constant term of f(1/z) g(z) w(z).  Exponents are packed
    to ints, e -> sum_j e_j B^j, so mu - nu is one subtraction.  B, a power
    of two, exceeds twice every entry of the weight and of every difference
    mu - nu; both then are their keys' balanced base-B digits, so equal keys
    mean equal exponents.  Each polynomial is scaled once to int
    coefficients by the lcm D of its denominators, and each f_a is read once
    into its int dual vector F_nu = sum_mu D_a f_mu w_(mu - nu) on the
    monomials nu of the g's, so every pairing is an int dot product and one
    Fraction(dot, D_a D_b)."""
    spread = k * (n - 1)
    f_ext, g_ext = _extent(fs.values()), _extent(gs.values())
    if f_ext and g_ext:
        spread = max(spread, f_ext[1] - g_ext[0], g_ext[1] - f_ext[0])
    base = 1 << (2 * spread).bit_length()
    powers = _powers(base, n)
    fs = {a: _integral(f, n, powers) for a, f in fs.items()}
    gs = {b: _integral(g, n, powers) for b, g in gs.items()}
    wget = _packed_weight(n, k, base).get
    mul, sub, zeros = operator.mul, operator.sub, itertools.repeat(0)
    support = set().union(*(g for _, g in gs.values()))
    out = {}
    for a, (d_f, f) in fs.items():
        keys, coeffs = list(f), list(f.values())
        dual = {}
        for nu in support:
            acc = sum(map(mul, coeffs, map(wget, map(sub, keys, itertools.repeat(nu)), zeros)))
            if acc:
                dual[nu] = acc
        out[a] = {b: Fraction(sum(map(mul, map(dual.get, g, zeros), g.values())), d_f * d_g)
                  for b, (d_g, g) in gs.items()}
    return out


def ct_inner_product(f: dict, g: dict, n: int, k: int) -> Fraction:
    """Constant term of f(1/z) g(z) w(z), the 1 x 1 case of ct_pairing; the
    common normalization of the underlying torus integral cancels in every
    ratio taken from this."""
    return ct_pairing({0: f}, {0: g}, n, k)[0][0]


def ct_norm_ratio(f: dict, n: int, k: int) -> Fraction:
    """<f, f> / <1, 1> under the constant-term realization; <1, 1> is the
    constant term of the weight, (nk)!/(k!)^n by Dyson's identity."""
    return ct_inner_product(f, f, n, k) / weight_expand(n, k)[(0,) * n]


# ---------------------------------------------------------------------------
# linear-algebra construction of the non-symmetric polynomials
# ---------------------------------------------------------------------------

def _rational(alpha0) -> Fraction:
    """alpha0 as a Fraction; a float or any other non-rational type raises
    rather than being solved at its binary value."""
    if not isinstance(alpha0, numbers.Rational):
        raise TypeError(f"alpha0 must be an int or a Fraction, not {type(alpha0).__name__}")
    return Fraction(alpha0)


def _q_xi_monomial(exps: tuple, i: int, p: int, q: int) -> dict:
    """q times the i-th first-order operator at alpha0 = p/q applied to a
    single monomial, working directly from its definition in int arithmetic
    (independent of the symbolic operator code): p e_i + q (1 - i) on the
    monomial itself and +-q on each term of the divided differences."""
    ii = i - 1
    a = exps[ii]
    out = {}
    diag = p * a + q * (1 - i)
    if diag:
        out[exps] = diag
    for pp, b in enumerate(exps):
        if pp == ii or a == b:
            continue
        # z_m (z_i^a z_p^b - z_i^b z_p^a)/(z_i - z_p), m = i for p < i else p,
        # is sign(a - b) z_m times z_i^u z_p^(a+b-1-u) summed over
        # min(a, b) <= u < max(a, b)
        c = q if a > b else -q
        di, dp = (1, 0) if pp < ii else (0, 1)
        base = list(exps)
        for u in range(min(a, b), max(a, b)):
            base[ii], base[pp] = u + di, a + b - 1 - u + dp
            key = tuple(base)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _xi_monomial(exps: tuple, i: int, alpha0) -> dict:
    """The i-th first-order operator at alpha0 applied to a single monomial:
    the int operator of _q_xi_monomial divided by q."""
    a0 = _rational(alpha0)
    q = a0.denominator
    return {mono: Fraction(c, q)
            for mono, c in _q_xi_monomial(exps, i, a0.numerator, q).items()}


def _solve_exact(rows, bars, comps, p, q):
    """Back-substitute the monic triangular ansatz in ints: comps ascends in
    the composition order and ends at the label, whose coefficient is 1;
    rows[i][mono][nu] is the coefficient of z^mono in the alpha-free image
    of z^nu under the i-th operator, so q times the operator at p/q has
    q rows[i][mono][nu] there plus p nu_i at mono = nu, and bars[i] is q
    times its eigenvalue.  Each lower x_mu is fixed, in descending order,
    by the first operator whose diagonal entry at mu differs from its
    eigenvalue.  The solution is held as x_nu = X_nu / D over one common
    denominator D, the lcm of the denominators so far: a pivot that brings
    in a factor D lacks multiplies every X and D by it.  Then every
    equation of every operator is checked as an int equality at every
    monomial of the ansatz or of an operator image.  Raises when no
    operator separates a monomial or a residual is nonzero; returns
    {nu: Fraction(X_nu, D)} over the nonzero X_nu."""
    x, d = {comps[-1]: 1}, 1
    for mu in reversed(comps[:-1]):
        for i, (row, lam) in enumerate(zip(rows, bars)):
            eq = row.get(mu, {})
            pivot = q * eq.get(mu, 0) + p * mu[i] - lam
            if pivot:
                # x_mu = num / den in lowest terms, den > 0
                num = -q * sum(c * x.get(nu, 0) for nu, c in eq.items() if nu != mu)
                den = pivot * d
                g = math.gcd(num, den) * (1 if den > 0 else -1)
                num, den = num // g, den // g
                factor = den // math.gcd(den, d)
                if factor != 1:
                    for nu in x:
                        x[nu] *= factor
                    d *= factor
                if num:
                    x[mu] = num * (d // den)
                break
        else:
            raise ArithmeticError(f"no operator separates {mu} from the label")
    monos = set(comps).union(*rows)
    for i, (row, lam) in enumerate(zip(rows, bars)):
        for mono in monos:
            residual = q * sum(c * x.get(nu, 0) for nu, c in row.get(mono, {}).items())
            if residual + (p * mono[i] - lam) * x.get(mono, 0):
                raise ArithmeticError(f"eigen-equation {Fraction(lam, q)} fails at {mono}")
    return {nu: Fraction(c, d) for nu, c in x.items()}


_ANSATZ_CACHE: dict = {}
_IMAGE_CACHE: dict = {}


def _image(nu, i):
    """The alpha-free part of the i-th operator on z^nu, kept per (nu, i):
    q times the operator at p/q is p nu_i on z^nu itself plus q times this
    image, _q_xi_monomial at p/q = 0/1.  It depends on nu and i alone, and
    its dict is never written, so a kept image is the image made again."""
    if (nu, i) not in _IMAGE_CACHE:
        _IMAGE_CACHE[nu, i] = _q_xi_monomial(nu, i, 0, 1)
    return _IMAGE_CACHE[nu, i]


def _ansatz(eta):
    """The parts of a solve that do not depend on alpha0: the compositions
    below eta in ascending composition order, each one's eigenvalue vector
    at alpha = 0, and the rows of _solve_exact, raising at an image outside
    them.  The vector and each operator are affine in alpha with slope nu
    and nu_i on z^nu, so q times one at p/q is p nu + q (its value at 0)."""
    cached = _ANSATZ_CACHE.get(eta)
    if cached is None:
        comps = tuple(sorted((nu for nu in combinat.compositions(sum(eta), len(eta))
                              if combinat.composition_leq(nu, eta)),
                             key=combinat.composition_order_key))
        span, rows = frozenset(comps), [{} for _ in eta]
        for i, row in enumerate(rows, start=1):
            for nu in comps:
                for mono, c in _image(nu, i).items():
                    if mono not in span:
                        raise ArithmeticError(f"operator left the triangular span at {mono}")
                    row.setdefault(mono, {})[nu] = c
        cached = _ANSATZ_CACHE[eta] = (
            comps, {nu: combinat.eigenvalue_ints(nu, 0, 1) for nu in comps}, rows)
    return cached


def solve_E_linear(eta, alpha0) -> dict:
    """Solve for the unique monic triangular joint eigenfunction at a
    rational parameter value alpha0 = p/q, using only the eigen-equations:
    the operators and eigenvalues are scaled by q to ints, then one exact
    back-substitution along the ansatz and a residual check of every
    equation.  Raises EigenvalueCollision when the specialized spectrum
    fails to separate the candidate monomials."""
    eta = combinat.as_composition(eta)
    alpha0 = _rational(alpha0)
    p, q = alpha0.numerator, alpha0.denominator
    comps, at_zero, rows = _ansatz(eta)

    def bars(nu):
        return tuple(p * e + q * z for e, z in zip(nu, at_zero[nu]))
    bars_eta = bars(eta)
    for nu in comps:
        if nu != eta and bars(nu) == bars_eta:
            raise EigenvalueCollision(
                f"eigenvalues of {nu} and {eta} collide at alpha = {alpha0}")
    return _solve_exact(rows, bars_eta, comps, p, q)


def solve_E_auto(eta):
    """Walk the fixed parameter sequence until the solve separates."""
    for alpha0 in ALPHA0_SEQUENCE:
        try:
            return alpha0, solve_E_linear(eta, alpha0)
        except EigenvalueCollision:
            continue
    raise EigenvalueCollision(f"no parameter in the fixed sequence works for {eta}")


# ---------------------------------------------------------------------------
# Gram-Schmidt construction of the symmetric polynomials
# ---------------------------------------------------------------------------

def _monomial_symmetric(kappa, n: int) -> dict:
    padded = tuple(kappa) + (0,) * (n - len(kappa))
    return {e: 1 for e in set(itertools.permutations(padded))}


def _gram_matrix(shapes: list, n: int, k: int):
    """({mu: m_mu}, [[<m_a, m_b>]]) over the padded shapes, in their order.
    The weight is symmetric, so <m_a, m_b> = |orbit(a)| <z^a, m_b>: one
    ct_pairing of one monomial per row against the m's, whose table must
    be integral before it is scaled by the orbit sizes."""
    ms = {mu: _monomial_symmetric(mu, n) for mu in shapes}
    gram = ct_pairing({mu: {mu: 1} for mu in shapes}, ms, n, k)
    if any(c.denominator != 1 for row in gram.values() for c in row.values()):
        raise ArithmeticError(f"the m-basis Gram matrix is not integral (k={k})")
    return ms, [[len(ms[a]) * gram[a][b].numerator for b in shapes] for a in shapes]


def _bareiss(mat: list):
    """Fraction-free (Bareiss) elimination of a square int matrix, in place
    and without row exchanges: step s leaves mat[s][s] equal to the leading
    principal minor of order s + 1, and the rows below it zero in column s
    (left unwritten).  Every division is by the previous pivot and exact by
    Sylvester's identity; a remainder raises.  Stops at the first pivot
    that is not positive and returns its index, or None when none is."""
    prev = 1
    for s, row in enumerate(mat):
        pivot = row[s]
        if pivot <= 0:
            return s
        for lower in mat[s + 1:]:
            head = lower[s]
            for j in range(s + 1, len(row)):
                lower[j], rem = divmod(lower[j] * pivot - head * row[j], prev)
                if rem:
                    raise ArithmeticError(f"inexact Bareiss division by {prev}")
        prev = pivot
    return None


def gram_schmidt_P(kappa, n: int, k: int) -> dict:
    """Orthogonalize the monomial symmetric functions below kappa (in a
    linear extension of dominance) under the constant-term inner product at
    alpha = 1/k; returns the monic result for kappa itself.  The m's and the
    weight have int coefficients, so their Gram matrix G is an int matrix,
    and Bareiss elimination of it yields the leading principal minors as
    pivots.  Each must be positive, which is the positivity of every
    Gram-Schmidt norm.  The monic vector of kappa is orthogonal to every
    earlier m: its coordinates c, with c_kappa = 1, solve the leading block
    of G against minus its last column, by int back-substitution over the
    last-but-one minor; only the result is expanded into monomials."""
    kappa = tuple(p for p in combinat.as_partition(kappa) if p)
    target = kappa + (0,) * (n - len(kappa))
    shapes = [mu for mu in combinat.partitions(sum(kappa), n)
              if combinat.dominance_leq(mu, target)]
    if target not in shapes:
        raise ValueError(f"{kappa} does not fit into {n} variables")
    shapes.sort(key=combinat.dominance_key)
    ms, mat = _gram_matrix(shapes, n, k)
    bad = _bareiss(mat)
    if bad is not None:
        raise ArithmeticError(
            f"Gram matrix lost positive definiteness at {shapes[bad]} (k={k})")
    # kappa dominates every shape, so it is last; x = minor * c in ints
    last = len(shapes) - 1
    minor = mat[last - 1][last - 1] if last else 1
    x = [0] * last + [minor]
    for r in reversed(range(last)):
        row = mat[r]
        x[r], rem = divmod(-sum(row[j] * x[j] for j in range(r + 1, last + 1)), row[r])
        if rem:
            raise ArithmeticError(f"inexact back-substitution at {shapes[r]} (k={k})")
    coeffs = (Fraction(c, minor) for c in x)
    return {e: c for shape, c in zip(shapes, coeffs) if c for e in ms[shape]}
