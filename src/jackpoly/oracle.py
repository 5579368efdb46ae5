"""Brute-force cross-checks that never touch the main construction path.

The first three run over plain Fraction-coefficient dicts keyed by integer
exponent tuples (negative exponents allowed for the torus weight), the last
over the coefficients of whatever kernel and basis it is handed:

* the torus inner product at integer inverse parameter, realized as a
  Laurent constant term against the fully expanded weight, whose
  coefficients are ints; ct_pairing pairs two labelled families at once.
  It clears each polynomial's denominators once and reads each polynomial
  of the first family once into its int dual vector, so every pairing is
  an int dot product and one division; ct_inner_product is its 1 x 1 case;
* a linear-algebra construction of the non-symmetric polynomials at a
  specialized rational parameter: back-substitution along the triangular
  ansatz, then an exact residual check of every eigen-equation;
* Gram-Schmidt construction of the symmetric polynomials from monomial
  symmetric functions, on their coordinates under one Gram matrix of
  constant-term pairings;
* the pairing matrix of a truncated kernel against a given triangular
  basis of one degree, by two exact triangular solves; kernel and basis
  come from the caller, and the caller judges the matrix.
"""

from __future__ import annotations

import itertools
import math
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

def _bump(out: dict, e, c) -> None:
    """Add c at e, dropping the entry when the sum is zero."""
    s = out.get(e, 0) + c
    if s:
        out[e] = s
    elif e in out:
        del out[e]


def qp_scale(f: dict, c: Fraction) -> dict:
    if not c:
        return {}
    return {e: v * c for e, v in f.items()}


def qp_mul(f: dict, g: dict) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            _bump(out, tuple(map(operator.add, e1, e2)), c1 * c2)
    return out


# ---------------------------------------------------------------------------
# the torus weight and constant-term inner product
# ---------------------------------------------------------------------------

_WEIGHT_CACHE: dict = {}


def weight_expand(n: int, k: int) -> dict:
    """Fully expanded prod_{j != l} (1 - z_j/z_l)^k as a Laurent dict with
    int coefficients, built one pair j < l at a time from
    (1 - t)^k (1 - 1/t)^k = sum_{m=0}^{2k} (-1)^(k+m) C(2k, m) t^(m-k),
    t = z_j/z_l."""
    if k < 1:
        raise ValueError("the weight exponent k must be a positive integer")
    cached = _WEIGHT_CACHE.get((n, k))
    if cached is not None:
        return cached
    out = {(0,) * n: 1}
    for j, l in itertools.combinations(range(n), 2):
        factor = {}
        for m in range(2 * k + 1):
            e = [0] * n
            e[j], e[l] = m - k, k - m
            factor[tuple(e)] = (-1) ** (k + m) * math.comb(2 * k, m)
        out = qp_mul(out, factor)
    _WEIGHT_CACHE[(n, k)] = out
    return out


def _integral(f: dict, n: int):
    """(D, {mu: D f_mu}) with D the lcm of the denominators of f, so that
    every scaled coefficient is an int; raises when an exponent does not
    have n entries."""
    for mu in f:
        if len(mu) != n:
            raise ValueError(f"exponent {mu} has {len(mu)} entries, not n = {n}")
    d = math.lcm(*(c.denominator for c in f.values()))
    return d, {mu: c.numerator * (d // c.denominator) for mu, c in f.items()}


def ct_pairing(fs: dict, gs: dict, n: int, k: int) -> dict:
    """{a: {b: <f_a, g_b>}} for two labelled families of polynomials, where
    <f, g> is the constant term of f(1/z) g(z) w(z).  Each polynomial is
    scaled once to int coefficients by the lcm D of its denominators, and
    each f_a is read once into its int dual vector
    F_nu = sum_mu D_a f_mu w_(mu - nu) on the monomials nu of the g's, so
    every pairing is an int dot product and one Fraction(dot, D_a D_b)."""
    w = weight_expand(n, k)
    gs = {b: _integral(g, n) for b, g in gs.items()}
    support = set().union(*(g for _, g in gs.values()))
    out = {}
    for a, f in fs.items():
        d_f, f = _integral(f, n)
        dual = {}
        for nu in support:
            acc = 0
            for mu, c in f.items():
                cw = w.get(tuple(map(operator.sub, mu, nu)))
                if cw is not None:
                    acc += c * cw
            if acc:
                dual[nu] = acc
        out[a] = {b: Fraction(sum(dual[nu] * c for nu, c in g.items() if nu in dual), d_f * d_g)
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

def _xi_monomial(exps: tuple, i: int, alpha0: Fraction) -> dict:
    """Apply the i-th first-order operator to a single monomial, working
    directly from its definition with Fraction arithmetic (independent of
    the symbolic operator code)."""
    n = len(exps)
    out = {}
    ii = i - 1
    if exps[ii]:
        _bump(out, exps, alpha0 * exps[ii])
    if i > 1:
        _bump(out, exps, Fraction(1 - i))
    for p in range(1, n + 1):
        if p == i:
            continue
        pp = p - 1
        a, b = exps[ii], exps[pp]
        if a == b:
            continue
        # z_m * (monomial - swapped)/(z_i - z_p), m = i for p < i else p
        mult = ii if p < i else pp
        base = list(exps)
        if a > b:
            for t in range(a - b):
                base[ii], base[pp] = a - 1 - t, b + t
                base[mult] += 1
                _bump(out, tuple(base), Fraction(1))
                base[mult] -= 1
        else:
            for t in range(b - a):
                base[ii], base[pp] = a + t, b - 1 - t
                base[mult] += 1
                _bump(out, tuple(base), Fraction(-1))
                base[mult] -= 1
    return out


def _solve_exact(rows, bars, comps):
    """Back-substitute the monic triangular ansatz: comps ascends in the
    composition order and ends at the label, whose coefficient is 1, and
    rows[i][mono][nu] is the coefficient of z^mono in the i-th operator
    applied to z^nu.  Each lower x_mu is fixed, in descending order, by the
    first operator whose diagonal entry at mu differs from its eigenvalue
    bars[i]; then every equation of every operator is checked exactly at
    every monomial of the ansatz or of an operator image.  Raises when no
    operator separates a monomial or a residual is nonzero."""
    x = {comps[-1]: Fraction(1)}
    for mu in reversed(comps[:-1]):
        for row, lam in zip(rows, bars):
            eq = row.get(mu, {})
            pivot = eq.get(mu, 0) - lam
            if pivot:
                x[mu] = -sum(c * x.get(nu, 0) for nu, c in eq.items() if nu != mu) / pivot
                break
        else:
            raise ArithmeticError(f"no operator separates {mu} from the label")
    monos = set(comps).union(*rows)
    for row, lam in zip(rows, bars):
        for mono in monos:
            residual = sum(c * x.get(nu, 0) for nu, c in row.get(mono, {}).items())
            if residual != lam * x.get(mono, 0):
                raise ArithmeticError(f"eigen-equation {lam} fails at {mono}")
    return {nu: c for nu, c in x.items() if c}


def solve_E_linear(eta, alpha0) -> dict:
    """Solve for the unique monic triangular joint eigenfunction at a
    rational parameter value, using only the eigen-equations: one exact
    back-substitution along the ansatz and a residual check of every
    equation.  Raises EigenvalueCollision when the specialized spectrum
    fails to separate the candidate monomials."""
    eta = combinat.as_composition(eta)
    alpha0 = Fraction(alpha0)
    n, m = len(eta), sum(eta)
    comps = [nu for nu in combinat.compositions(m, n)
             if combinat.composition_leq(nu, eta)]
    comps.sort(key=combinat.composition_order_key)
    bars_eta = combinat.eigenvalue_fractions(eta, alpha0)
    for nu in comps:
        if nu != eta and combinat.eigenvalue_fractions(nu, alpha0) == bars_eta:
            raise EigenvalueCollision(
                f"eigenvalues of {nu} and {eta} collide at alpha = {alpha0}")
    span = set(comps)
    rows = []
    for i in range(1, n + 1):
        row = {}
        for nu in comps:
            for mono, c in _xi_monomial(nu, i, alpha0).items():
                if mono not in span:
                    raise ArithmeticError(
                        f"operator left the triangular span at {mono}")
                row.setdefault(mono, {})[nu] = c
        rows.append(row)
    return _solve_exact(rows, bars_eta, comps)


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

def _monomial_symmetric_q(kappa, n: int) -> dict:
    padded = tuple(kappa) + (0,) * (n - len(kappa))
    return {e: Fraction(1) for e in set(itertools.permutations(padded))}


def gram_schmidt_P(kappa, n: int, k: int) -> dict:
    """Orthogonalize the monomial symmetric functions below kappa (in a
    linear extension of dominance) under the constant-term inner product at
    alpha = 1/k; returns the monic result for kappa itself.  The vectors are
    coordinates in the m basis, paired through one Gram matrix, and only
    the result is expanded into monomials.  Positivity of every
    intermediate norm is asserted, which verifies the leading principal
    minors of the Gram matrix are positive."""
    kappa = tuple(p for p in combinat.as_partition(kappa) if p)
    target = kappa + (0,) * (n - len(kappa))
    shapes = [mu for mu in combinat.partitions(sum(kappa), n)
              if combinat.dominance_leq(mu, target)]
    if target not in shapes:
        raise ValueError(f"{kappa} does not fit into {n} variables")
    shapes.sort(key=combinat.dominance_key)
    ms = {mu: _monomial_symmetric_q(mu, n) for mu in shapes}
    gram = ct_pairing(ms, ms, n, k)

    def pair(x, y):
        return sum(cx * gram[a][b] * cy for a, cx in x.items() for b, cy in y.items())

    built = []
    for mu in shapes:
        v = {mu: Fraction(1)}
        for w, norm_w in built:
            c = pair(v, w) / norm_w
            for b, cb in w.items():
                _bump(v, b, -c * cb)
        norm_v = pair(v, v)
        if norm_v <= 0:
            raise ArithmeticError(
                f"Gram matrix lost positive definiteness at {mu} (k={k})")
        built.append((v, norm_v))
    # kappa dominates every shape, so v is its vector
    return {e: c for shape, c in v.items() for e in ms[shape]}


# ---------------------------------------------------------------------------
# the pairing matrix of a truncated kernel against a basis
# ---------------------------------------------------------------------------

def _solve_upper_triangular(mat, rhs_cols, labels):
    """Solve M X = B column by column, where M[r][c] is upper triangular over
    the ordered labels with a nonzero diagonal; mat and every column of B
    are dicts keyed by label."""
    out = {}
    for col_label, rhs in rhs_cols.items():
        x = {}  # holds only labels above the current one
        for lr in reversed(labels):
            row = mat.get(lr, {})
            acc = rhs.get(lr, 0)
            for lc, coeff in row.items():
                if lc in x:
                    acc = acc - coeff * x[lc]
            if acc:
                x[lr] = acc / row[lr]
        out[col_label] = x
    return out


def kernel_pairing(kernel, basis: dict) -> dict:
    """The pairing matrix C of a truncated kernel against a basis of one
    degree d: kernel_d = sum C[a][b] f_a(x) f_b(y).

    `kernel` is anything with .terms -> {x exps + y exps: coeff}; a degree
    with no kernel term lies past its truncation and raises.  `basis` maps
    each label, in ascending order, to a polynomial f (anything with
    .terms) that is triangular in that order: a nonzero coefficient at its
    own label and, among the labels, terms only at lower ones.  The matrix
    M[mono][label] of the basis coefficients is then upper triangular on
    the label rows, so C comes out of two triangular solves of M C M^T = W,
    one per side.  C[a] holds the nonzero entries of row a, and a row with
    none is absent; nothing is asserted about them.
    """
    labels = list(basis)
    m_matrix = {}
    for col, f in basis.items():
        for mono, c in f.terms.items():
            m_matrix.setdefault(mono, {})[col] = c
    n, d = len(labels[0]), sum(labels[0])
    w_cols = {}
    for e, c in kernel.terms.items():
        if sum(e[:n]) == d:
            w_cols.setdefault(e[n:], {})[e[:n]] = c
    if not w_cols:
        raise ValueError(f"the kernel has no term of degree {d}: its truncation is below it")
    # first solve eliminates the x side: columns indexed by y-monomial
    x_solved = _solve_upper_triangular(m_matrix, w_cols, labels)
    y_cols = {}
    for ymono, coeffs in x_solved.items():
        for xlab, c in coeffs.items():
            y_cols.setdefault(xlab, {})[ymono] = c
    # second solve eliminates the y side: C[xlabel][ylabel]
    return _solve_upper_triangular(m_matrix, y_cols, labels)
