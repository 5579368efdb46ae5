"""Every row whose identity lives in `verify` fails on a perturbed input
with a witness that names the failing case and both values.

Each case starts from empty construction caches, perturbs one input (a
cached E, J, P or S, one scalar constant or node product, or one count of
the integer Cauchy kernel), runs the row at small bounds and reads the witness.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

import jackpoly
from jackpoly import jack, scalars, verify
from jackpoly.polyalg import MultiPoly
from jackpoly.qalpha import ALPHA, ONE, AlphaRational, Factored

BOUNDS = verify.Bounds(n_max=2, deg=1, ks=(1, 2), rs=(Fraction(1),))
WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "jackbench" / "workloads.py"


def _cached_E(eta):
    def perturb(monkeypatch):
        monkeypatch.setitem(jack._E_CACHE, eta, verify._corrupt(jack.build_E(eta)))
    return perturb


def _cached_P(kappa):
    def perturb(monkeypatch):
        monkeypatch.setitem(jack._P_CACHE, kappa, verify._corrupt(jack.build_P(kappa)))
    return perturb


def _cached_S(rho_plus):
    def perturb(monkeypatch):
        monkeypatch.setitem(jack._S_CACHE, rho_plus, verify._corrupt(jack.build_S(rho_plus)))
    return perturb


def _cached_J(eta):
    """Add 1 at alpha^0 to the packed J at eta's lowest monomial."""
    def perturb(monkeypatch):
        jack._packed_integral(eta)
        pending, k, terms = jack._J_CACHE[eta]
        e = min(terms)
        monkeypatch.setitem(jack._J_CACHE, eta, (pending, k, {**terms, e: terms[e] + 1}))
    return perturb


def _cached_plus(family, label, e, c=ONE):
    """Add c at the monomial e of the cached E, or P for the padded label."""
    def perturb(monkeypatch):
        cache = jack._E_CACHE if family == "E" else jack._P_CACHE
        f = (jack.build_E if family == "E" else jack.build_P)(label)
        monkeypatch.setitem(cache, label, f + MultiPoly(f.nvars, {e: c}))
    return perturb


def _scalar(name, label):
    """Add 1 to the constant `name` at one diagram; a value at the shifted
    parameter is a substitution of it, so the perturbation reaches that too."""
    def perturb(monkeypatch):
        orig = getattr(scalars, name)

        def perturbed(eta):
            value = orig(eta)
            return value + ONE if tuple(eta) == label else value
        monkeypatch.setattr(scalars, name, perturbed)
    return perturb


def _node_product(kind, label):
    """Double the node product `kind` (d, dp, e, ep, b or h) at one diagram
    in every factored ratio that reads it: a closed form such as b/h is one
    ratio formed in one walk, not a quotient of the const_* values."""
    def perturb(monkeypatch):
        orig, two = scalars.node_ratio, Factored(content=2)

        def perturbed(eta, up, down=(), content=1):
            out = orig(eta, up, down, content)
            if tuple(eta) != label:
                return out
            return out * two if kind in up else out / two if kind in down else out
        monkeypatch.setattr(scalars, "node_ratio", perturbed)
    return perturb


def _node_form(kind, label, form):
    """One more factor `form` in the node product `kind` at one diagram,
    in every factored ratio that reads it."""
    def perturb(monkeypatch):
        orig, extra = scalars.node_ratio, Factored([form])

        def perturbed(eta, up, down=(), content=1):
            out = orig(eta, up, down, content)
            if tuple(eta) != label:
                return out
            return out * extra if kind in up else out / extra if kind in down else out
        monkeypatch.setattr(scalars, "node_ratio", perturbed)
    return perturb


def _contingency_plus_one(key):
    """Add 1 to the integer kernel's count at one (row sums, column sums)."""
    def perturb(monkeypatch):
        orig = verify._contingency
        monkeypatch.setattr(verify, "_contingency",
                            lambda a, b, memo: orig(a, b, memo) + ((a, b) == key))
    return perturb


def _operator_plus(name, term):
    """One more term, term(*args) at z^0, in every result of the operator
    `name` (cherednik_apply or divided_difference) that verify imported."""
    def perturb(monkeypatch):
        orig = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda f, *args: orig(f, *args) + MultiPoly(
            f.nvars, {(0,) * f.nvars: term(*args)}))
    return perturb


# the first random polynomial of each operator row at N = 2, cleared to ints
XI_G = "12*z2^2 - 54*z1 - 8*z1*z2 + 9*z1^2*z2^2"
DD_F = "2 + z1*z2^2 + 4*z1^2*z2^2 - 3*z1^3*z2 - 4*z1^3*z2^3"

ROWS = [
    ("E.eigen-triangular", _cached_E((1, 0)), "eta=(1, 0)"),
    ("E.value-at-ones", _cached_E((1, 0)), "eta=(1, 0)"),
    # a +1 on a cached E keeps d E integral and positive
    ("E.integral-positive", _scalar("const_d", (1, 0)), "eta=(1, 0)"),
    ("E.swap-action", _cached_E((1, 0)), "eta=(1, 0) i=1"),
    # alpha = 2^K at z^0 after every xi: xi_1 maps a constant to 0 and xi_2
    # negates it, so xi_1 xi_2 keeps one alpha and xi_2 xi_1 none
    ("xi.commutation", _operator_plus("cherednik_apply", lambda i, alpha: alpha),
     f"N=2 g={XI_G}"),
    ("divided-difference.multiply-back", _operator_plus("divided_difference", lambda i, p: 1),
     f"N=2 (1,2) f={DD_F}"),
    ("P.symmetric-eigen-dominance", _cached_P((1, 0)), "kappa=(1, 0)"),
    ("P.two-routes", _cached_P((1, 0)), "kappa=(1, 0) N=2"),
    ("P.stability", _cached_P((1, 0)), "kappa=(1, 0) N=3"),
    ("sym.proportionality", _cached_E((1, 0)), "eta=(1, 0)"),
    ("P.value-and-hook", _node_product("b", (1, 0)), "kappa=(1, 0)"),
    ("asym.proportionality", _cached_E((1, 0)), "rho=(1, 0)"),
    ("asym.c-closed-forms", _node_product("d", (1, 0)), "rho=(0, 1)"),
    ("asym.du-expansion", _cached_E((1, 0)), "eta+=(0, 0) N=2"),
    ("society.identities", _node_product("dp", (0, 1)), "eta+=(0, 0) N=2"),
    ("norm.reconciliation", _node_product("d", (1, 0)), "eta+=(0, 0) N=2"),
    ("omega.decomposition", _cached_E((1, 0)), "N=2 D=1"),
    ("omega.pairing-diagonal", _cached_E((1, 0)), "eta=(1, 0) N=2"),
    ("pi.decomposition", _cached_P((1, 0)), "N=2 D=1"),
    ("pi.v-stability", _cached_plus("P", (1, 0), (1, 0)), "kappa=(1, 0) N=2"),
    ("binomial.nonsymmetric", _cached_E((1, 0)), "N=2 r=1"),
    ("binomial.symmetric", _cached_P((1, 0)), "N=2 r=1"),
    ("cauchy.double-alternant", _contingency_plus_one(((0, 0), (0, 0))), "N=2 D=1"),
    ("E.norm-orthogonality.ct", _cached_E((1, 0)), "<E_(0, 1), E_(1, 0)> at k=1"),
    ("P.norm-orthogonality.ct", _cached_P((1, 0)), "P_(1, 0) k=1"),
    ("oracle.E-linear-solve", _cached_E((1, 0)), "eta=(1, 0) alpha0=2"),
    ("oracle.P-gram-schmidt", _cached_P((1, 0)), "kappa=(1, 0) N=2 k=1"),
    ("S.norm.ct", _cached_S((1, 0)), "eta+=(0, 0): <S,S> vs <P,P>"),
]


PERTURBED = [pytest.param(*row, id=row[0]) for row in ROWS] + [
    # the cached S itself, which both asym rows read beside E
    pytest.param("asym.proportionality", _cached_S((1, 0)), "rho=(0, 1)",
                 id="asym.proportionality-S"),
    pytest.param("asym.du-expansion", _cached_S((1, 0)), "eta+=(0, 0) N=2",
                 id="asym.du-expansion-S"),
    # P_(0, 0) doubled leaves S, which reads no P, as it was
    pytest.param("S.norm.ct", _cached_P((0, 0)), "eta+=(0, 0): <S,S> vs <P,P>",
                 id="S.norm.ct-P"),
    # a monomial containing z_N, which setting only z_N to zero cannot see
    pytest.param("P.stability", _cached_plus("P", (1, 0, 0), (0, 0, 1)),
                 "kappa=(1, 0) N=3", id="P.stability-z_N"),
    # a term of E_(0, 1) above its label, outside its triangular support
    pytest.param("omega.pairing-diagonal", _cached_plus("E", (0, 1), (1, 0), ALPHA),
                 "eta=(1, 0) N=2", id="omega.pairing-diagonal-above-label"),
    # J at (1, 0), which build_P_(1, 0) does not read, since it walks the
    # chain at (0, 1): only the rearrangement sum of the second route sees it
    pytest.param("P.two-routes", _cached_J((1, 0)), "kappa=(1, 0) N=2",
                 id="P.two-routes-J-off-the-chain"),
    # a monomial of P at a non-partition exponent, which is no label
    pytest.param("pi.v-stability", _cached_plus("P", (1, 0), (0, 1), ALPHA),
                 "kappa=(1, 0) N=2", id="pi.v-stability-non-partition"),
    # alpha^(|eta| + 3), above the alpha-degree of d E: the l1 bound of the
    # point takes K from the perturbed input, so both rows see it
    pytest.param("E.eigen-triangular", _cached_plus("E", (1, 0), (0, 1), ALPHA ** 4),
                 "eta=(1, 0)", id="E.eigen-triangular-high-power"),
    pytest.param("omega.pairing-diagonal", _cached_plus("E", (1, 0), (0, 1), ALPHA ** 4),
                 "eta=(1, 0) N=2", id="omega.pairing-diagonal-high-power"),
]


# the four rows that moved to the point last: alpha^12 on one coefficient of
# the cached E_(1, 0), far above its alpha-degree
HIGH_POWER = [("E.value-at-ones", "eta=(1, 0)"), ("E.swap-action", "eta=(1, 0) i=1"),
              ("sym.proportionality", "eta=(1, 0)"), ("asym.du-expansion", "eta+=(0, 0) N=2")]
PERTURBED += [pytest.param(name, _cached_plus("E", (1, 0), (0, 1), ALPHA ** 12), label,
                           id=f"{name}-high-power") for name, label in HIGH_POWER]


@pytest.mark.parametrize("name, perturb, label", PERTURBED)
def test_perturbed_row_names_label_and_both_values(fresh_caches, monkeypatch,
                                                   name, perturb, label):
    perturb(monkeypatch)
    result = verify.CHECKS[name](BOUNDS)
    assert result.status == "fail", result.witness
    witness = result.witness
    assert witness.startswith(label + ":"), witness
    values = witness.rsplit(": ", 1)[1].split(" != ")
    assert len(values) == 2 and values[0] != values[1], witness


# the controls perturb their inputs themselves
NOT_PERTURBED = {"negative.controls"}


def test_every_row_is_perturbed_or_exempt():
    perturbed = {name for name, _, _ in ROWS}
    assert not perturbed & NOT_PERTURBED
    assert set(verify.CHECKS) == perturbed | NOT_PERTURBED


def test_benchmark_rows_are_registered():
    """jackbench marks a verify run incorrect when a row it times is missing:
    every name of its VERIFY_CHECKS, read from the file without importing
    it, is a registered row."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "VERIFY_CHECKS" for t in node.targets))
    assert names and set(names) <= set(verify.CHECKS), set(names) - set(verify.CHECKS)


def test_rows_pass_unperturbed(fresh_caches):
    for name, _, _ in ROWS:
        assert verify.CHECKS[name](BOUNDS).status == "pass", name


def test_collision_fails_the_linear_solve_row(monkeypatch):
    """At alpha0 = 0, (2, 0) shares its eigenvalues with (1, 1): the row
    fails there, naming both and alpha0, instead of solving at another
    alpha."""
    monkeypatch.setattr(verify, "SOLVE_ALPHAS", (Fraction(0),))
    result = verify.CHECKS["oracle.E-linear-solve"](verify.Bounds(n_max=2, deg=2))
    assert result.status == "fail", result.witness
    assert "(1, 1) and (2, 0) collide at alpha = 0" in result.witness, result.witness


# the rows that compare two Factored closed forms by content and forms: one
# form's multiplicity + 1, and the content doubled, in one node product; each
# witness is the text the rows printed when they compared values in Q(alpha)
FACTORED = [
    ("P.value-and-hook", "h", (2, 0),
     "kappa=(2, 0): h/stab vs d(kappaR)/prod: α^2 + 2*α + 1 != α + 1",
     "kappa=(2, 0): h/stab vs d(kappaR)/prod: 2*α + 2 != α + 1"),
    ("asym.c-closed-forms", "d", (1, 0),
     "rho=(0, 1): (-1)/(α + 1) != -1", "rho=(0, 1): (-1)/(2) != -1"),
    ("society.identities", "dp", (0, 1),
     "eta+=(0, 0) N=2: d(rho+)/d'(rhoR) vs h/d'(eta+): (1)/(α + 1) != 1",
     "eta+=(0, 0) N=2: d(rho+)/d'(rhoR) vs h/d'(eta+): (1)/(2) != 1"),
    ("norm.reconciliation", "d", (1, 0),
     "eta+=(0, 0) N=2: shifted P form vs S form: (2*α + 4)/(α + 1) != "
     "(2*α + 4)/(α^2 + 2*α + 1)",
     "eta+=(0, 0) N=2: shifted P form vs S form: (2*α + 4)/(α + 1) != (α + 2)/(α + 1)"),
]


@pytest.mark.parametrize("name, kind, label, form_witness, content_witness", FACTORED,
                         ids=[row[0] for row in FACTORED])
def test_factored_rows_print_the_field_witness(fresh_caches, monkeypatch, name, kind, label,
                                               form_witness, content_witness):
    """A closed-form row fails when one form of a node product, alpha + 1
    at the label, gains a multiplicity, and when its content doubles, and
    prints both values as elements of Q(alpha)."""
    for perturb, witness in ((_node_form(kind, label, (1, 1)), form_witness),
                             (_node_product(kind, label), content_witness)):
        with monkeypatch.context() as mp:
            perturb(mp)
            result = verify.CHECKS[name](BOUNDS)
        assert (result.status, result.witness) == ("fail", witness)
        jackpoly.clear_caches()


# the rows that decide one cross-multiplied equation at the point, each
# with one closed-form factor doubled at one diagram: both sides print as
# their Z[alpha] values
CLEARED = [
    ("E.value-at-ones", "e", (1, 0), "eta=(1, 0): d E(1^N) vs e: α + 2 != 2*α + 4"),
    ("sym.proportionality", "b", (1, 0),
     "eta=(1, 0): Sym d E vs c' h P: at (0, 1): 4*α + 8 != 2*α + 4"),
    ("asym.proportionality", "dp", (1, 0),
     "rho=(1, 0): Asym d E vs c' d S: at (0, 1): -α^3 - 2*α^2 - α != -2*α^3 - 4*α^2 - 2*α"),
    # h scales both sides of the first equation alike, so the second sees it
    ("P.two-routes", "h", (1, 0), "kappa=(1, 0) N=2: hP(1^N) vs h b/h: 4 != 2"),
    ("P.two-routes", "dp", (1, 0), "kappa=(1, 0) N=2: h L P vs h d' sum L J/(d d'): at (0, 1): "
     "2*α^3 + 6*α^2 + 4*α != 4*α^3 + 10*α^2 + 4*α"),
]


@pytest.mark.parametrize("name, kind, label, witness", CLEARED,
                         ids=[f"{row[0]}-{row[1]}" for row in CLEARED])
def test_cleared_rows_print_both_sides(fresh_caches, monkeypatch, name, kind, label, witness):
    _node_product(kind, label)(monkeypatch)
    result = verify.CHECKS[name](BOUNDS)
    assert (result.status, result.witness) == ("fail", witness)


@pytest.mark.parametrize("name, witness", [
    ("xi.commutation", f"N=2 g={XI_G}: xi_1 xi_2 vs xi_2 xi_1: at (0, 0): α != 0"),
    ("divided-difference.multiply-back", f"N=2 (1,2) f={DD_F}: at (0, 1): -1 != 0"),
], ids=["xi.commutation", "divided-difference.multiply-back"])
def test_operator_rows_print_both_sides(monkeypatch, name, witness):
    """The operator rows run on int coefficients: xi at alpha = 2^K, whose
    sides print as balanced digits, the alpha added by every xi included,
    and the multiply-back identity with no alpha at all, where one more
    term 1 in DD_12 f leaves z_1 - z_2 on the left."""
    next(perturb for row, perturb, _ in ROWS if row == name)(monkeypatch)
    assert verify.CHECKS[name](BOUNDS).witness == witness


def test_binomial_content_outside_Z_is_refused(fresh_caches, monkeypatch):
    """M times the product's closed form at x^e is a Factored; a content
    that is not an integer is refused, with the value it would expand to."""
    term = verify._binomial_term
    monkeypatch.setattr(verify, "_binomial_term", lambda r, e: Fraction(term(r, e), 7))
    assert verify.CHECKS["binomial.nonsymmetric"](BOUNDS).witness == (
        "N=2 r=1: prod (1-x_j)^-r vs sum over E: at (0, 0): "
        "(α^3 + 3*α^2 + 2*α)/(7) not in Z[α]")


def test_integral_witness_names_each_failure(fresh_caches):
    d_e = jack.build_E((1, 0)).scale(scalars.const_d((1, 0)))  # (alpha + 1) z1 + z2
    assert verify._integral_witness((1, 0), d_e) is None
    assert (verify._integral_witness((1, 0), d_e.scale(ALPHA))
            == "eta=(1, 0): d E at (1, 0): α^2 above |eta|: 1 != 0")
    assert (verify._integral_witness((1, 0), -d_e)
            == "eta=(1, 0): d E at (0, 1): α^0 below 0: -1 != 1")


@pytest.mark.parametrize("name, label", [
    ("E.eigen-triangular", "eta=(1, 0): xi_1 dE vs eigenvalue * dE"),
    ("omega.decomposition", "N=2 D=1: M K_d and cleared E"),
    ("omega.pairing-diagonal", "N=2 D=1: M K_d and cleared E"),
    ("binomial.nonsymmetric", "N=2 r=1: prod (1-x_j)^-r vs sum over E"),
    ("asym.proportionality", "rho=(1, 0): Asym d E vs c' d S"),
])
def test_input_outside_Z_alpha_is_refused(fresh_caches, monkeypatch, name, label):
    """A denominator that d does not clear leaves d E outside Z[alpha]: a
    row that compares at one point refuses it, with a witness that prints
    the value, denominator included, rather than read its numerator."""
    _cached_plus("E", (1, 0), (1, 0), AlphaRational(1, (7, 1)))(monkeypatch)
    witness = verify.CHECKS[name](BOUNDS).witness
    assert witness == f"{label}: at (1, 0): (α^2 + 9*α + 8)/(α + 7) not in Z[α]", witness


@pytest.mark.parametrize("name, label", [
    ("asym.proportionality", "rho=(0, 1): Asym d E vs c' d S"),
    ("asym.du-expansion", "eta+=(0, 0) N=2: d S vs sum over d E"),
])
def test_zero_S_fails_the_asym_rows_with_a_witness(fresh_caches, monkeypatch, name, label):
    """A zero S_(1, 0) fails both asym rows at the case that reads it, with
    both values, not with an exception that names no case."""
    monkeypatch.setitem(jack._S_CACHE, (1, 0), MultiPoly.zero(2))
    result = verify.CHECKS[name](BOUNDS)
    assert result.status == "fail" and result.witness.startswith(label + ": at (0, 1): "), \
        result.witness


def test_kronecker_control_vanishes_at_the_unperturbed_point(monkeypatch):
    """The kronecker control adds alpha - 2^K0 to d E, K0 the point of the
    unperturbed d E: it is caught, and would not be were K taken before the
    perturbation."""
    g = verify._integral("E", (2, 1), jack.build_E((2, 1)))
    bound = verify._xi_bound(g, (2, 1))
    k0, e = verify._point("", bound)[0], min(g.terms)
    bad = MultiPoly(2, {**g.terms, e: g.terms[e] + AlphaRational((-(1 << k0), 1))})
    assert verify._eigen_witness(g, (2, 1)) is None
    assert verify._eigen_witness(bad, (2, 1)) is not None
    monkeypatch.setattr(verify, "_xi_bound", lambda g, eta: bound)
    assert verify._eigen_witness(bad, (2, 1)) is None


@pytest.mark.parametrize("name, want", [
    ("E.value-at-ones", "eta=(1, 0): d E(1^N) vs e: α^13 + α^12 + α + 2 != α + 2"),
    ("E.swap-action",
     "eta=(1, 0) i=1: s_i E: at (0, 1): α^4 + 5*α^3 + 9*α^2 + 7*α + 2"
     " != α^15 + 4*α^14 + 5*α^13 + 2*α^12 + α^4 + 5*α^3 + 9*α^2 + 7*α + 2"),
    ("sym.proportionality",
     "eta=(1, 0): Sym d E vs c' h P: at (0, 1): 2*α^13 + 2*α^12 + 2*α + 4 != 2*α + 4"),
    ("asym.du-expansion",
     "eta+=(0, 0) N=2: d S vs sum over d E: at (0, 1): -α - 1 != α^13 + α^12 - α - 1"),
], ids=[name for name, _ in HIGH_POWER])
def test_high_power_mutant_is_decoded(fresh_caches, monkeypatch, name, want):
    """K comes from the l1 bound of the perturbed input, so the witness reads
    both sides back exactly, alpha^12 term included, as their Z[alpha]
    values: d E_(1, 0) = (alpha + 1) z1 + z2 gains (alpha + 1) alpha^12 at
    (0, 1).  A K below the bound would garble the balanced digits."""
    _cached_plus("E", (1, 0), (0, 1), ALPHA ** 12)(monkeypatch)
    assert verify.CHECKS[name](BOUNDS).witness == want


def test_cauchy_count_beside_a_transposed_margin(monkeypatch):
    """At N = 3, lambda = (2, 0, 0) and mu = (1, 1, 0), mu's alternant holds
    the margins (1, 1, 0), from the identity, and (2, 0, 0), which only the
    transposition of the first two variables reaches, with sign -1: the
    unperturbed pair gives K[(2,0,0), (1,1,0)] - K[(2,0,0), (2,0,0)] = 0.
    One count added at the first (sorted margins (0, 0, 2), (0, 1, 1))
    leaves 1 at this pair; a collapse that lost the transposed margin would
    give it 2, and one that lost its sign 3."""
    _contingency_plus_one(((0, 0, 2), (0, 1, 1)))(monkeypatch)
    result = verify.CHECKS["cauchy.double-alternant"](verify.Bounds(n_max=3, deg=2))
    assert result.status == "fail"
    assert result.witness == "N=3 D=2: lambda=(2, 0, 0) mu=(1, 1, 0): 1 != 0", result.witness
