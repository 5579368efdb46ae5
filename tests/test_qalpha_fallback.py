"""The gcd's PRS fallback and a negative control for the GCDHEU certifier."""

from jackpoly import combinat, jack, qalpha
from test_jack import _QALPHA_E, qalpha_chain_E


def _canonical_forms(n_max=3, deg=4):
    """Every coefficient, as (num, den) tuples, of the forms that still
    reduce through qalpha._gcd, for all labels with N <= n_max and degree
    <= deg, built from empty caches: E by the Q(alpha) reference chain, P
    by symmetrizing E, and S, whose coefficients are Q(alpha) sums of P's,
    substituted."""
    jack.clear_caches()
    _QALPHA_E.clear()
    out = {}
    for n in range(1, n_max + 1):
        for eta in combinat.compositions_upto(deg, n):
            out["E", eta] = {e: (c.num, c.den) for e, c in qalpha_chain_E(eta).terms.items()}
        delta = combinat.staircase(n)
        for kappa in combinat.partitions_upto(deg, n):
            out["P", kappa] = {e: (c.num, c.den)
                               for e, c in jack.build_P_sym_route(kappa, n).terms.items()}
            rho_plus = tuple(map(sum, zip(kappa, delta)))
            out["S", rho_plus] = {e: (c.num, c.den)
                                  for e, c in jack.build_S(rho_plus).terms.items()}
    jack.clear_caches()
    _QALPHA_E.clear()
    return out


def test_prs_fallback_gives_the_same_canonical_forms(monkeypatch):
    expected = _canonical_forms()
    fallbacks = []
    prs = qalpha._prs_gcd

    def counted(a, b):
        fallbacks.append(1)
        return prs(a, b)

    monkeypatch.setattr(qalpha, "_heu_candidate", lambda a, b, xi: None)
    monkeypatch.setattr(qalpha, "_prs_gcd", counted)
    assert _canonical_forms() == expected
    assert fallbacks  # the fallback really ran


def test_certifier_rejects_a_wrong_candidate():
    # alpha + 1 and alpha + 7 are coprime, but at xi = 5 their values 6 and
    # 12 share 6, which reads back in base 5 as alpha + 1: it does not
    # divide alpha + 7, so the candidate must be rejected.
    a, b = (1, 1), (7, 1)
    assert qalpha._heu_candidate(a, b, 5) is None
    assert qalpha._heu_candidate(a, b, 31) == ((1,), a, b)
    # A common factor of degree 2 hidden behind a spurious integer factor.
    h = (3, -1, 1)
    a, b = qalpha.poly_mul(h, (1, 1)), qalpha.poly_mul(h, (7, 1))
    assert qalpha._heu_candidate(a, b, 5) is None
    assert qalpha._gcd(a, b) == (h, (1, 1), (7, 1))
