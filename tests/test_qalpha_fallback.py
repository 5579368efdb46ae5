"""The primitive pseudo-remainder sequence, the one gcd algorithm of
`qalpha._gcd`, gives the canonical forms of the gcd-free construction."""

from fractions import Fraction

from jackpoly import combinat, jack, qalpha
from jackpoly.polyalg import symmetrize
from jackpoly.qalpha import AlphaRational
from test_jack import _QALPHA_E, qalpha_chain_E


def test_prs_gives_the_canonical_forms(fresh_caches, monkeypatch):
    """E by the Q(alpha) reference chain, and P as E at the increasing
    rearrangement symmetrized over its stabilizer order, reduce their sums
    through the PRS; every coefficient, for all labels with N <= 3 and
    degree <= 4, is the same (num, den) pair as the one the construction
    forms in Z[alpha] by exact division alone."""
    calls = []
    prs = qalpha._prs_gcd

    def counted(a, b):
        calls.append(1)
        return prs(a, b)

    monkeypatch.setattr(qalpha, "_prs_gcd", counted)
    _QALPHA_E.clear()
    for n in range(1, 4):
        for eta in combinat.compositions_upto(4, n):
            assert qalpha_chain_E(eta) == jack.build_E(eta), eta
        for kappa in combinat.partitions_upto(4, n):
            sym = symmetrize(jack.build_E(combinat.reverse_partition(kappa)))
            stab = Fraction(1, combinat.stabilizer_order(kappa))
            assert sym.scale(AlphaRational.from_fraction(stab)) == jack.build_P(kappa, n), kappa
    _QALPHA_E.clear()
    assert calls  # the PRS really ran
