import itertools

import pytest

from jackpoly import combinat as cb
from jackpoly.qalpha import ALPHA


def test_sort_to_partition():
    assert cb.sort_to_partition((0, 2, 1)) == (2, 1, 0)
    assert cb.sort_to_partition((0, 0)) == (0, 0)
    assert cb.sort_to_partition((1, 0, 3, 1)) == (3, 1, 1, 0)


def test_reverse_partition():
    assert cb.reverse_partition((2, 1, 0)) == (0, 1, 2)
    assert cb.reverse_partition((1, 1)) == (1, 1)
    # the 9-part example shape
    assert cb.reverse_partition((8, 7, 7, 2, 4, 3, 3, 1, 0)) == (0, 1, 2, 3, 3, 4, 7, 7, 8)


def test_dominance():
    assert cb.dominance_leq((1, 1, 1), (3, 0, 0))
    assert cb.dominance_leq((2, 2, 0), (3, 1, 0))
    assert not cb.dominance_leq((3, 1), (2, 2))
    with pytest.raises(ValueError):
        cb.dominance_leq((1, 0), (2, 0))


def test_composition_lt():
    assert cb.composition_lt((0, 1), (1, 0))
    assert not cb.composition_lt((1, 0), (1, 0))
    assert cb.composition_lt((1, 1, 0), (2, 0, 0))
    with pytest.raises(ValueError):
        cb.composition_lt((1, 0), (1, 1))


def test_composition_lt_is_strict_partial_order():
    # antisymmetry exhaustively through |eta| <= 5, N <= 4
    for n, d in [(2, 5), (3, 5), (4, 5), (4, 4)]:
        comps = list(cb.compositions(d, n))
        for a, b in itertools.combinations(comps, 2):
            assert not (cb.composition_lt(a, b) and cb.composition_lt(b, a))
    # transitivity over full triple products at the sizes that stay quick
    for n, d in [(2, 5), (3, 4), (4, 3)]:
        comps = list(cb.compositions(d, n))
        for a, b, c in itertools.permutations(comps, 3):
            if cb.composition_lt(a, b) and cb.composition_lt(b, c):
                assert cb.composition_lt(a, c)


def test_order_key_is_linear_extension():
    for n, d in [(2, 5), (3, 4)]:
        comps = sorted(cb.compositions(d, n), key=cb.composition_order_key)
        for i, a in enumerate(comps):
            for b in comps[:i]:
                assert not cb.composition_lt(a, b)


def test_node_stats():
    s = cb.node_stats((0, 1), 2, 1)
    assert (s.arm, s.arm_co, s.leg, s.leg_co) == (0, 0, 1, 0)
    s = cb.node_stats((1, 0), 1, 1)
    assert (s.arm, s.arm_co, s.leg, s.leg_co) == (0, 0, 0, 0)
    s = cb.node_stats((2, 0), 1, 1)
    assert (s.arm, s.arm_co, s.leg, s.leg_co) == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        cb.node_stats((1, 0), 2, 1)


def _conjugate(kappa) -> tuple:
    """Conjugate partition (column lengths)."""
    out = [0] * max(kappa, default=0)
    for part in kappa:
        for j in range(part):
            out[j] += 1
    return tuple(out)


def test_partition_stats_reduce_to_classical():
    # on a partition the leg equals the conjugate-column excess and the leg
    # colength is the row index minus one
    for kappa in cb.partitions_upto(6, 4):
        conj = _conjugate(kappa)
        for s in cb.diagram_nodes(kappa):
            assert s.leg == conj[s.j - 1] - s.i
            assert s.leg_co == s.i - 1


def test_eigenvalue_vector():
    assert cb.eigenvalue_vector((0, 0, 0)) == [ALPHA * 0 - 0, ALPHA * 0 - 1, ALPHA * 0 - 2]
    assert cb.eigenvalue_vector((1, 0)) == [ALPHA, ALPHA * 0 - 1]
    assert cb.eigenvalue_vector((0, 1)) == [ALPHA * 0 - 1, ALPHA]


def test_phi_composition():
    assert cb.phi_composition((0, 0)) == (0, 1)
    assert cb.phi_composition((0, 1)) == (1, 1)
    assert cb.phi_composition((1, 1)) == (1, 2)
    eta = (2, 0, 1)
    assert sum(cb.phi_composition(eta)) == sum(eta) + 1


def test_stabilizer_order():
    assert cb.stabilizer_order((2, 1, 1, 0)) == 2
    assert cb.stabilizer_order((1, 0, 0)) == 2
    assert cb.stabilizer_order((0, 0)) == 2


def test_staircase():
    assert cb.staircase(2) == (1, 0)
    assert cb.staircase(1) == (0,)
    assert cb.staircase(4) == (3, 2, 1, 0)


def test_has_distinct_parts():
    assert cb.has_distinct_parts((1, 0))
    assert not cb.has_distinct_parts((1, 1))
    assert cb.has_distinct_parts((3, 0, 2))


def test_sort_invariant_under_swaps():
    eta = (2, 0, 3, 1)
    for i in range(1, len(eta)):
        assert cb.sort_to_partition(cb.swap_parts(eta, i)) == cb.sort_to_partition(eta)


def test_enumerations():
    assert len(list(cb.compositions(5, 3))) == 21
    assert set(cb.partitions(3, 2)) == {(3, 0), (2, 1)}
    assert list(cb.partitions(0, 2)) == [(0, 0)]
    assert cb.rearrangements((2, 0)) == [(0, 2), (2, 0)]


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_equals_the_permutation_set(n):
    """Every multiset of n parts from {0, 1, 2, 3}, most with repeated
    entries, given in two orders: the walk is the sorted set of its N!
    permutations, and each parity is that of its ascending pairs."""
    for parts in itertools.combinations_with_replacement(range(4), n):
        want = sorted(set(itertools.permutations(parts)))
        for given in (parts, parts[::-1]):
            walk = cb.signed_rearrangements(given)
            assert [e for e, _ in walk] == want, given
            assert all(odd == cb.ascending_pair_count(e) & 1 for e, odd in walk), given
            assert cb.rearrangements(given) == want


def test_ascending_pair_count():
    assert cb.ascending_pair_count((2, 1, 0)) == 0
    assert cb.ascending_pair_count((0, 1, 2)) == 3
    assert cb.ascending_pair_count((1, 0)) == 0
    assert cb.ascending_pair_count((0, 1)) == 1
