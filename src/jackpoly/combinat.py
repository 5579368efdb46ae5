"""Compositions, partitions, diagrams and their arm/leg statistics.

A composition is a tuple of non-negative ints of fixed length N; trailing
zeros are significant (the leg statistics count zero rows).  A partition is
a weakly decreasing composition.  Diagram coordinates are 1-based, row i and
column j with 1 <= j <= eta_i, so zero parts contribute no nodes.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .qalpha import ALPHA


def as_composition(parts) -> tuple:
    eta = tuple(int(p) for p in parts)
    if not eta:
        raise ValueError("a composition needs at least one part")
    if any(p < 0 for p in eta):
        raise ValueError(f"negative part in composition {eta}")
    return eta


def as_partition(parts) -> tuple:
    kappa = as_composition(parts)
    if any(kappa[i] < kappa[i + 1] for i in range(len(kappa) - 1)):
        raise ValueError(f"{kappa} is not weakly decreasing")
    return kappa


def is_partition(eta) -> bool:
    return all(eta[i] >= eta[i + 1] for i in range(len(eta) - 1))


def sort_to_partition(eta) -> tuple:
    """The decreasing rearrangement eta+."""
    return tuple(sorted(eta, reverse=True))


def reverse_partition(eta) -> tuple:
    """The increasing rearrangement etaR."""
    return tuple(sorted(eta))


def swap_parts(eta, i: int) -> tuple:
    """Exchange parts i and i+1 (1-based)."""
    if not 1 <= i < len(eta):
        raise ValueError(f"adjacent swap index {i} out of range for length {len(eta)}")
    out = list(eta)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def phi_composition(eta) -> tuple:
    """The raising map (eta_2, ..., eta_N, eta_1 + 1)."""
    return eta[1:] + (eta[0] + 1,)


def staircase(n: int) -> tuple:
    if n < 1:
        raise ValueError("staircase needs N >= 1")
    return tuple(range(n - 1, -1, -1))


def has_distinct_parts(rho) -> bool:
    return len(set(rho)) == len(rho)


def stabilizer_order(kappa) -> int:
    """Order of the subgroup of S_N fixing the padded partition, i.e. the
    frequency factorial with the multiplicity of the part 0 included.  This
    is the constant produced by symmetrizing over all N! permutations."""
    return math.prod(map(math.factorial, collections.Counter(kappa).values()))


# ---------------------------------------------------------------------------
# orderings
# ---------------------------------------------------------------------------

def _partial_sums(eta):
    return tuple(itertools.accumulate(eta))


def dominance_leq(kappa, mu) -> bool:
    """All partial sums of kappa bounded by those of mu (same modulus)."""
    if sum(kappa) != sum(mu):
        raise ValueError(f"modulus mismatch: |{kappa}| != |{mu}|")
    s = t = 0
    for a, b in itertools.zip_longest(kappa, mu, fillvalue=0):
        s += a
        t += b
        if s > t:
            return False
    return True


def composition_lt(nu, eta) -> bool:
    """Strict order on equal-modulus compositions: compare the sorted parts
    in dominance, tie-broken by partial sums of the compositions themselves."""
    if sum(nu) != sum(eta):
        raise ValueError(f"modulus mismatch: |{nu}| != |{eta}|")
    nu, eta = tuple(nu), tuple(eta)
    if nu == eta:
        return False
    nup, etap = sort_to_partition(nu), sort_to_partition(eta)
    if nup == etap:
        return all(s <= t for s, t in zip(_partial_sums(nu), _partial_sums(eta)))
    return dominance_leq(nup, etap)


def composition_leq(nu, eta) -> bool:
    return tuple(nu) == tuple(eta) or composition_lt(nu, eta)


def dominance_key(kappa) -> tuple:
    """Sort key whose ascending order linearly extends dominance."""
    return _partial_sums(kappa)


def composition_order_key(nu) -> tuple:
    """Sort key whose ascending order linearly extends composition_lt."""
    return (_partial_sums(sort_to_partition(nu)), _partial_sums(nu))


def ascending_pair_count(rho) -> int:
    """Number of pairs i < j with rho_i < rho_j (0 when rho is a partition)."""
    n = len(rho)
    return sum(1 for i in range(n) for j in range(i + 1, n) if rho[i] < rho[j])


# ---------------------------------------------------------------------------
# diagram statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramNode:
    """Cell (i, j) of a composition diagram with its four statistics."""
    i: int
    j: int
    arm: int
    arm_co: int
    leg: int
    leg_co: int


def node_stats(eta, i: int, j: int) -> DiagramNode:
    """Arm, arm colength, leg and leg colength of node (i, j), 1-based."""
    n = len(eta)
    if not (1 <= i <= n and 1 <= j <= eta[i - 1]):
        raise ValueError(f"node ({i},{j}) outside the diagram of {eta}")
    ei = eta[i - 1]
    arm = ei - j
    arm_co = j - 1
    leg = 0
    leg_co = 0
    for k in range(1, n + 1):
        if k == i:
            continue
        ek = eta[k - 1]
        if k > i:
            if j <= ek <= ei:
                leg += 1
            if ek > ei:
                leg_co += 1
        else:
            if j <= ek + 1 <= ei:
                leg += 1
            if ek >= ei:
                leg_co += 1
    return DiagramNode(i, j, arm, arm_co, leg, leg_co)


_NODES: dict = {}
_WALKS: dict = {}  # signed_rearrangements, by sorted multiset


def diagram_nodes(eta) -> tuple:
    """All nodes of the diagram, row by row, walked once per label and kept:
    a node's statistics depend on the label alone, and a tuple of frozen
    nodes cannot change, so a kept walk is the walk made again."""
    eta = tuple(eta)
    if eta not in _NODES:
        _NODES[eta] = tuple(node_stats(eta, i, j) for i in range(1, len(eta) + 1)
                            for j in range(1, eta[i - 1] + 1))
    return _NODES[eta]


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def eigenvalue_offsets(eta):
    """(eta_j, #{k<j: eta_k >= eta_j} + #{k>j: eta_k > eta_j}) for each j."""
    return [(ej, sum(1 for ek in eta[:j] if ek >= ej)
             + sum(1 for ek in eta[j + 1:] if ek > ej))
            for j, ej in enumerate(eta)]


def eigenvalue_vector(eta) -> list:
    """The vector with entries alpha*eta_j - #{k<j: eta_k >= eta_j}
    - #{k>j: eta_k > eta_j}, as elements of Q(alpha)."""
    return [ALPHA * ej - c for ej, c in eigenvalue_offsets(eta)]


def eigenvalue_fractions(eta, alpha0):
    """The same vector specialized at a rational alpha0 (oracle side)."""
    a0 = Fraction(alpha0)
    return tuple(a0 * ej - c for ej, c in eigenvalue_offsets(eta))


def eigenvalue_ints(eta, p: int, q: int):
    """q times the vector specialized at alpha0 = p/q, q > 0: all ints."""
    return tuple(p * ej - q * c for ej, c in eigenvalue_offsets(eta))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def compositions(total: int, length: int):
    """All compositions of `total` into `length` non-negative parts."""
    if length == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, length - 1):
            yield (first,) + rest


def compositions_upto(max_total: int, length: int):
    for d in range(max_total + 1):
        yield from compositions(d, length)


def partitions(total: int, max_length: int):
    """All partitions of `total` with at most `max_length` parts, zero-padded
    to length max_length."""
    def rec(remaining, largest, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    for shape in rec(total, total if total else 0, max_length):
        yield shape + (0,) * (max_length - len(shape))


def partitions_upto(max_total: int, max_length: int):
    for d in range(max_total + 1):
        yield from partitions(d, max_length)


def signed_rearrangements(parts) -> tuple:
    """(e, ascending_pair_count(e) & 1) for each distinct rearrangement e of
    the tuple `parts`, ascending, by one walk over the multiset, not the N!
    permutations, kept per sorted multiset: each distinct part left, smallest
    first, goes to the next position and opens an ascending pair with each
    part left above it."""
    if (key := tuple(sorted(parts))) in _WALKS:
        return _WALKS[key]
    values, out = sorted(set(parts)), []
    left = [parts.count(v) for v in values]

    def place(prefix, odd, rest):
        above = rest
        for i, v in enumerate(values):
            above -= left[i]
            if left[i]:
                left[i] -= 1
                place(prefix + (v,), odd ^ above & 1, rest - 1)
                left[i] += 1
        if not rest:
            out.append((prefix, odd))

    place((), 0, len(parts))
    out = _WALKS[key] = tuple(out)
    return out


def rearrangements(kappa) -> list:
    """The distinct rearrangements of a composition, in ascending order."""
    return [e for e, _ in signed_rearrangements(kappa)]
