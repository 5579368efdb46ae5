"""A fixed reference computation, timed next to every pass.

The machine this benchmark was written on runs the same code up to twice
as slowly for minutes at a time, in step with load from outside the
container (CPU time tracks wall time, so it is not time-sharing).  A pass
timed in seconds therefore measures the machine as much as the program.
Each worker times this reference work right before and right after its
pass; dividing by that time and multiplying by REFERENCE_S turns the pass
time into seconds on a machine on which the reference work takes
REFERENCE_S, which is about this machine when it is not slowed.

The work is of the kind jackpoly does (products of integer-coefficient
polynomials stored as tuples, dict updates keyed by tuples, Fraction
sums), written here so that it moves with the machine and never with a
change to jackpoly.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.05


def reference_work(rounds=3000):
    acc = {}
    a = (3, -1, 4, 1, -5, 9, 2, -6, 5, 3)
    for i in range(rounds):
        b = tuple((c * (i % 13 + 1) + 7) % 1000003 - 500000 for c in a)
        prod = [0] * (len(a) + len(b) - 1)
        for x, ca in enumerate(a):
            for y, cb in enumerate(b):
                prod[x + y] += ca * cb
        key = (i % 37, i % 11, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(prod[4], (i % 97) + 1)
        a = tuple(p % 100003 for p in prod[:10])
    return acc


def time_reference():
    """Seconds taken by one run of the reference work."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
