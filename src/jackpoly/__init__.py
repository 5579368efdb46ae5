"""Exact-arithmetic construction and verification of Jack polynomials.

The package builds the non-symmetric family E (labeled by compositions),
the symmetric family P (labeled by partitions), and the anti-symmetric
family S (Vandermonde times a parameter-shifted P) over the field of
rational functions Q(alpha), and verifies the evaluation, norm, expansion,
and hook-product identities relating them, exactly, against independent
brute-force oracles.
"""

from . import combinat, jack, oracle, polyalg, verify
from .combinat import (DiagramNode, composition_lt, diagram_nodes,
                       dominance_leq, eigenvalue_vector, has_distinct_parts,
                       node_stats, phi_composition, reverse_partition,
                       sort_to_partition, staircase)
from .jack import build_E, build_P, build_S
from .polyalg import (MultiPoly, antisymmetrize, binomial_series, cherednik_apply,
                      d2_apply, divided_difference, monomial_symmetric,
                      omega_truncated, pi_truncated, symmetrize, vandermonde)
from .qalpha import ALPHA, ONE, ZERO, AlphaRational, alpha_shift
from .scalars import (c_rho, c_rho_resolved, eval_E_at_ones, eval_P_at_ones,
                      norm_ratio_E, norm_ratio_P, u_eta, v_kappa)
from .verify import Bounds, VerifyReport, run_checks

# every memo of the package, by module: a value kept per key it depends on alone
_MEMOS = {combinat: ("_NODES", "_WALKS"), jack: ("_E_CACHE", "_J_CACHE", "_P_CACHE", "_S_CACHE"),
          oracle: ("_WEIGHT_CACHE", "_PACKED_WEIGHT", "_ANSATZ_CACHE", "_IMAGE_CACHE"),
          polyalg: ("_KERNELS",), verify: ("_INTEGRAL",)}


def clear_caches():
    """Empty every memo of the package, each read from its module at call time."""
    for module, names in _MEMOS.items():
        for name in names:
            getattr(module, name).clear()


__version__ = "0.1.0"
