import pathlib
import sys

import pytest

# allow running pytest from a fresh checkout without an editable install
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from jackpoly import combinat, jack, oracle, polyalg, verify  # noqa: E402

# every memo of the package, as (module, attribute)
CACHES = [(jack, "_E_CACHE"), (jack, "_J_CACHE"), (jack, "_P_CACHE"), (jack, "_S_CACHE"),
          (verify, "_INTEGRAL"), (combinat, "_NODES"), (combinat, "_WALKS"),
          (polyalg, "_KERNELS"), (oracle, "_IMAGE_CACHE"), (oracle, "_ANSATZ_CACHE"),
          (oracle, "_WEIGHT_CACHE"), (oracle, "_PACKED_WEIGHT")]


@pytest.fixture
def fresh_caches(monkeypatch):
    """Every memo of the package replaced by an empty dict for one test."""
    for module, name in CACHES:
        monkeypatch.setattr(module, name, {})


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images (0-based), by its
    inversions: the N! reference for the parity the package's rearrangement
    walk carries."""
    n = len(perm)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
    return -1 if inv & 1 else 1
