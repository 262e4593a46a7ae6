import sys

import numpy as np
import pytest

from ncpick.core import MatrixTuple


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def mt(*arrays) -> MatrixTuple:
    """Matrix tuple from array-likes."""
    return MatrixTuple(tuple(np.asarray(a, dtype=complex) for a in arrays))


def scalar_point(*values) -> MatrixTuple:
    """Level-1 tuple from complex scalars."""
    return MatrixTuple(tuple(np.array([[v]], dtype=complex) for v in values))


def jordan_cell(lam: complex, n: int) -> np.ndarray:
    J = np.diag(np.full(n, complex(lam)))
    J += np.diag(np.ones(n - 1), 1) if n > 1 else 0.0
    return J


def count_calls(monkeypatch, module, name):
    """Record calls to module.name from every ncpick module that bound it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ncpick") and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls
