"""Shared constructions for the test suite."""

import tracemalloc

import numpy as np

from rankatlas.bilinear import as_tensor, hypercomplex_mult
from rankatlas.pencil import Tensor3


def tensor_from_fl2(F, n, m):
    return Tensor3(np.stack([F[k * n:(k + 1) * n, :] for k in range(m)]))


def quaternion_high_rank_tensor():
    """A 4 x 12 x 4 tensor whose pencil has full column rank on the whole
    sphere, hence rank 13; built from the quaternion multiplication tensor."""
    Y = as_tensor(hypercomplex_mult(4))
    fl1 = np.hstack(Y.slices)
    A = -np.linalg.solve(fl1[:, 12:], fl1[:, :12])
    F = np.vstack([np.eye(12), A])
    return tensor_from_fl2(F, 4, 4)


def csv_without_wall_ms(report) -> str:
    """An experiment report's CSV without its last column, ``wall_ms``:
    the rows of two runs compare equal only without their timings."""
    lines = report.to_csv().splitlines()
    assert lines[0].endswith(",wall_ms")
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)


def peak_alloc_mb(fn) -> float:
    """Peak memory traced by tracemalloc while ``fn()`` runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
