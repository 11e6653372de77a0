"""Explicit nonsingular bilinear maps and their tensor form.

A map f: R^a x R^b -> R^c is carried by a coefficient array indexed
(k, i, j) with f(x, y)_k = sum coeffs[k, i, j] x_i y_j.  Under the slice
correspondence (slice j of the c x a x b tensor acts as x |-> A_j x) the
nonsingular maps are exactly the tensors whose slice pencil keeps full
column rank on the whole sphere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .pencil import MarginBudget, Tensor3, afcr_margin_info

__all__ = [
    "BilinearMap",
    "OptBudget",
    "hypercomplex_mult",
    "convolve",
    "restrict",
    "as_tensor",
    "from_tensor",
    "nonsingularity_margin",
]


@dataclass(frozen=True, eq=False)
class BilinearMap:
    coeffs: np.ndarray  # shape (c, a, b)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.coeffs, dtype=float))
        if arr.ndim != 3:
            raise ValueError("coeffs must be a c x a x b array")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def a(self) -> int:
        return self.coeffs.shape[1]

    @property
    def b(self) -> int:
        return self.coeffs.shape[2]

    @property
    def c(self) -> int:
        return self.coeffs.shape[0]

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.a,) or y.shape != (self.b,):
            raise ValueError(
                f"expected inputs of shapes ({self.a},), ({self.b},), "
                f"got {x.shape}, {y.shape}")
        return np.einsum("kij,i,j->k", self.coeffs, x, y)

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinearMap) and bool(
            np.array_equal(self.coeffs, other.coeffs))

    def to_json(self) -> str:
        return json.dumps({
            "a": self.a, "b": self.b, "c": self.c,
            "coeffs": self.coeffs.ravel().tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "BilinearMap":
        payload = json.loads(text)
        for key in ("a", "b", "c", "coeffs"):
            if key not in payload:
                raise ValueError(f"bilinear map: missing field '{key}'")
        a, b, c = int(payload["a"]), int(payload["b"]), int(payload["c"])
        # same layout and checks as a c x a x b tensor: numbers, finite
        return cls(Tensor3.from_flat(a, b, c, payload["coeffs"]).data)


def _cd_conj(z: np.ndarray) -> np.ndarray:
    out = -z
    out[..., 0] = z[..., 0]
    return out


def _cd_mult(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Cayley-Dickson doubling on the last axis, broadcast over the others:
    # (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c))
    n = x.shape[-1]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    return np.concatenate([
        _cd_mult(a, c) - _cd_mult(_cd_conj(d), b),
        _cd_mult(d, a) + _cd_mult(b, _cd_conj(c)),
    ], axis=-1)


def hypercomplex_mult(d: int) -> BilinearMap:
    """Multiplication of R, C, the quaternions or the octonions on R^d.

    Satisfies |f(x, y)| = |x| |y|, hence is nonsingular.
    """
    if d not in (1, 2, 4, 8):
        raise ValueError(f"d must be one of 1, 2, 4, 8; got {d}")
    eye = np.eye(d)
    products = _cd_mult(eye[:, None, :], eye[None, :, :])  # [i, j, k]
    return BilinearMap(np.moveaxis(products, -1, 0))


def convolve(g: BilinearMap, m: int, n: int) -> BilinearMap:
    """Convolution composite: block k of the output is the sum of
    g(a_i, b_j) over i + j = k.

    Maps R^(m u) x R^(n v) -> R^((m+n-1) w) for g of type (u, v, w), and is
    nonsingular whenever g is.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    u, v, w = g.a, g.b, g.c
    coeffs = np.zeros(((m + n - 1) * w, m * u, n * v))
    for i in range(m):
        for j in range(n):
            k = i + j
            coeffs[k * w:(k + 1) * w, i * u:(i + 1) * u, j * v:(j + 1) * v] \
                += g.coeffs
    return BilinearMap(coeffs)


def restrict(f: BilinearMap, a_dim: int, b_dim: int) -> BilinearMap:
    """Restriction to the leading input coordinates; output dimension kept.
    Preserves nonsingularity."""
    if not (1 <= a_dim <= f.a and 1 <= b_dim <= f.b):
        raise ValueError(
            f"restriction dims ({a_dim}, {b_dim}) out of range "
            f"({f.a}, {f.b})")
    return BilinearMap(f.coeffs[:, :a_dim, :b_dim].copy())


def as_tensor(f: BilinearMap) -> Tensor3:
    """The c x a x b tensor whose slice j is the matrix x |-> f(x, e_j)."""
    return Tensor3(np.stack([f.coeffs[:, :, j] for j in range(f.b)]))


def from_tensor(T: Tensor3) -> BilinearMap:
    """Inverse of :func:`as_tensor` (exact round trip)."""
    return BilinearMap(np.stack(T.slices, axis=2))


OptBudget = MarginBudget  # the margin of a map is a pencil margin


def nonsingularity_margin(f: BilinearMap, budget: MarginBudget | None = None,
                          seed: int | np.random.Generator = 0) -> float:
    """Best-found minimum of |f(x, y)| over the product of unit spheres.

    For unit y, min over unit x of |f(x, y)| is sigma_a of the pencil of
    ``as_tensor(f)`` at y, so this is the pencil margin of that tensor
    (:func:`afcr_margin_info`); it is 0 when c < a, where every pencil has
    a kernel.  The minimum over unit x and y is found by alternating exact
    steps from ``budget.restarts`` starts (200 by default) in one batch: x
    is the last right singular vector of the pencil at y, then y the last
    right singular vector of the matrix y |-> f(x, y), until no start
    descends by a relative 1e-12 or ``budget.iters`` rounds have run.  A
    clearly positive value is strong evidence of
    nonsingularity; a tiny one is evidence of a zero (neither is a proof).
    """
    if f.c < f.a:
        return 0.0
    budget = budget or MarginBudget(restarts=200)
    return afcr_margin_info(as_tensor(f), budget, seed).value
