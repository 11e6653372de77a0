"""Dense 3-way tensors, slice pencils and their rank-drop geometry.

A tensor ``Y`` of size u x n x m is viewed through the pencil
``M(a, Y) = sum_k a_k Y_k`` of its u x n slices.  The questions this module
answers numerically: does some nonzero real ``a`` drop the pencil's column
rank below n (and where), or is the column rank full on the whole sphere
(and by what margin)?
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "Tensor3",
    "ProblemDims",
    "MarginBudget",
    "RankDropPoint",
    "RootCount",
    "flatten",
    "contract_pencil",
    "minor",
    "pluecker_residual",
    "kernel_vector_psi",
    "afcr_margin",
    "afcr_margin_info",
    "is_afcr",
    "rank_drop_search",
    "corner_root_count",
    "corner_minors",
    "corner_minor_jacobian",
]


@dataclass(frozen=True, eq=False)
class Tensor3:
    """Dense real 3-way array, stored slice-major: slice k is the d1 x d2
    matrix ``T_k`` and the tensor is (T_1; ...; T_d3)."""

    data: np.ndarray  # shape (d3, d1, d2), read-only

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=float))
        if arr.ndim != 3:
            raise ValueError(f"Tensor3 needs a 3-way array, got ndim={arr.ndim}")
        if 0 in arr.shape:
            raise ValueError(f"Tensor3 dimensions must be positive: {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("Tensor3 entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def d1(self) -> int:
        return self.data.shape[1]

    @property
    def d2(self) -> int:
        return self.data.shape[2]

    @property
    def d3(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)

    @classmethod
    def from_slices(cls, slices) -> "Tensor3":
        return cls(np.stack([np.asarray(s, dtype=float) for s in slices]))

    @classmethod
    def from_flat(cls, d1: int, d2: int, d3: int, flat) -> "Tensor3":
        if min(d1, d2, d3) < 1:
            raise ValueError(f"dimensions must be positive, got {d1} {d2} {d3}")
        try:
            arr = np.asarray(flat, dtype=float)
        except TypeError as exc:
            raise ValueError(f"flat data must be numbers: {exc}") from None
        if arr.size != d1 * d2 * d3:
            raise ValueError(
                f"flat data has {arr.size} entries, expected {d1 * d2 * d3}")
        return cls(arr.reshape(d3, d1, d2))

    def slice(self, k: int) -> np.ndarray:
        """Slice T_k, 0-based."""
        return self.data[k]

    @property
    def slices(self) -> list[np.ndarray]:
        return [self.data[k] for k in range(self.d3)]

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def scaled(self, c: float) -> "Tensor3":
        return Tensor3(self.data * c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor3) and self.dims == other.dims and bool(
            np.array_equal(self.data, other.data))

    def to_json(self) -> str:
        return json.dumps({
            "dims": [self.d1, self.d2, self.d3],
            "layout": "slice-major",
            "data": self.data.ravel().tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "Tensor3":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("tensor must be a JSON object")
        for key in ("dims", "data"):
            if key not in payload:
                raise ValueError(f"tensor: missing field '{key}'")
        dims = payload["dims"]
        if not (isinstance(dims, list) and len(dims) == 3
                and all(type(d) is int for d in dims)):
            raise ValueError(f"dims must be a list of three ints: {dims!r}")
        d1, d2, d3 = dims
        if payload.get("layout", "slice-major") != "slice-major":
            raise ValueError(f"unsupported layout {payload.get('layout')!r}")
        return cls.from_flat(d1, d2, d3, payload["data"])

    def to_text(self) -> str:
        lines = [f"{self.d1} {self.d2} {self.d3}"]
        for k in range(self.d3):
            lines.append("")
            for row in self.data[k]:
                lines.append(" ".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Tensor3":
        tokens = text.split()
        if len(tokens) < 3:
            raise ValueError("text tensor needs a 'd1 d2 d3' header")
        d1, d2, d3 = int(tokens[0]), int(tokens[1]), int(tokens[2])
        values = [float(t) for t in tokens[3:]]
        return cls.from_flat(d1, d2, d3, values)


@dataclass(frozen=True)
class ProblemDims:
    """Integer frame for the rank-p problem on n x p x m tensors.

    Derived quantities: u = mn - p (pencil height), l = (m-1)n - p,
    v = l + 1 (codimension of the rank-drop locus).
    """

    m: int
    n: int
    p: int

    def __post_init__(self):
        if not 3 <= self.m <= self.n:
            raise ValueError(f"need 3 <= m <= n, got m={self.m}, n={self.n}")
        lo, hi = (self.m - 1) * (self.n - 1) + 1, (self.m - 1) * self.n
        if not lo <= self.p <= hi:
            raise ValueError(
                f"p={self.p} outside the certifiable window [{lo}, {hi}] "
                f"for m={self.m}, n={self.n}")

    @property
    def u(self) -> int:
        return self.m * self.n - self.p

    @property
    def l(self) -> int:
        return (self.m - 1) * self.n - self.p

    @property
    def v(self) -> int:
        return self.l + 1


def flatten(T: Tensor3, mode: int) -> np.ndarray:
    """Mode-1: slices side by side (d1 x d2*d3); mode-2: slices stacked
    vertically (d1*d3 x d2)."""
    if mode == 1:
        return np.hstack(T.slices)
    if mode == 2:
        return np.vstack(T.slices)
    raise ValueError(f"mode must be 1 or 2, got {mode}")


def contract_pencil(a, Y: Tensor3) -> np.ndarray:
    """M(a, Y) = sum_k a_k Y_k."""
    a = np.asarray(a, dtype=float)
    if a.shape != (Y.d3,):
        raise ValueError(f"coefficient vector has shape {a.shape}, "
                         f"expected ({Y.d3},)")
    return np.einsum("k,kij->ij", a, Y.data)


def _bareiss_det(M: list[list[Fraction]]) -> Fraction:
    # fraction-free Gaussian elimination; exact for rational entries
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
        prev = M[k][k]
    return sign * M[-1][-1]


def minor(M, rows, cols):
    """Determinant of the submatrix picked by 1-based row/column index lists.

    Indices may repeat (the determinant is then zero).  Integer and Fraction
    matrices are evaluated exactly; floats via LAPACK.
    """
    rows, cols = list(rows), list(cols)
    if len(rows) != len(cols):
        raise ValueError(
            f"ragged index lists: {len(rows)} rows vs {len(cols)} cols")
    arr = np.asarray(M)
    u, n = arr.shape
    for r in rows:
        if not 1 <= r <= u:
            raise IndexError(f"row index {r} out of range 1..{u}")
    for c in cols:
        if not 1 <= c <= n:
            raise IndexError(f"column index {c} out of range 1..{n}")
    sub = arr[np.ix_([r - 1 for r in rows], [c - 1 for c in cols])]
    if arr.dtype == object or np.issubdtype(arr.dtype, np.integer):
        entries = [[Fraction(x) for x in row] for row in sub.tolist()]
        if not entries:
            return Fraction(1)
        val = _bareiss_det(entries)
        return int(val) if val.denominator == 1 else val
    if sub.size == 0:
        return 1.0
    return float(np.linalg.det(sub.astype(float)))


def _shuffle_sign(chosen: tuple[int, ...], s: int) -> int:
    # sign of the permutation (chosen..., rest...) of 0..s-1, both halves sorted
    inversions = sum(c - i for i, c in enumerate(chosen))
    return -1 if inversions % 2 else 1


def pluecker_residual(M, a_rows, b_rows, c_rows):
    """Signed sum of products of maximal minors over all shuffles of the
    c-indices; identically zero for every matrix.

    ``a_rows`` (length k), ``b_rows`` (length n-l+1) and ``c_rows``
    (length s) are 1-based row indices subject to s = n-k+l-1 > n and
    t = n-k > 0.  Returns |sum|, exact on integer matrices.
    """
    arr = np.asarray(M)
    u, n = arr.shape
    if u < n:
        raise ValueError("matrix must have at least as many rows as columns")
    a_rows, b_rows, c_rows = list(a_rows), list(b_rows), list(c_rows)
    k = len(a_rows)
    t = n - k
    if t <= 0:
        raise ValueError(f"need t = n - k > 0, got k={k} for n={n}")
    l = n - len(b_rows) + 1
    s = n - k + l - 1
    if s <= n:
        raise ValueError(
            f"index constraint s = n-k+l-1 > n violated: s={s}, n={n}")
    if len(c_rows) != s:
        raise ValueError(f"need {s} c-indices, got {len(c_rows)}")
    cols = list(range(1, n + 1))
    total = None
    for chosen in itertools.combinations(range(s), t):
        rest = [i for i in range(s) if i not in chosen]
        sign = _shuffle_sign(chosen, s)
        first = minor(arr, a_rows + [c_rows[i] for i in chosen], cols)
        second = minor(arr, [c_rows[i] for i in rest] + b_rows, cols)
        term = sign * first * second
        total = term if total is None else total + term
    return abs(total)


def kernel_vector_psi(a, Y: Tensor3, rows) -> np.ndarray:
    """Signed-cofactor kernel candidate for the pencil at ``a``.

    ``rows`` are n-1 distinct 1-based row indices.  Entry j of the result is
    (-1)^(n+j) times the minor on those rows and all columns except j; the
    k-th entry of M(a,Y) @ psi equals the n-minor on rows (rows..., k).
    """
    M = contract_pencil(a, Y)
    u, n = M.shape
    rows = list(rows)
    if len(rows) != n - 1:
        raise ValueError(f"need {n - 1} row indices, got {len(rows)}")
    if len(set(rows)) != len(rows):
        raise ValueError("row indices must be distinct")
    psi = np.empty(n)
    for j in range(1, n + 1):
        cols = [c for c in range(1, n + 1) if c != j]
        psi[j - 1] = (-1) ** (n + j) * minor(M, rows, cols)
    return psi


# -- rank-drop search ---------------------------------------------------------


LINES = 40  # random lines (2-dim slices) per search of a square pencil
SLICES = 8  # random (k+1)-dim slices per search of a pencil with m > k + 1
MAX_KRON = 512  # largest n^k of the Kronecker eigenproblem a search solves
DEDUP_TOL = 1e-6  # distance below which two unit points are one
TOL_RANKDROP = 1e-8  # sigma_n / sigma_1 below which a is a rank-drop point
TOL_MARGIN = 1e-6  # normalised margin above which a pencil has full rank


def _require_ints(obj, names, least=None) -> None:
    """TypeError unless each named field of ``obj`` is an int, not a bool;
    ValueError if one is below ``least``."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            raise TypeError(f"{name} must be an int: {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{name} must be >= {least}: {value}")


@dataclass(frozen=True)
class MarginBudget:
    restarts: int = 60
    iters: int = 500  # alternating rounds

    def __post_init__(self):
        _require_ints(self, ("restarts",), least=1)
        _require_ints(self, ("iters",), least=0)


@dataclass(frozen=True)
class RankDropPoint:
    a: np.ndarray        # unit pencil coefficients
    b: np.ndarray        # unit kernel vector of M(a, Y)
    quality: float       # sigma_n / sigma_1 at a


@dataclass(frozen=True)
class MarginInfo:
    value: float
    restarts: int


@dataclass(frozen=True)
class RootCount:
    """The complex rank-drop points of a pencil, each certified in its own
    ball: ``roots`` holds them as unit vectors a (the real ones real, with
    canonical sign), ``real`` marks the real ones and ``radii`` are the
    ball radii in the coordinates (x, b) of the count."""

    degree: int
    roots: np.ndarray = field(repr=False)
    real: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)


def _binary_scaled(T: Tensor3) -> tuple[Tensor3, int]:
    """T divided by 2**e, the power of two nearest max |T|, and e.  The
    division is exact, and it keeps Frobenius norms of T and of residuals
    finite and nonzero at any scale."""
    e = int(np.frexp(np.max(np.abs(T.data)))[1])
    return Tensor3(np.ldexp(T.data, -e)), e


def _canonical_sign(a: np.ndarray) -> np.ndarray:
    """a, or each row of a, with its largest-magnitude entry positive."""
    i = np.argmax(np.abs(a), axis=-1)[..., None]
    return a * np.where(np.take_along_axis(a, i, -1) < 0, -1.0, 1.0)


def _pencils(a: np.ndarray, Y: Tensor3) -> np.ndarray:
    """Stacked M(a_r, Y) for the rows a_r of ``a``."""
    return np.einsum("rk,kij->rij", a, Y.data)


def _rotated_pencil(A: np.ndarray, B: np.ndarray):
    """B'^-1 A' for a stack of pencils (A, B) rotated to (A', B') =
    (cA + sB, cB - sA), c = cos t, s = sin t, and the angles t, each the
    one of {0, pi/4, pi/2, 3pi/4} whose B' is best conditioned (rated one
    rotated copy at a time).  An eigenvalue lam of B'^-1 A' is the
    eigenvalue (lam c - s, c + lam s) of (A, B), with the same vector."""
    t = np.pi / 4 * np.arange(4)
    c, s = np.cos(t), np.sin(t)
    ratio = []
    for i in range(4):
        sv = np.linalg.svd(c[i] * B - s[i] * A, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio.append(np.nan_to_num(sv[..., -1] / sv[..., 0]))
    best = np.argmax(ratio, axis=0)[..., None]
    c, s = c[best][..., None], s[best][..., None]
    return np.linalg.solve(c * B - s * A, c * A + s * B), np.pi / 4 * best


def _realified(A: np.ndarray) -> np.ndarray:
    """[[Re A, -Im A], [Im A, Re A]] for complex r x c matrices A, stacked:
    it maps (Re v, Im v) to (Re Av, Im Av), has the singular values of A
    twice and the eigenvalues of A and their conjugates.  Complex systems
    are solved on it, so that only the real LAPACK routines are loaded.
    """
    return np.block([[A.real, -A.imag], [A.imag, A.real]])


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron of two stacks of matrices, pair by pair."""
    (p, q), (r, s) = A.shape[-2:], B.shape[-2:]
    return (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(
        A.shape[:-2] + (p * r, q * s))


def _operator_det(V: np.ndarray) -> np.ndarray:
    """Operator determinant of the k x k block array V (..., k, k, n, n):
    the sum of sgn(s) V[0, s(0)] x ... x V[k-1, s(k-1)] over permutations
    s, with x the Kronecker product."""
    return sum((-1) ** sum(a > b for a, b in itertools.combinations(s, 2))
               * functools.reduce(_kron, (V[..., i, j, :, :]
                                          for i, j in enumerate(s)))
               for s in itertools.permutations(range(V.shape[-3])))


def _slice_candidates(Y: Tensor3, rng, slices: int):
    """Candidates x, n^k at most per slice, on ``slices`` random (k+1)-dim
    slices a = (1, x) R_s of a pencil with u = n + k - 1 rows (R_s: k + 1
    rows of a random orthogonal matrix; with m = k + 1, the whole pencil).
    k random n x u compressions of M(1, x) b = 0 give Delta1 z = x_1 Delta0 z
    (Kronecker operator determinants, Atkinson), solved slice by slice.
    Its eigenvector is b_1 x ... x b_k, b_i a kernel vector of compression
    i, and on the locus every b_i is the kernel vector b of M(1, x): so b
    is its first factor, and x_2 ... x_k solve M(1, x) b = 0 by least
    squares (at k = 1, one batched eigenvalue call takes no vectors).
    Returns R, Delta0 of slice 0, the finite x (spurious compression roots,
    whose factors differ, among them) and each one's slice.  Raises
    LinAlgError when an eigenvalue or least squares solve fails."""
    m, u, n = Y.d3, Y.d1, Y.d2
    k = u - n + 1
    R = np.linalg.qr(rng.standard_normal((slices, m, m)))[0][:, :k + 1]
    Z = np.einsum("skl,lij->skij", R, Y.data)
    P = rng.standard_normal((slices, k, n, u))
    V = P[:, :, None] @ Z[:, None]  # V[s, i, j]: compression i of Z_sj
    B = _operator_det(V[:, :, 1:])
    C, t = _rotated_pencil(
        _operator_det(np.concatenate([-V[:, :, :1], V[:, :, 2:]], 2)), B)
    if k == 1:
        lam = np.linalg.eigvals(C)
    else:  # Zb[s, r, l]: Z_sl b for the factor b of eigenvector r
        lam = np.empty(C.shape[:2], complex)
        Zb = np.empty(C.shape[:2] + (k + 1, u), complex)
        for s in range(slices):
            lam[s], z = np.linalg.eig(C[s])
            z = z.T.reshape(len(z), n, -1)
            b = z[np.arange(len(z)), :,
                  np.argmax(np.linalg.norm(z, axis=1), axis=1)]
            Zb[s] = np.einsum("lij,rj->rli", Z[s], b)
    al, be = lam * np.cos(t) - np.sin(t), np.cos(t) + lam * np.sin(t)
    finite = np.abs(be) >= 1e-10 * np.maximum(1.0, np.abs(al))
    rows, x = np.nonzero(finite)[0], al[finite] / be[finite]
    if k == 1:
        return R, B[0], x[:, None], rows
    # normal equations of A y = -(Z_0 + x_1 Z_1) b, A = [Z_2 b ... Z_k b]
    A, Zb = Zb[finite, 2:], Zb[finite]
    h = -np.einsum("rli,ri->rl", A.conj(), Zb[:, 0] + x[:, None] * Zb[:, 1])
    y = np.linalg.solve(_realified(np.einsum("rli,rmi->rlm", A.conj(), A)),
                        np.concatenate([h.real, h.imag], 1)[..., None])[..., 0]
    y = y[:, :k - 1] + 1j * y[:, k - 1:]
    return R, B[0], np.column_stack([x, y]), rows


def _kernel_system(Z: np.ndarray, z: np.ndarray, j: np.ndarray):
    """Residuals F and Jacobians J of the square systems M(1, x) b = 0,
    b_j = 1 in z = (x_1 ... x_k, b), stacked over the rows of ``z``, their
    charts Z (a (k+1)-slice pencil per row) and the entries of ``j``."""
    r, k = np.arange(len(z)), Z.shape[1] - 1
    x, b = z[:, :k], z[:, k:]
    M = Z[:, 0] + np.einsum("rl,rlij->rij", x, Z[:, 1:])
    F = np.concatenate([np.einsum("rij,rj->ri", M, b),
                        b[r, j, None] - 1.0], axis=1)
    J = np.zeros((len(z),) + (z.shape[1],) * 2, dtype=z.dtype)
    J[:, :-1, :k] = np.einsum("rlij,rj->ril", Z[:, 1:], b)
    J[:, :-1, k:] = M
    J[r, -1, k + j] = 1.0
    return F, J


def _newton(Z: np.ndarray, x: np.ndarray, b: np.ndarray):
    """z = (x, b / b_j), j the largest entry of b, after four Newton steps
    on ``_kernel_system`` in the charts Z (complex rows realified), which
    stop at a singular Jacobian; a row that leaves the finite range keeps
    its start.  Returns z and j."""
    j = np.argmax(np.abs(b), axis=1)
    z = start = np.column_stack([x, b / b[np.arange(len(b)), j, None]])
    d, realify = z.shape[1], np.iscomplexobj(z)
    try:
        for _ in range(4):
            F, J = _kernel_system(Z, z, j)
            if realify:
                F, J = np.concatenate([F.real, F.imag], 1), _realified(J)
            step = np.linalg.solve(J, F[..., None])[..., 0]
            z = z - (step[:, :d] + 1j * step[:, d:] if realify else step)
    except np.linalg.LinAlgError:
        pass
    return np.where(np.isfinite(z).all(axis=1, keepdims=True), z, start), j


def _near_kernels(Y: Tensor3, a: np.ndarray):
    """The mask of the rows of ``a``, real or complex (realified), with
    sigma_n / sigma_1 of M(a, Y) below 1e-6, close enough to start
    ``_newton``, and the last right singular vector b of each one kept."""
    M, n = _pencils(a, Y), Y.d2
    _, s, Vh = np.linalg.svd(_realified(M) if np.iscomplexobj(M) else M)
    near = s[:, -1] < 1e-6 * s[:, 0]
    b = Vh[near, -1]
    return near, b[:, :n] + 1j * b[:, n:] if np.iscomplexobj(M) else b


def _kantorovich_radii(Z: np.ndarray, z: np.ndarray, j: np.ndarray):
    """Newton-Kantorovich ball radius 2 eta around each row of ``z``, or
    inf where the test h = beta L eta <= 1/4 fails, in the one chart Z.

    beta = |J^-1| and eta = |J^-1 F| at the centre, eta also covering the
    rounding error of evaluating F.  F is bilinear in (x, b), so
    L = 2 sqrt(sum_(l >= 1) |Z_l|^2) bounds the Lipschitz constant of J.
    The theorem asks h <= 1/2 for a unique root, simple, within 2 eta; half
    of it is kept as slack for the rounding in beta and eta.
    """
    k = len(Z) - 1
    F, J = _kernel_system(np.broadcast_to(Z, (len(z),) + Z.shape), z, j)
    norms = np.linalg.norm(Z, ord=2, axis=(1, 2))
    lipschitz = 2.0 * np.sqrt(np.sum(norms[1:] ** 2))
    f_error = (4 * (z.shape[1] + 1) * np.finfo(float).eps
               * (norms[0] + np.abs(z[:, :k]) @ norms[1:])
               * np.linalg.norm(z[:, k:], axis=1))
    U, s, _ = np.linalg.svd(_realified(J))  # each singular value twice
    beta = 1.0 / s[:, -1]
    step = np.einsum("rji,rj->ri", U, np.concatenate([F.real, F.imag], 1))
    eta = np.linalg.norm(step / s, axis=1) + beta * f_error
    return np.where(beta * lipschitz * eta <= 0.25, 2.0 * eta, np.inf)


def corner_root_count(Y: Tensor3, seed: int | np.random.Generator = 0
                      ) -> RootCount | None:
    """Every complex rank-drop point of a 3-slice (n+1) x n pencil, each
    certified in its own ball, or None when the count cannot be certified.

    The n^2 complex candidates of ``_slice_candidates`` near the locus
    (``_near_kernels``) are polished by ``_newton`` in an affine chart
    (1, x_1, x_2) chosen to keep every one far from infinity, and certified
    by Newton-Kantorovich: a root is real when the ball centred on its real
    projection certifies, and non-real when its certified ball misses the
    real space.  The count is returned only when Delta0 is nonsingular,
    which makes the rank-drop locus finite, of degree C(u, n-1) = C(n+1, 2)
    counted with multiplicity, and when exactly that many pairwise
    disjoint balls certify, so that every point of the locus is found once
    and is simple.  Floating-point evidence, not interval arithmetic.
    """
    u, n, m = Y.d1, Y.d2, Y.d3
    if (m, u) != (3, n + 1):
        raise ValueError(f"root count needs a 3-slice (n+1) x n pencil, "
                         f"got {u}x{n}x{m}")
    k, degree = m - 1, math.comb(u, n - 1)
    rng = np.random.default_rng(seed)
    # the locus does not change with scale; an exact power of two keeps
    # the Kronecker products of the solve in range
    Y = _binary_scaled(Y)[0]
    try:
        with np.errstate(all="ignore"):
            (R,), D0, X, _ = _slice_candidates(Y, rng, 1)
            if not np.linalg.cond(D0) < 1e12:
                return None
            # complex rows times real matrices by einsum, and a stable sort
            # below: ``@`` and the default argsort would load 0.5 MB of
            # complex BLAS and SIMD sort code that nothing else runs
            a = np.einsum("rk,kl->rl",
                          np.column_stack([np.ones(len(X)), X]), R)
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            near, b = _near_kernels(Y, a)
            a = a[near]
            # the chart (1, x) in the basis R whose hyperplane at infinity
            # is, of 32 random ones, the farthest from every candidate: a
            # root near infinity has a large x, and its ball does not certify
            q = rng.standard_normal((32, m))
            q /= np.linalg.norm(q, axis=1, keepdims=True)
            best = q[np.argmax(np.min(np.abs(np.einsum("rk,qk->rq", a, q)),
                                      axis=0, initial=1.0))]
            R = np.linalg.qr(np.column_stack(
                [best, rng.standard_normal((m, k))]))[0].T
            Z = np.einsum("kl,lij->kij", R, Y.data)
            a = np.einsum("rk,lk->rl", a, R)
            z, j = _newton(np.broadcast_to(Z, (len(a),) + Z.shape),
                           a[:, 1:] / a[:, :1], b)
            centres = np.concatenate([z.real.astype(complex), z])
            radii = _kantorovich_radii(Z, centres, np.concatenate([j, j]))
    except np.linalg.LinAlgError:
        return None
    c = len(z)
    real = np.isfinite(radii[:c])
    nonreal = ~real & (np.linalg.norm(z.imag, axis=1) > radii[c:])
    centres = np.where(real[:, None], centres[:c], z)
    radii = np.where(real, radii[:c], np.where(nonreal, radii[c:], np.inf))
    # keep balls pairwise disjoint in x, smallest first: a ball that meets
    # a kept one holds a root already counted or one beyond the degree
    x, kept = centres[:, :k], []
    for i in np.argsort(radii, kind="stable")[:np.isfinite(radii).sum()]:
        if all(np.linalg.norm(x[i] - x[j]) > radii[i] + radii[j]
               for j in kept):
            kept.append(i)
    if len(kept) != degree:
        return None
    x, real, radii = x[kept], real[kept], radii[kept]
    a = np.einsum("rk,kl->rl", np.column_stack([np.ones(degree), x]), R)
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    a[real] = _canonical_sign(a[real].real)
    return RootCount(degree=degree, roots=a, real=real, radii=radii)


def _structured_roots(Y: Tensor3, rng):
    """Unit rank-drop candidates of Y, or None when no solver applies to
    its shape, from one call of ``_slice_candidates`` with the codimension
    k = u - n + 1 of the locus: on 1 slice, the whole pencil, when
    m = k + 1; on ``LINES`` random lines when k = 1 < m - 1; on ``SLICES``
    random (k+1)-dim slices otherwise; none for k > m - 1, an empty locus
    for generic Y, or n^k above ``MAX_KRON``.  Candidates with every
    coordinate real become unit a, at k >= 2 after those near the locus
    (``_near_kernels``) are polished by ``_newton`` in their slice.  None
    is tested here: ``_kernel_points`` keeps the rank-drop points among
    them, and ``afcr_margin_info`` starts from the best."""
    u, n, m = Y.d1, Y.d2, Y.d3
    k = u - n + 1
    if u < n:
        raise ValueError(f"pencil must be tall: u={u} < n={n}")
    if k > m - 1 or n ** k > MAX_KRON:
        return None
    slices = 1 if m == k + 1 else LINES if k == 1 else SLICES
    try:
        R, _, X, rows = _slice_candidates(Y, rng, slices)
        c = np.column_stack([np.ones(len(X)), X.real])
        real = np.all(np.abs(X.imag) <= 1e-7 * np.max(
            np.abs(c), axis=1, keepdims=True), axis=1)
        c, R = c[real], R[rows[real]]
        a = np.einsum("rc,rck->rk", c, R)
        if k > 1:
            near, b = _near_kernels(Y, a)
            c[near, 1:] = _newton(np.einsum("rkl,lij->rkij", R[near], Y.data),
                                  c[near, 1:], b)[0][:, :k]
            a = np.einsum("rc,rck->rk", c, R)
    except np.linalg.LinAlgError:
        return np.empty((0, m))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _dedup_points(P: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``P`` that are not closer than ``DEDUP_TOL``
    to an earlier kept one, in the order of their coordinates rounded to 9
    digits.  One row of the distance array is computed per kept row, which
    keeps memory linear in the number of rows."""
    keep = np.ones(len(P), dtype=bool)
    for i in range(len(P)):
        if keep[i]:
            keep[i + 1:] &= ~(np.linalg.norm(P[i + 1:] - P[i], axis=1)
                              < DEDUP_TOL)
    idx = np.flatnonzero(keep)
    return idx[np.lexsort(np.round(P[idx], 9).T[::-1])]


def rank_drop_search(Y: Tensor3, seed: int | np.random.Generator = 0
                     ) -> list[RankDropPoint] | None:
    """Hunt for unit vectors a with sigma_n / sigma_1 of M(a, Y) below
    ``TOL_RANKDROP``, or None when no solver applies to the shape of Y.

    ``_structured_roots`` supplies the candidates from one batched solve on
    random (k+1)-dim slices, k = u - n + 1 the codimension of the locus,
    and ``_kernel_points`` runs the rank-drop test once, on all of them,
    returning one point per kernel basis vector.  An empty list means the
    search failed, not that no points exist: a real component of the locus
    can miss a real slice.
    """
    raw = _structured_roots(Y, np.random.default_rng(seed))
    return None if raw is None else _kernel_points(Y, raw)


def _kernel_points(Y: Tensor3, rows) -> list[RankDropPoint]:
    """The rank-drop test, run once on the unit candidate ``rows`` (m
    columns) by one stacked SVD: the canonically signed rows with
    sigma_n / sigma_1 of M(a, Y) below ``TOL_RANKDROP``, deduplicated by
    ``_dedup_points``, each give one point per trailing right singular
    vector whose sigma_i / sigma_1 is below it."""
    a = _canonical_sign(np.asarray(rows, dtype=float).reshape(-1, Y.d3))
    _, s, Vt = np.linalg.svd(_pencils(a, Y))
    q = s / np.where(s[:, :1] > 0, s[:, :1], 1.0)
    drop = np.flatnonzero(q[:, -1] < TOL_RANKDROP)
    points = []
    for r in drop[_dedup_points(a[drop])]:
        for i in range(Y.d2 - 1, -1, -1):
            if not q[r, i] < TOL_RANKDROP:
                break
            points.append(RankDropPoint(a=a[r], b=_canonical_sign(Vt[r, i]),
                                        quality=float(q[r, i])))
    return points


def afcr_margin_info(Y: Tensor3, budget: MarginBudget | None = None,
                     seed: int | np.random.Generator = 0) -> MarginInfo:
    """Best-found minimum of sigma_n(M(a, Y)) over unit a.

    Alternating minimisation of |M(a, Y) b| over unit a and unit b, all
    ``budget.restarts`` starts in one batch: b becomes the last right
    singular vector of M(a), then a the last right singular vector of the
    u x m matrix [Y_1 b ... Y_m b].  Each half-step is an exact
    minimisation, so no start's value sigma_n(M(a)) rises.  Start 0 is the
    best of the unit vectors e_k and the candidates of ``_structured_roots``
    (by sigma_n alone), so that genuinely singular pencils report an
    essentially zero margin; the others are random.  The loop stops when the best value is below 1e-15, when no
    start lowers its value by more than a relative 1e-12, or after
    ``budget.iters`` rounds.  The result is an upper estimate of the true
    margin: strictly positive values are evidence of full column rank
    everywhere, not proof.
    """
    budget = budget or MarginBudget()
    rng = np.random.default_rng(seed)
    n, m = Y.d2, Y.d3
    roots = _structured_roots(Y, rng)
    candidates = np.vstack([np.eye(m)] + ([] if roots is None else [roots]))
    values = np.linalg.svd(_pencils(candidates, Y), compute_uv=False)[:, n - 1]
    a = rng.standard_normal((budget.restarts, m))
    a[0] = candidates[values.argmin()]
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    f = np.full(budget.restarts, np.inf)
    for _ in range(budget.iters):
        s, Vt = np.linalg.svd(_pencils(a, Y), full_matrices=False)[1:]
        last, f = f, s[:, n - 1]
        if f.min() < 1e-15 or np.all(f >= (1 - 1e-12) * last):
            break
        B = np.einsum("kij,rj->rik", Y.data, Vt[:, n - 1])  # [Y_k b]
        a = np.linalg.svd(B)[2][:, -1]  # full Vt: a kernel vector if u < m
    return MarginInfo(value=float(min(f.min(), values.min())),
                      restarts=budget.restarts)


def afcr_margin(Y: Tensor3, budget: MarginBudget | None = None,
                seed: int | np.random.Generator = 0) -> float:
    return afcr_margin_info(Y, budget, seed).value


def is_afcr(Y: Tensor3, budget: MarginBudget | None = None,
            seed: int | np.random.Generator = 0) -> tuple[bool, float]:
    """Classify Y by the margin of its Frobenius-normalized copy.

    Returns (classification, normalized margin); margin above
    ``TOL_MARGIN`` counts as full column rank on the whole sphere.
    """
    norm = Y.norm()
    if norm == 0:
        return False, 0.0
    margin = afcr_margin(Y.scaled(1.0 / norm), budget, seed)
    return margin > TOL_MARGIN, margin


def corner_minors(a, Y: Tensor3) -> np.ndarray:
    """The v corner minors mu_k: rows (1..n-1, k) x all columns, k = n..u."""
    M = contract_pencil(a, Y)
    u, n = M.shape
    base = list(range(1, n))
    return np.array([minor(M, base + [k], list(range(1, n + 1)))
                     for k in range(n, u + 1)])


def corner_minor_jacobian(a, Y: Tensor3) -> np.ndarray:
    """Jacobian of the v = u - n + 1 corner minors with respect to the last
    v pencil coordinates, evaluated at ``a`` (a v x v matrix).  The
    derivative of det(S + t Y_s[rows]) at t = 0 is the sum of the
    determinants of S with one row r replaced by row r of Y_s[rows]."""
    M = contract_pencil(a, Y)
    u, n, m, v = Y.d1, Y.d2, Y.d3, Y.d1 - Y.d2 + 1
    J = np.zeros((v, v))
    for ki, k in enumerate(range(n - 1, u)):
        rows = list(range(n - 1)) + [k]
        for si, s in enumerate(range(m - v, m)):
            S = np.repeat(M[None, rows], n, axis=0)
            S[np.arange(n), np.arange(n)] = Y.data[s][rows]
            J[ki, si] = np.linalg.det(S).sum()
    return J
