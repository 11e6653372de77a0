"""Rank-p certification for n x p x m tensors.

A tensor T with invertible leading p x p block of its mode-2 flattening is
reduced to a u x p matrix (``sigma``), embedded as a pencil with trailing
-E_u block (``iota``), and interrogated through the real rank-drop points
of that pencil: when their ``phi`` images span R^p, they assemble an
explicit p-term decomposition certifying rank == p.  At the corner
p = 2n - 1 of m = 3 one certified count of the complex rank-drop points
supplies them as its real roots, and fewer than p real roots give
rank > p.  Elsewhere, and where the count does not certify, one rank-drop
search supplies them, and only a search that ran and found no point runs
the full-column-rank margin, whose positive value gives rank > p.  Anything
else is Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .pencil import (
    TOL_MARGIN,
    MarginBudget,
    ProblemDims,
    RootCount,
    Tensor3,
    _binary_scaled,
    _kernel_points,
    afcr_margin_info,
    contract_pencil,
    corner_root_count,
    flatten,
    rank_drop_search,
)

__all__ = [
    "NotInVError",
    "CertifyBudget",
    "RankCertificate",
    "RootCountCertificate",
    "RankP",
    "RankExceedsP",
    "Inconclusive",
    "Verdict",
    "sigma",
    "iota",
    "iota_tensor",
    "nu",
    "phi",
    "certify",
    "decompose",
    "CPFactors",
]


# Fixed gates, so that no budget can loosen what a verdict means
COND_LIMIT = 1e12     # condition number of the blocks sigma and nu invert
COND_LIMIT_N = 1e10   # condition number of the certificate's N
RESIDUAL_TOL = 1e-6   # pencil, matrix-equation and reconstruction residuals
SPAN_RTOL = 1e-8      # relative threshold of the phi-column rank


class NotInVError(ValueError):
    """Leading p x p block of the mode-2 flattening is (numerically) singular."""


def _require_ints(obj, names) -> None:
    """TypeError unless each named field of ``obj`` is an int, not a bool."""
    for name in names:
        if type(getattr(obj, name)) is not int:
            raise TypeError(f"{name} must be an int: {getattr(obj, name)!r}")


def sigma(T: Tensor3) -> np.ndarray:
    """Normal form of T: last u rows of the mode-2 flattening times the
    inverse of its leading p x p block."""
    n, p, m = T.d1, T.d2, T.d3
    F = flatten(T, 2)  # (n m) x p
    if F.shape[0] < p:
        raise NotInVError(f"tensor {n}x{p}x{m} has nm < p")
    top = F[:p, :]
    if np.linalg.cond(top) > COND_LIMIT:
        raise NotInVError(
            f"leading {p}x{p} block has condition number above {COND_LIMIT:g}")
    return F[p:, :] @ np.linalg.inv(top)


def iota(A: np.ndarray) -> np.ndarray:
    """Append a trailing -E_u block: u x p -> u x (p + u)."""
    A = np.asarray(A, dtype=float)
    u = A.shape[0]
    return np.hstack([A, -np.eye(u)])


def iota_tensor(A: np.ndarray, n: int, m: int) -> Tensor3:
    """iota(A) reshaped into the u x n x m pencil tensor (inverse mode-1
    flattening)."""
    W = iota(A)
    u, total = W.shape
    if total != n * m:
        raise ValueError(f"iota(A) has {total} columns, cannot split into "
                         f"{m} blocks of {n}")
    return Tensor3(np.stack([W[:, k * n:(k + 1) * n] for k in range(m)]))


def nu(Y: Tensor3) -> np.ndarray:
    """Inverse normal form on pencils: -(trailing u x u block)^-1 times the
    leading p columns of the mode-1 flattening."""
    u, n, m = Y.d1, Y.d2, Y.d3
    p = n * m - u
    F = flatten(Y, 1)  # u x (n m)
    trailing = F[:, p:]
    if np.linalg.cond(trailing) > COND_LIMIT:
        raise ValueError("trailing block of the mode-1 flattening is singular")
    return -np.linalg.solve(trailing, F[:, :p])


def phi(a, b, dims: ProblemDims) -> np.ndarray:
    """Stack a_1 b, ..., a_(m-2) b and a_(m-1) times the first n-l entries
    of b into R^p.  The last coordinate of ``a`` never enters.  Stacked
    rows a (..., m) and b (..., n) with the same leading shape give their
    images row by row, (..., p)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lead = a.shape[:-1]
    if a.shape != lead + (dims.m,) or b.shape != lead + (dims.n,):
        raise ValueError(
            f"phi expects shapes (..., {dims.m}), (..., {dims.n}) with the "
            f"same leading shape; got {a.shape}, {b.shape}")
    head = a[..., :dims.m - 2, None] * b[..., None, :]
    return np.concatenate([head.reshape(lead + (-1,)),
                           a[..., dims.m - 2, None] * b[..., :dims.n - dims.l]],
                          axis=-1)


@dataclass(frozen=True)
class CertifyBudget:
    margin_restarts: int = 40
    margin_iters: int = 500
    # unused: a search is one complete solve, without restarts or rounds;
    # kept while perfbench builds budgets with them (ROADMAP item 13)
    search_restarts: int = 300
    search_rounds: int = 5

    def __post_init__(self):
        _require_ints(self, ("margin_restarts", "margin_iters",
                             "search_restarts", "search_rounds"))
        if self.search_rounds < 1 or self.margin_restarts < 1:
            raise ValueError("budget must allow at least one round")


@dataclass(frozen=True)
class RankCertificate:
    """Witness that rank T == p: points d_j with kernel vectors a_j whose
    phi images assemble the nonsingular change-of-basis N."""

    dims: ProblemDims
    points: list  # list of (d_j, a_j) pairs, unit vectors
    A: np.ndarray            # n x p, columns a_j
    D: np.ndarray            # p x m, row j holds the coordinates of d_j
    N: np.ndarray            # p x p
    Q: np.ndarray            # N^{-1}
    residual: float          # relative Frobenius reconstruction error
    pencil_residual: float   # max_j |M(d_j, W) a_j|


@dataclass(frozen=True)
class RankP:
    certificate: RankCertificate
    diagnostics: dict = field(default_factory=dict)
    kind: str = field(default="RankP", init=False)


@dataclass(frozen=True)
class RootCountCertificate:
    """Witness that rank T > p at the corner p = 2n - 1 of m = 3: all
    ``degree`` complex rank-drop points of W certified, fewer than p of
    them real."""

    p: int
    count: RootCount

    @property
    def degree(self) -> int:
        return self.count.degree

    @property
    def roots_found(self) -> int:
        return len(self.count.roots)

    @property
    def roots_real(self) -> int:
        return int(self.count.real.sum())

    @property
    def max_radius(self) -> float:
        return float(self.count.radii.max())


@dataclass(frozen=True)
class RankExceedsP:
    """rank T > p, witnessed by exactly one of a best-found pencil margin
    and a certified root count."""

    margin: float | None = None
    roots: RootCountCertificate | None = None
    kind: str = field(default="RankExceedsP", init=False)

    def __post_init__(self):
        if (self.margin is None) == (self.roots is None):
            raise ValueError("RankExceedsP needs exactly one of margin and "
                             "roots")


@dataclass(frozen=True)
class Inconclusive:
    diagnostics: dict
    kind: str = field(default="Inconclusive", init=False)


Verdict = Union[RankP, RankExceedsP, Inconclusive]


def _select_independent(Phi, p):
    """The numerical rank of the columns of ``Phi`` and the indices of up
    to p well-conditioned ones, picked by column-pivoted Gram-Schmidt: each
    step takes the column of largest residual norm.

    Incremental greedy can trap itself: a marginally independent column
    caps the reachable singular values of every later extension, so the
    selection is redone over the whole candidate pool each time.
    """
    res = np.array(Phi, order="C")
    piv, first = [], 0.0
    for _ in range(res.shape[0]):
        norms = np.linalg.norm(res, axis=0)
        norms[piv] = -1.0
        j = int(np.argmax(norms))
        if not norms[j] > SPAN_RTOL * first:
            break
        first = first or norms[j]
        q = res[:, j] / norms[j]
        res -= np.outer(q, q @ res)
        piv.append(j)
    return len(piv), piv[:p]


def _collect_certificate(T, W, dims, found, diagnostics):
    """The rank-drop points ``found`` assembled into a certificate when
    their phi images span R^p and every check passes, or None."""
    if not found:
        diagnostics["span_dim"] = 0
        return None
    diagnostics["points_found"] = len(found)
    Phi = phi(np.array([pt.a for pt in found]),
              np.array([pt.b for pt in found]), dims).T
    span, piv = _select_independent(Phi, dims.p)
    diagnostics["span_dim"] = span
    if span < dims.p:
        return None
    p, m = dims.p, dims.m
    chosen = [(found[j].a, found[j].b) for j in piv]
    A = np.column_stack([b for _, b in chosen])
    D = np.array([d for d, _ in chosen])  # p x m
    N = Phi[:, piv]
    condN = np.linalg.cond(N)
    diagnostics["cond_N"] = float(condN)
    if not condN <= COND_LIMIT_N:
        return None
    Q = np.linalg.inv(N)

    pencil_res = max(
        float(np.linalg.norm(contract_pencil(d, W) @ b)) for d, b in chosen)
    eq_res = float(np.linalg.norm(
        sum(W.slice(k) @ A @ np.diag(D[:, k]) for k in range(m))))
    diagnostics["pencil_residual"] = pencil_res
    diagnostics["matrix_eq_residual"] = eq_res
    if not max(pencil_res, eq_res) <= RESIDUAL_TOL:
        return None

    top = flatten(T, 2)[:p, :]
    That = np.stack([A @ np.diag(D[:, k]) @ Q @ top for k in range(m)])
    residual = float(np.linalg.norm(That - T.data) / np.linalg.norm(T.data))
    diagnostics["residual"] = residual
    if not residual <= RESIDUAL_TOL:
        return None
    return RankCertificate(
        dims=dims, points=chosen, A=A, D=D, N=N, Q=Q,
        residual=residual, pencil_residual=pencil_res)


def certify(T: Tensor3, budget: CertifyBudget | None = None,
            seed: int | np.random.Generator = 0) -> Verdict:
    """Decide whether rank T == p or rank T > p, with explicit witnesses.

    Procedure: form W = iota(sigma(T)) and find its real rank-drop points
    once, as the real roots of the certified count at the corner below and
    by one rank-drop search elsewhere; when their phi images span R^p, the
    resulting p-term reconstruction is verified.  T is first divided by the
    power of two nearest max |T|, so that residuals stay finite at any
    scale.

    Without a certificate, rank > p is decided in one of two ways.

    At the corner p = (m-1)(n-1) + 1 with m = 3, where W is (n+1) x n, it
    rests on the converse of that construction.  Lemma: if the complex
    rank-drop locus of W in P^2 is finite and the kernel at each of its
    points is one-dimensional, then rank T == p implies that at least p of
    its points are real.  Proof: a p-term decomposition of T gives p real
    rank-drop points (d_j, b_j) with independent phi images, so no two
    pairs are proportional, and with one-dimensional kernels the d_j are p
    distinct real points of the locus.  A finite locus has degree
    C(u, n-1) counted with multiplicity.  ``corner_root_count`` checks that
    the locus is finite (a nonsingular Delta0 in its two-parameter solve)
    and certifies C(u, n-1) pairwise distinct simple roots, so it has found
    every point, each with a one-dimensional kernel; fewer than p real
    roots among them give rank > p.  The same real roots, Newton-polished,
    are the points the rank-p certificate is assembled from, so no search
    runs when the count certifies.  This is a floating-point certificate,
    its Newton-Kantorovich balls computed in floating point with slack for
    rounding, not interval arithmetic.  The
    dichotomy of Sumi, Miyazaki and Sakata (the real locus is empty or
    Zariski-dense) covers p >= (m-1)(n-1) + 2 only; at the corner the locus
    is finite instead, which is what makes the count possible.

    Elsewhere, and at the corner when the count does not certify, rank > p
    means full column rank of W on the whole sphere, so a found point
    (sigma_n / sigma_1 below ``pencil.TOL_RANKDROP``) rules it out and the
    verdict is Inconclusive.  So is it, with the diagnostic ``search:
    "none"``, where no search ran (n^k above ``pencil.MAX_KRON``, with
    k = u - n + 1).  Only a search that ran and found no point runs the
    margin estimate ``afcr_margin_info``: alternating minimisation of
    |M(a, W) b| over unit a and unit b from ``margin_restarts`` starts in
    one batch, each half-step an exact smallest-singular-vector solve,
    until no start descends by a relative 1e-12 or ``margin_iters`` rounds
    have run.  Its best-found value above ``TOL_MARGIN`` gives rank > p.
    """
    budget = budget or CertifyBudget()
    rng = np.random.default_rng(seed)
    dims = ProblemDims(m=T.d3, n=T.d1, p=T.d2)
    T = _binary_scaled(T)[0]
    W = iota_tensor(sigma(T), dims.n, dims.m)

    diagnostics: dict = {}
    roots = None
    if (dims.m, dims.u) == (3, dims.n + 1):
        count = corner_root_count(W, seed=rng)
        diagnostics["degree"] = math.comb(dims.u, dims.n - 1)
        diagnostics["roots_found"] = diagnostics["roots_real"] = None
        if count is not None:
            roots = RootCountCertificate(p=dims.p, count=count)
            diagnostics["roots_found"] = roots.roots_found
            diagnostics["roots_real"] = roots.roots_real
    if roots is None:
        found = rank_drop_search(W, dims, seed=rng)
        if found is None:  # no solver for this shape: nothing was searched
            return Inconclusive(diagnostics={**diagnostics, "search": "none"})
    else:  # the certified real roots are every real rank-drop point
        real = roots.count.roots[roots.count.real].real
        found = _kernel_points(W, real)
    cert = _collect_certificate(T, W, dims, found, diagnostics)
    if cert is not None:
        return RankP(certificate=cert, diagnostics=diagnostics)
    if roots is not None and roots.roots_real < dims.p:
        return RankExceedsP(roots=roots)
    if found or roots is not None:  # a real point rules out rank > p
        return Inconclusive(diagnostics=diagnostics)

    margin_budget = MarginBudget(restarts=budget.margin_restarts,
                                 iters=budget.margin_iters)
    margin = afcr_margin_info(W.scaled(1.0 / W.norm()), margin_budget,
                              seed=rng).value
    diagnostics["margin"] = margin
    if margin > TOL_MARGIN:
        return RankExceedsP(margin=margin)
    return Inconclusive(diagnostics=diagnostics)


@dataclass(frozen=True)
class CPFactors:
    """T[i, alpha, k] = sum_j A[i, j] B[alpha, j] C[k, j]."""

    A: np.ndarray  # n x p
    B: np.ndarray  # p x p
    C: np.ndarray  # m x p
    residual: float

    @property
    def terms(self) -> int:
        return self.A.shape[1]


def decompose(T: Tensor3, cert: RankCertificate) -> CPFactors:
    """Expand a certificate into explicit CP factor matrices for T."""
    dims = cert.dims
    if (T.d1, T.d2, T.d3) != (dims.n, dims.p, dims.m):
        raise ValueError("certificate does not match the tensor's size")
    T, e = _binary_scaled(T)
    top = flatten(T, 2)[: dims.p, :]
    B = (cert.Q @ top).T           # p x p, column j is the mode-2 factor
    C = cert.D.T.copy()            # m x p
    That = np.einsum("ij,aj,kj->kia", cert.A, B, C)
    residual = float(np.linalg.norm(That - T.data) / np.linalg.norm(T.data))
    return CPFactors(A=cert.A.copy(), B=np.ldexp(B, e), C=C,
                     residual=residual)
