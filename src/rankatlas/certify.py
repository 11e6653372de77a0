"""Rank-p certification for n x p x m tensors.

A tensor T with invertible leading p x p block of its mode-2 flattening is
reduced to a u x p matrix (``sigma``), embedded as a pencil with trailing
-E_u block (``iota``), and interrogated through the real rank-drop points
of that pencil: when their ``phi`` images span R^p, they assemble an
explicit p-term decomposition certifying rank == p.  At the corner
p = 2n - 1 of m = 3 one certified count of the complex rank-drop points
decides: its real roots supply the points, and fewer than p real roots give
rank > p.  Elsewhere one rank-drop search supplies them, and only a search
that ran and found no point runs the full-column-rank margin, whose
positive value gives rank > p.  Anything else is Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    _require_ints,
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
RESIDUAL_TOL = 1e-6   # matrix-equation and reconstruction residuals
SPAN_RTOL = 1e-8      # relative threshold of the phi-column rank


class NotInVError(ValueError):
    """Leading p x p block of the mode-2 flattening is (numerically) singular."""


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
        _require_ints(self, ("margin_restarts", "search_restarts",
                             "search_rounds"), least=1)
        _require_ints(self, ("margin_iters",), least=0)


@dataclass(frozen=True)
class RankCertificate:
    """Witness that rank T == p: points d_j with kernel vectors a_j whose
    phi images assemble the nonsingular change-of-basis N."""

    dims: ProblemDims
    A: np.ndarray            # n x p, column j is the unit kernel vector a_j
    D: np.ndarray            # p x m, row j is the unit point d_j
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
class RankExceedsP:
    """rank T > p, witnessed by exactly one of a best-found pencil margin,
    off the corner, and a certified root count at the corner p = 2n - 1 of
    m = 3: all ``roots.degree`` complex rank-drop points of W, fewer than p
    of them real."""

    margin: float | None = None
    roots: RootCount | None = None
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


def _factors(T: Tensor3, A: np.ndarray, D: np.ndarray,
             Q: np.ndarray) -> CPFactors:
    """Factors of a binary-scaled T from a certificate's A, D and Q, and
    their relative residual: the RankP gate and ``decompose`` both use it."""
    B = (Q @ flatten(T, 2)[:len(Q), :]).T  # column j is the mode-2 factor
    C = D.T.copy()
    That = np.einsum("ij,aj,kj->kia", A, B, C)
    residual = float(np.linalg.norm(That - T.data) / np.linalg.norm(T.data))
    return CPFactors(A=A.copy(), B=B, C=C, residual=residual)


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
    A = np.column_stack([found[j].b for j in piv])
    D = np.array([found[j].a for j in piv])  # p x m
    N = Phi[:, piv]
    condN = np.linalg.cond(N)
    diagnostics["cond_N"] = float(condN)
    if not condN <= COND_LIMIT_N:
        return None
    Q = np.linalg.inv(N)

    # column j of sum_k W_k A diag(D_k) is M(d_j, W) a_j
    point_res = np.array([np.linalg.norm(contract_pencil(d, W) @ b)
                          for d, b in zip(D, A.T)])
    pencil_res = float(point_res.max())
    eq_res = float(np.linalg.norm(point_res))
    diagnostics["pencil_residual"] = pencil_res
    diagnostics["matrix_eq_residual"] = eq_res
    if not eq_res <= RESIDUAL_TOL:
        return None

    residual = _factors(T, A, D, Q).residual
    diagnostics["residual"] = residual
    if not residual <= RESIDUAL_TOL:
        return None
    return RankCertificate(dims=dims, A=A, D=D, N=N, Q=Q, residual=residual,
                           pencil_residual=pencil_res)


def certify(T: Tensor3, budget: CertifyBudget | None = None,
            seed: int | np.random.Generator = 0) -> Verdict:
    """Decide whether rank T == p or rank T > p, with explicit witnesses.

    Form W = iota(sigma(T)), after dividing T by the power of two nearest
    max |T| so that residuals stay finite at any scale.  Real rank-drop
    points of W whose phi images span R^p give a p-term reconstruction,
    which is verified; that is RankP.  Where the points come from, and
    what decides rank > p without them, depends on the region:

    - the corner p = (m-1)(n-1) + 1 with m = 3, where W is (n+1) x n: one
      ``corner_root_count``.  Its certified real roots are the points, and
      fewer than p of them give rank > p.  A count that does not certify
      gives Inconclusive with the diagnostic ``count: "uncertified"``.
    - elsewhere: one ``rank_drop_search``.  A found point rules out
      rank > p.  Only a search that ran and found no point runs the margin
      estimate ``afcr_margin_info`` (``margin_restarts`` starts,
      ``margin_iters`` rounds), and its best-found value above
      ``TOL_MARGIN`` gives rank > p.
    - no solver for the shape (n^k above ``pencil.MAX_KRON``, with
      k = u - n + 1): Inconclusive with the diagnostic ``search: "none"``.

    Why the count decides the corner.  Lemma: if the complex rank-drop
    locus of W in P^2 is finite and the kernel at each of its points is
    one-dimensional, then rank T == p implies that at least p of its points
    are real.  Proof: a p-term decomposition of T gives p real rank-drop
    points (d_j, b_j) with independent phi images, so no two pairs are
    proportional, and with one-dimensional kernels the d_j are p distinct
    real points of the locus.  A finite locus has degree C(u, n-1) counted
    with multiplicity.  ``corner_root_count`` checks that the locus is
    finite (a nonsingular Delta0 in its two-parameter solve) and certifies
    C(u, n-1) pairwise distinct simple roots, so it has found every point,
    each with a one-dimensional kernel.  This is a floating-point
    certificate, its Newton-Kantorovich balls computed in floating point
    with slack for rounding, not interval arithmetic.  The dichotomy of
    Sumi, Miyazaki and Sakata (the real locus is empty or Zariski-dense)
    covers p >= (m-1)(n-1) + 2 only; at the corner the locus is finite
    instead, which is what makes the count possible.
    """
    budget = budget or CertifyBudget()
    rng = np.random.default_rng(seed)
    dims = ProblemDims(m=T.d3, n=T.d1, p=T.d2)
    T = _binary_scaled(T)[0]
    W = iota_tensor(sigma(T), dims.n, dims.m)

    if (dims.m, dims.u) == (3, dims.n + 1):
        roots = corner_root_count(W, seed=rng)
        diagnostics = {"degree": math.comb(dims.u, dims.n - 1)}
        if roots is None:
            return Inconclusive(diagnostics={**diagnostics,
                                             "count": "uncertified"})
        real = roots.roots[roots.real].real
        diagnostics.update(roots_found=len(roots.roots), roots_real=len(real))
        found = _kernel_points(W, real)
        cert = _collect_certificate(T, W, dims, found, diagnostics)
        if cert is not None:
            return RankP(certificate=cert, diagnostics=diagnostics)
        if len(real) < dims.p:
            return RankExceedsP(roots=roots)
        return Inconclusive(diagnostics=diagnostics)

    diagnostics = {}
    found = rank_drop_search(W, seed=rng)
    if found is None:  # no solver for this shape: nothing was searched
        return Inconclusive(diagnostics={"search": "none"})
    cert = _collect_certificate(T, W, dims, found, diagnostics)
    if cert is not None:
        return RankP(certificate=cert, diagnostics=diagnostics)
    if found:  # a real point rules out rank > p
        return Inconclusive(diagnostics=diagnostics)

    margin_budget = MarginBudget(restarts=budget.margin_restarts,
                                 iters=budget.margin_iters)
    margin = afcr_margin_info(W.scaled(1.0 / W.norm()), margin_budget,
                              seed=rng).value
    diagnostics["margin"] = margin
    if margin > TOL_MARGIN:
        return RankExceedsP(margin=margin)
    return Inconclusive(diagnostics=diagnostics)


def decompose(T: Tensor3, cert: RankCertificate) -> CPFactors:
    """Expand a certificate into explicit CP factor matrices for T."""
    dims = cert.dims
    if (T.d1, T.d2, T.d3) != (dims.n, dims.p, dims.m):
        raise ValueError("certificate does not match the tensor's size")
    T, e = _binary_scaled(T)
    factors = _factors(T, cert.A, cert.D, cert.Q)
    return replace(factors, B=np.ldexp(factors.B, e))
