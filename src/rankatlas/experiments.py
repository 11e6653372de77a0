"""Monte-Carlo validation harness: random tensors, an alternating-least-
squares cross-check, the tangent-space generic-rank probe, and frequency
reports for the certifier."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .certify import (CertifyBudget, NotInVError, RankExceedsP, RankP,
                      _require_ints, certify)
from .classify import classify
from .pencil import ProblemDims, Tensor3

__all__ = [
    "AlsBudget",
    "ExperimentConfig",
    "ExperimentReport",
    "SampleRow",
    "sample_gaussian_tensor",
    "als_fit",
    "terracini_generic_rank",
    "run_experiment",
    "extend_with_random_column",
]

CSV_COLUMNS = ("sample_id", "verdict", "cert_residual", "als_p", "als_p1",
               "points_found", "span_dim", "wall_ms")
MAX_TRIES = 64      # draws before sample_gaussian_tensor gives up
STALL_TOL = 1e-12   # ALS residual decrease that ends the sweeps
RANK_RTOL = 1e-8    # relative singular-value threshold of the Terracini rank


def sample_gaussian_tensor(dims: tuple[int, int, int],
                           rng: np.random.Generator,
                           require_v: bool = False) -> Tensor3:
    """iid standard normal d1 x d2 x d3 tensor.

    With ``require_v`` the leading d2 x d2 block of the mode-2 flattening is
    required to be well-conditioned (resampling on the measure-zero-ish
    failures).
    """
    d1, d2, d3 = dims
    for _ in range(MAX_TRIES):
        T = Tensor3(rng.standard_normal((d3, d1, d2)))
        if not require_v:
            return T
        F = np.vstack(T.slices)
        if F.shape[0] >= d2 and np.linalg.cond(F[:d2, :]) < 1e12:
            return T
    raise RuntimeError("could not draw a tensor with invertible leading block")


@dataclass(frozen=True)
class AlsBudget:
    restarts: int = 5
    sweeps: int = 500
    polish_iters: int = 2000  # a cap; an exact fit or a vanishing step ends it


def _khatri_rao(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # columnwise Kronecker product
    r = A.shape[1]
    return (A[:, None, :] * B[None, :, :]).reshape(-1, r)


def _cp_jacobian(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Jacobian of ``einsum("ij,aj,kj->iak", A, B, C).ravel()`` in the
    packed entries (A.ravel(), B.ravel(), C.ravel()): the column of A[p, j]
    is e_p x B[:, j] x C[:, j], and likewise for B and C."""
    d1, d2, d3 = len(A), len(B), len(C)
    blocks = (np.einsum("ip,aj,kj->iakpj", np.eye(d1), B, C),
              np.einsum("ij,ap,kj->iakpj", A, np.eye(d2), C),
              np.einsum("ij,aj,kp->iakpj", A, B, np.eye(d3)))
    return np.hstack([blk.reshape(d1 * d2 * d3, -1) for blk in blocks])


def _cp_gradient(R: np.ndarray, A, B, C):
    """J^T R.ravel() as its blocks for A, B and C, J = ``_cp_jacobian``."""
    d1, d2, d3 = R.shape
    return (R.reshape(d1, -1) @ _khatri_rao(B, C),
            R.transpose(1, 0, 2).reshape(d2, -1) @ _khatri_rao(A, C),
            R.transpose(2, 0, 1).reshape(d3, -1) @ _khatri_rao(A, B))


def _cp_lm_step(R: np.ndarray, A, B, C, lam: float) -> np.ndarray:
    """The solution s of (J^T J + lam I) s = J^T R.ravel(), J the Jacobian
    ``_cp_jacobian(A, B, C)``, without forming J or J^T J (Tomasi & Bro,
    CSDA 2006): J^T J has diagonal blocks I x (G_B * G_C) for A and so on,
    G the factor Grams, and A[p, l] B[q, j] G_C[j, l] at ((p, j), (q, l))
    between A and B.  The damped B block I x K^-1 is eliminated by its
    Schur complement, which subtracts (V K V^T) * G_B[j, j'] for the A-B and
    C-B blocks V[p, j, l] B[q, j]: (d1 + d3) r unknowns are left."""
    (d1, d2, d3), r = R.shape, A.shape[1]
    GA, GB, GC = A.T @ A, B.T @ B, C.T @ C
    gA, gB, gC = _cp_gradient(R, A, B, C)
    damp = lam * np.eye(r)
    K = np.linalg.inv(GA * GC + damp)
    V = np.concatenate([A[:, None] * GC, C[:, None] * GA])
    S = (V.reshape(-1, r) @ K @ V.reshape(-1, r).T).reshape(d1 + d3, r, -1, r)
    S *= -GB[:, None, :]
    i, k = np.arange(d1), np.arange(d1, d1 + d3)
    S[i, :, i] += GB * GC + damp
    S[k, :, k] += GA * GB + damp
    HAC = A[:, None, None, :] * C.T[:, :, None] * GB[:, None, :]
    S[:d1, :, d1:] += HAC
    S[d1:, :, :d1] += HAC.transpose(2, 3, 0, 1)
    rhs = np.concatenate([gA, gC]) - (V * (B.T @ gB @ K)).sum(axis=2)
    sX = np.linalg.solve(S.reshape(rhs.size, -1), rhs.ravel()).reshape(-1, r)
    sB = (gB - B @ (sX[:, :, None] * V).sum(axis=0)) @ K
    return np.concatenate([sX[:d1].ravel(), sB.ravel(), sX[d1:].ravel()])


def _cp_lm_polish(X: np.ndarray, A, B, C, iters: int):
    """Levenberg-Marquardt on all factor entries; ALS alone crawls through
    swamps near tight decompositions.  The damping mu follows the gain ratio
    rho of the actual to the predicted decrease of |X - model|^2 (Madsen,
    Nielsen & Tingleff, DTU 2004): it starts at 1e-3 times the largest
    diagonal entry of J^T J, on factors rescaled to equal column norms in
    every term, and is scaled by max(1/3, 1 - (2 rho - 1)^3) after a step
    with rho > 0 and by 2, 4, 8, ... over a run of rejected steps.  It stops
    on an exact fit, on a vanishing step, or after ``iters`` steps."""
    (d1, d2, _), r = X.shape, A.shape[1]
    norms = np.array([np.linalg.norm(F, axis=0) for F in (A, B, C)])
    k = np.cbrt(norms.prod(axis=0))  # a term with a zero factor stays as it is
    scale = np.divide(k, norms, out=np.ones_like(norms), where=k > 0)
    sq = (norms * scale) ** 2  # diag(J^T J) holds sq_b sq_c for A and so on
    mu, nu = 1e-3 * np.max(sq * np.roll(sq, 1, axis=0)), 2.0

    def split(x):
        return [f.reshape(-1, r) for f in np.split(x, [d1 * r, (d1 + d2) * r])]

    def residual(x):
        return X - np.einsum("ij,aj,kj->iak", *split(x))

    x = np.concatenate([(F * f).ravel() for F, f in zip((A, B, C), scale)])
    res = residual(x)
    cost = np.vdot(res, res)
    for _ in range(iters):
        g = np.concatenate([v.ravel() for v in _cp_gradient(res, *split(x))])
        try:
            s = _cp_lm_step(res, *split(x), mu)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(s) <= 1e-12 * np.linalg.norm(x):
            break
        resn = residual(x + s)
        costn = np.vdot(resn, resn)
        # gradient form: |res|^2 - |res - J s|^2 is 0/0 near an exact fit
        rho = (cost - costn) / (s @ (mu * s + g))
        if rho > 0:
            x, res, cost = x + s, resn, costn
            if cost <= 1e-28 * np.vdot(X, X):
                break
            mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
        else:
            mu, nu = mu * nu, nu * 2
    return split(x)


def als_fit(T: Tensor3, r: int, budget: AlsBudget | None = None,
            seed: int | np.random.Generator = 0) -> float:
    """Best relative residual of a rank-r CP model over multistart ALS.

    A cheap independent oracle for rank estimates; local minima are real, so
    only the best-over-restarts value is meaningful.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    budget = budget or AlsBudget()
    rng = np.random.default_rng(seed)
    norm = np.linalg.norm(T.data)
    if norm == 0:
        return 0.0
    X = np.transpose(T.data, (1, 2, 0)) / norm  # (d1, d2, d3), unit norm
    d1, d2, d3 = X.shape
    X1 = X.reshape(d1, d2 * d3)                      # = A (B kr C)^T
    X2 = np.transpose(X, (1, 0, 2)).reshape(d2, -1)  # = B (A kr C)^T
    X3 = np.transpose(X, (2, 0, 1)).reshape(d3, -1)  # = C (A kr B)^T
    def svd_init(unfolding, dim):
        U = np.linalg.svd(unfolding, full_matrices=False)[0][:, :r]
        if U.shape[1] < r:
            U = np.hstack([U, rng.standard_normal((dim, r - U.shape[1]))])
        return U

    def residual(A, B, C):
        return np.linalg.norm(X1 - A @ _khatri_rao(B, C).T)

    best = np.inf
    for restart in range(budget.restarts):
        if restart == 0:  # singular-vector warm start, then random restarts
            A, B, C = svd_init(X1, d1), svd_init(X2, d2), svd_init(X3, d3)
        else:
            A = rng.standard_normal((d1, r))
            B = rng.standard_normal((d2, r))
            C = rng.standard_normal((d3, r))
        prev = np.inf
        for _ in range(budget.sweeps):
            A = np.linalg.lstsq(_khatri_rao(B, C), X1.T, rcond=None)[0].T
            B = np.linalg.lstsq(_khatri_rao(A, C), X2.T, rcond=None)[0].T
            C = np.linalg.lstsq(_khatri_rao(A, B), X3.T, rcond=None)[0].T
            res = residual(A, B, C)
            if prev - res < STALL_TOL:
                break
            prev = res
        res = residual(*_cp_lm_polish(X, A, B, C, budget.polish_iters))
        best = min(best, res)
        if best < 1e-14:
            break
    return float(best)


def terracini_generic_rank(m: int, n: int, p: int,
                           seed: int | np.random.Generator = 0) -> int:
    """Smallest r whose rank-r tangent space at a random point fills the
    whole m*n*p space (numerical rank with relative threshold RANK_RTOL)."""
    if min(m, n, p) < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    full = m * n * p
    for r in range(1, full + 1):
        # one (a, b, c) per term, drawn in that order, as the factor columns
        terms = [[rng.standard_normal(d) for d in (m, n, p)] for _ in range(r)]
        A, B, C = (np.column_stack(f) for f in zip(*terms))
        sv = np.linalg.svd(_cp_jacobian(A, B, C), compute_uv=False)
        rank = int(np.sum(sv > RANK_RTOL * sv[0]))
        if rank == full:
            return r
    return full


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo run: shape in certifier orientation (n, p, m)."""

    n: int
    p: int
    m: int
    samples: int
    seed: int = 0
    run_als: bool = False
    als_restarts: int = 3
    als_sweeps: int = 250
    certify_budget: CertifyBudget = field(default_factory=CertifyBudget)
    csv_path: str | None = None
    json_path: str | None = None
    threads: int = 1  # ignored; goes with ROADMAP item 8's benchmark
    include_timings: bool = True

    def __post_init__(self):
        _require_ints(self, ("n", "p", "m", "samples", "seed", "als_restarts",
                             "als_sweeps"))
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        ProblemDims(self.m, self.n, self.p)  # inside the certifiable window

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("config must be a JSON object")
        budget = payload.pop("certify_budget", None)
        cfg = cls(**payload) if budget is None else cls(
            certify_budget=CertifyBudget(**budget), **payload)
        return cfg

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=1)


@dataclass(frozen=True)
class SampleRow:
    sample_id: int
    verdict: str
    cert_residual: float | None
    als_p: float | None
    als_p1: float | None
    points_found: int | None
    span_dim: int | None
    wall_ms: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: list[SampleRow]
    frequencies: dict[str, float]
    prediction: str

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in CSV_COLUMNS:
                val = getattr(row, col)
                cells.append("" if val is None else repr(val)
                             if isinstance(val, float) else str(val))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "config": json.loads(self.config.to_json()),
            "frequencies": self.frequencies,
            "prediction": self.prediction,
            "samples": len(self.rows),
        }
        return json.dumps(payload, indent=1)


def _run_one(cfg: ExperimentConfig, idx: int) -> SampleRow:
    rng = np.random.default_rng([cfg.seed, idx])
    t0 = time.perf_counter()
    T = sample_gaussian_tensor((cfg.n, cfg.p, cfg.m), rng, require_v=True)
    try:
        verdict = certify(T, cfg.certify_budget, seed=rng)
    except NotInVError:
        verdict = None
    als_p = als_p1 = None
    if cfg.run_als:
        als_budget = AlsBudget(restarts=cfg.als_restarts,
                               sweeps=cfg.als_sweeps)
        # a stream of its own, so that certify's draws do not move it
        als_rng = np.random.default_rng([cfg.seed, idx, 1])
        als_p = als_fit(T, cfg.p, als_budget, seed=als_rng)
        als_p1 = als_fit(T, cfg.p + 1, als_budget, seed=als_rng)
    wall_ms = (time.perf_counter() - t0) * 1000.0 if cfg.include_timings else 0.0
    if verdict is None:
        return SampleRow(idx, "NotInV", None, als_p, als_p1, None, None, wall_ms)
    residual = points = span = None
    if isinstance(verdict, RankP):
        residual = verdict.certificate.residual
    if not isinstance(verdict, RankExceedsP):
        points = verdict.diagnostics.get("points_found")
        span = verdict.diagnostics.get("span_dim")
    return SampleRow(idx, verdict.kind, residual, als_p, als_p1, points, span,
                     wall_ms)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Certify ``cfg.samples`` random tensors, in order in the calling
    thread, and aggregate verdict frequencies; deterministic for a fixed
    (config, seed)."""
    rows = [_run_one(cfg, i) for i in range(cfg.samples)]
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.verdict] = counts.get(row.verdict, 0) + 1
    freqs = {k: v / cfg.samples for k, v in sorted(counts.items())}
    prediction = classify(cfg.m, cfg.n, cfg.p).describe()
    report = ExperimentReport(config=cfg, rows=rows, frequencies=freqs,
                              prediction=prediction)
    if cfg.csv_path:
        with open(cfg.csv_path, "w") as fh:
            fh.write(report.to_csv())
    if cfg.json_path:
        with open(cfg.json_path, "w") as fh:
            fh.write(report.to_json())
    return report


def extend_with_random_column(T: Tensor3, rng: np.random.Generator) -> Tensor3:
    """Append one random column to every slice: n x p x m -> n x (p+1) x m.

    Dropping that column projects back onto T, so rank(T) <= rank of the
    extension; a rank-(p+1) certificate for the extension caps rank(T).
    """
    cols = rng.standard_normal((T.d3, T.d1, 1))
    return Tensor3(np.concatenate([T.data, cols], axis=2))
