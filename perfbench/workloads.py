"""The benchmark's workloads: inputs made from the seed, passes over them,
and an independent check of every output.

Every call into rankatlas goes through a module attribute looked up at call
time (``sys.modules[...]``), so the shims of a traced run see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-6            # residual gate, written ``not x <= TOL`` so NaN fails
DECIDED = ("RankP", "RankExceedsP")


def mod(name: str):
    """A rankatlas module; ``rankatlas.certify`` and ``rankatlas.classify``
    are shadowed by functions of the same name on the package."""
    return sys.modules[name]


@dataclass
class PassResult:
    keys: list = field(default_factory=list)      # stable id per operation
    labels: list = field(default_factory=list)    # what the operation gave
    inputs: list = field(default_factory=list)    # hashes of the inputs
    ms: list = field(default_factory=list)        # per-operation latency
    wall_s: float = 0.0                           # timed program calls only
    verdicts: int = 0                             # operations giving a verdict
    decided: int = 0                              # ... naming a rank
    failed: int = 0
    wrong: int = 0                                # contradicts a known answer
    skipped: int = 0                              # not started, see skip()
    reasons: Counter = field(default_factory=Counter)
    histogram: Counter = field(default_factory=Counter)

    def add(self, key, label, ms, outcome, verdict=None):
        self.keys.append(key)
        self.labels.append(f"{key} -> {label}")
        self.ms.append(ms)
        self.histogram[outcome] += 1
        if verdict is not None:
            self.verdicts += 1
            self.decided += verdict in DECIDED

    def fail(self, reason, wrong=False):
        """One operation failed its check; ``wrong`` if it contradicts a
        known answer rather than missing one."""
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] += 1

    def skip(self, count: int) -> None:
        """``count`` operations were not started because the pass reached
        its hard stop; each counts as attempted and failed."""
        self.skipped += count
        self.failed += count
        self.reasons["not started before the hard stop"] += count

    @property
    def truncated(self) -> bool:
        return self.skipped > 0

    @property
    def ops(self) -> int:
        """Operations that ran (skipped ones excluded)."""
        return len(self.keys)

    def digest(self) -> str:
        text = "\n".join(self.labels + self.inputs)
        return hashlib.sha256(text.encode()).hexdigest()


def input_hash(T) -> str:
    data = np.ascontiguousarray(T.data).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# -- independent checks --------------------------------------------------


def check_rank_p(T, verdict) -> str | None:
    """Re-verify a RankP verdict; returns the reason it fails, or None.

    The certificate's own residual, the residual ``decompose`` reports and
    an einsum reconstruction of the factors made here must all pass the
    gate.  The reconstruction is scaled by max |T| so that it stays finite
    for tensors near the limits of the floating-point range.
    """
    cert = verdict.certificate
    if not cert.residual <= TOL:
        return "certificate residual above gate"
    factors = mod("rankatlas.certify").decompose(T, cert)
    if factors.terms != T.d2:
        return "decomposition has the wrong number of terms"
    if not factors.residual <= TOL:
        return "decompose residual above gate"
    scale = float(np.max(np.abs(T.data)))
    rebuilt = np.einsum("ij,aj,kj->kia", factors.A, factors.B, factors.C)
    residual = (np.linalg.norm((rebuilt - T.data) / scale)
                / np.linalg.norm(T.data / scale))
    if not residual <= TOL:
        return "reconstruction residual above gate"
    return None


def planted_tensor(shape, rng):
    """n x p x m tensor of rank at most p from Gaussian factors."""
    n, p, m = shape
    A = rng.standard_normal((n, p))
    B = rng.standard_normal((p, p))
    C = rng.standard_normal((m, p))
    return mod("rankatlas.pencil").Tensor3(np.einsum("ij,aj,kj->kia", A, B, C))


def quaternion_rank13_tensor():
    """4 x 12 x 4 tensor whose pencil is the quaternion multiplication: full
    column rank on the whole sphere, so its rank is 13."""
    bilinear = mod("rankatlas.bilinear")
    Y = bilinear.as_tensor(bilinear.hypercomplex_mult(4))
    fl1 = np.hstack(Y.slices)
    F = np.vstack([np.eye(12), -np.linalg.solve(fl1[:, 12:], fl1[:, :12])])
    return mod("rankatlas.pencil").Tensor3(
        np.stack([F[4 * k:4 * (k + 1), :] for k in range(4)]))


def rank_drop_pencil(rng):
    """4 x 3 x 3 pencil with a planted real point a0 where M(a0) b0 = 0."""
    Y = rng.standard_normal((3, 4, 3))
    a0 = rng.standard_normal(3)
    a0 /= np.linalg.norm(a0)
    b0 = rng.standard_normal(3)
    b0 /= np.linalg.norm(b0)
    r = np.einsum("k,kij,j->i", a0, Y, b0)
    Y -= np.einsum("k,i,j->kij", a0, r, b0)
    return mod("rankatlas.pencil").Tensor3(Y)


# -- Monte-Carlo workloads -----------------------------------------------

# Typical-rank sets of the sampled shapes (n, p, m), from the literature the
# README cites: a RankExceedsP verdict outside them is a wrong answer.
TYPICAL_RANKS = {(3, 6, 3): (6,), (4, 12, 4): (12, 13), (3, 5, 3): (5, 6)}


class MonteCarlo:
    """Gaussian samples through ``run_experiment``.

    The inputs are ``samples`` draws per shape, split into chunks of at most
    ``chunk`` samples; each chunk is one ``run_experiment`` call with a seed
    derived from the workload seed.  One operation is one sample.
    """

    def __init__(self, shapes, threads, samples, seed, chunk=None):
        self.threads = threads
        self.chunks = []  # (shape, config seed, sample count)
        for si, shape in enumerate(shapes):
            left, ci = samples, 0
            while left > 0:
                k = min(chunk or left, left)
                self.chunks.append((shape, derive_seed(seed, si, ci), k))
                left, ci = left - k, ci + 1
        self.captured: list = []

    def warm_up(self):
        experiments = mod("rankatlas.experiments")
        for shape in dict.fromkeys(shape for shape, _, _ in self.chunks):
            n, p, m = shape
            experiments.run_experiment(experiments.ExperimentConfig(
                n=n, p=p, m=m, samples=1, seed=1, threads=self.threads))

    def run_pass(self, deadline: float, fraction=1.0) -> PassResult:
        """One run_experiment call per chunk; ``fraction`` < 1 runs only
        that share of each chunk's samples (the first ones).  Chunks not
        started by ``deadline`` are skipped and count as failed."""
        experiments = mod("rankatlas.experiments")
        out = PassResult()
        original = experiments.certify

        def certify(T, *args, **kwargs):
            # keep each (tensor, verdict) run_experiment's certify returns,
            # for the checks: one list append per sample
            verdict = original(T, *args, **kwargs)
            self.captured.append((T, verdict))
            return verdict

        experiments.certify = certify
        try:
            for ci, (shape, cfg_seed, k) in enumerate(self.chunks):
                samples = max(1, round(k * fraction))
                if time.perf_counter() > deadline:
                    out.skip(samples)
                    continue
                n, p, m = shape
                cfg = experiments.ExperimentConfig(
                    n=n, p=p, m=m, samples=samples, seed=cfg_seed,
                    threads=self.threads)
                self.captured = []
                t0 = time.perf_counter()
                try:
                    report = experiments.run_experiment(cfg)
                except Exception as exc:  # the pass goes on; the chunk failed
                    report, error = None, type(exc).__name__
                out.wall_s += time.perf_counter() - t0
                if report is None:
                    for i in range(samples):
                        out.add((ci, i), "error", 0.0, "error",
                                verdict="error")
                        out.fail(f"run_experiment raised {error}")
                else:
                    self._check_chunk(out, ci, shape, report.rows)
        finally:
            experiments.certify = original
        return out

    def _check_chunk(self, out, ci, shape, rows):
        # every field of the row but its time, and the sampled tensors (in
        # an order the worker threads cannot change)
        for row in rows:
            label = (f"{row.verdict} points={row.points_found} "
                     f"span={row.span_dim} residual={row.cert_residual!r}")
            out.add((ci, row.sample_id), label, row.wall_ms,
                    row.verdict, verdict=row.verdict)
            if (row.verdict == "RankExceedsP"
                    and shape[1] + 1 not in TYPICAL_RANKS[shape]):
                out.fail("RankExceedsP on a unique-rank shape", wrong=True)
        out.inputs.extend(sorted(input_hash(T) for T, _ in self.captured))
        for T, verdict in self.captured:
            if verdict.kind == "RankP":
                reason = check_rank_p(T, verdict)
                if reason:
                    out.fail(reason)
        unchecked = (sum(r.verdict == "RankP" for r in rows)
                     - sum(v.kind == "RankP" for _, v in self.captured))
        for _ in range(unchecked):
            out.fail("RankP without a certificate to check")


# -- reference workload --------------------------------------------------

# Answers of `trank` (the typical-rank set) known from the literature the
# README and the paper cite; 3 x 3 x 200 is the slow query (p >= mn).
TRANK_ANSWERS = [
    ((3, 3, 5), [5, 6]), ((3, 3, 6), [6]), ((3, 3, 7), [7]),
    ((4, 4, 10), [10, 11]), ((4, 4, 12), [12, 13]), ((2, 4, 4), [4, 5]),
    ((2, 3, 7), [6]), ((3, 3, 200), [9]),
]

# Pinned values of m#n (Hopf-Stiefel, Adams, Hurwitz-Radon).
HASH_VALUES = {(2, 2): 2, (3, 3): 4, (4, 4): 4, (5, 5): 8, (8, 8): 8,
               (9, 9): 16, (3, 5): 7}


def cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mod("rankatlas.cli").run(argv)
    return code, buf.getvalue()


def check_bounds(result):
    code, text = result
    if code != 0:
        return "exit code", "failed", f"bounds exited {code}"
    entries = {(e["m"], e["n"]): (e["lower"], e["upper"])
               for e in json.loads(text)["entries"]}
    if len(entries) != 64 * 65 // 2:
        return "incomplete", "wrong", "bounds table is incomplete"
    for (m, n), (lo, hi) in entries.items():
        if not max(m, n) <= lo <= hi <= m + n - 1:
            return "bad interval", "wrong", "interval outside [max, m+n-1]"
        if m == 1 and lo != n:
            return "bad 1#n", "wrong", "1#n is not n"
        if m > 1 and (m - 1) & (n - 1) == 0 and lo != m + n - 1:
            return "bad bit-disjoint", "wrong", "bit-disjoint m#n is not m+n-1"
    for key, value in HASH_VALUES.items():
        if entries[key] != (value, value):
            return "bad pinned value", "wrong", "pinned m#n value differs"
    return "ok", "ok", None


def check_trank(expected):
    def check(result):
        code, text = result
        if code != 0:
            return "exit code", "failed", f"trank exited {code}"
        ranks = json.loads(text)["ranks"]
        if ranks != expected:
            return str(ranks), "wrong", "typical-rank set differs"
        return str(ranks), "ok", None
    return check


def check_afcr(expected):
    def check(result):
        ok, _ = result
        status = "ok" if ok == expected else "wrong"
        return f"afcr={ok}", status, None if ok == expected else "AFCR class"
    return check


def check_margin(composition):
    def check(value):
        # a composition algebra has |f(x, y)| = 1 on the whole product of
        # unit spheres; any nonsingular map has a positive minimum
        if composition and not abs(value - 1.0) <= TOL:
            return "margin!=1", "wrong", "composition margin is not 1"
        if not value > TOL:
            return "margin=0", "wrong", "nonsingular map reported singular"
        return "margin>0", "ok", None
    return check


def check_verdict(T, expected):
    """``expected`` is "RankExceedsP" (rank above p is known) or "rank<=p"."""
    def check(verdict):
        kind = verdict.kind
        if expected == "RankExceedsP":
            if kind == "RankP":
                return kind, "wrong", "RankP on a rank-13 tensor"
            if kind != "RankExceedsP":
                return kind, "failed", "expected RankExceedsP"
            return kind, "ok", None
        if kind == "RankExceedsP":
            return kind, "wrong", "RankExceedsP on a planted rank-p tensor"
        if kind == "RankP":
            label = f"{kind} residual={verdict.certificate.residual!r}"
            reason = check_rank_p(T, verdict)
            if reason:
                return label, "failed", reason
            return label, "ok", None
        return kind, "ok", None
    return check


def check_als(value):
    if not value <= TOL:
        return "no fit", "failed", "ALS at rank p above gate"
    return "fit", "ok", None


# Planted shapes that are also certified at 1e200 and 1e-200 scale and fitted
# by ALS; the planted 4 x 11 x 4 tensor only takes the multistart search path.
SCALED_SHAPES = ((3, 6, 3), (4, 12, 4), (3, 5, 3))


class Reference:
    """A fixed list of known-answer queries.  The seed draws the planted
    factors and the seeds passed to the program; everything else is fixed.
    One operation is one query."""

    threads = 1

    def __init__(self, seed):
        rng = np.random.default_rng(derive_seed(seed, 7))
        bilinear = mod("rankatlas.bilinear")
        pencil = mod("rankatlas.pencil")
        certify_mod = mod("rankatlas.certify")
        experiments = mod("rankatlas.experiments")

        def prog_seed():
            return int(rng.integers(2**31))

        q, o = bilinear.hypercomplex_mult(4), bilinear.hypercomplex_mult(8)
        maps = [("quaternion", q, True), ("octonion", o, True),
                ("restrict(octonion,5,5)", bilinear.restrict(o, 5, 5), True),
                ("convolve(quaternion,2,2)", bilinear.convolve(q, 2, 2),
                 False)]
        planted = {shape: planted_tensor(shape, rng)
                   for shape in ((3, 6, 3), (4, 12, 4), (3, 5, 3), (4, 11, 4))}
        T13 = quaternion_rank13_tensor()
        fixed = np.random.default_rng(2015)
        perturbed = [pencil.Tensor3(T13.data + 0.02 * fixed.standard_normal(
            T13.data.shape)) for _ in range(2)]

        queries = [("bounds --max 64",
                    lambda: cli_json(["bounds", "--max", "64", "--json"]),
                    check_bounds)]
        for dims, ranks in TRANK_ANSWERS:
            argv = ["trank", *map(str, dims), "--json"]
            queries.append((f"trank {dims}", lambda a=argv: cli_json(a),
                            check_trank(ranks)))
        for name, f, _ in maps:
            Y, s = bilinear.as_tensor(f), prog_seed()
            queries.append((f"is_afcr {name}",
                            lambda Y=Y, s=s: mod("rankatlas.pencil").is_afcr(
                                Y, seed=s), check_afcr(True)))
        Y, s = rank_drop_pencil(rng), prog_seed()
        queries.append(("is_afcr rank-drop pencil",
                        lambda: mod("rankatlas.pencil").is_afcr(Y, seed=s),
                        check_afcr(False)))
        for name, f, composition in maps:
            s = prog_seed()
            queries.append((f"nonsingularity_margin {name}",
                            lambda f=f, s=s: mod("rankatlas.bilinear")
                            .nonsingularity_margin(f, seed=s),
                            check_margin(composition)))
        certify_cases = [("quaternion rank-13", T13, "RankExceedsP")]
        certify_cases += [(f"rank-13 perturbation {i}", T, "RankExceedsP")
                          for i, T in enumerate(perturbed)]
        certify_cases += [(f"planted {n}x{p}x{m}", T, "rank<=p")
                          for (n, p, m), T in planted.items()]
        for scale in (1e200, 1e-200):
            certify_cases += [(f"planted {n}x{p}x{m} * {scale:g}",
                               planted[(n, p, m)].scaled(scale), "rank<=p")
                              for n, p, m in SCALED_SHAPES]
        for name, T, expected in certify_cases:
            s = prog_seed()
            queries.append((f"certify {name}",
                            lambda T=T, s=s: mod("rankatlas.certify").certify(
                                T, seed=s), check_verdict(T, expected)))
        for n, p, m in SCALED_SHAPES:
            T, s = planted[(n, p, m)], prog_seed()
            queries.append((f"als_fit planted {n}x{p}x{m} rank {p}",
                            lambda T=T, p=p, s=s: mod("rankatlas.experiments")
                            .als_fit(T, p, seed=s), check_als))
        self.queries = queries
        self.inputs = [input_hash(T) for T in planted.values()]
        self.inputs.append(input_hash(Y))
        # one small call per entry point, on inputs that do not depend on the
        # seed: lazy imports and small caches
        warm_rng = np.random.default_rng(1)
        warm_tensors = [planted_tensor(shape, warm_rng) for shape in planted]
        small = certify_mod.CertifyBudget(margin_restarts=1, margin_iters=1,
                                          search_restarts=1, search_rounds=1)
        self.warm = [
            lambda: cli_json(["trank", "3", "3", "5", "--json"]),
            lambda: cli_json(["bounds", "--max", "8", "--json"]),
            lambda: pencil.is_afcr(bilinear.as_tensor(q), seed=0,
                                   budget=pencil.MarginBudget(restarts=1)),
            lambda: bilinear.nonsingularity_margin(
                q, bilinear.OptBudget(restarts=1), seed=0),
            lambda: [certify_mod.certify(T, small, seed=0)
                     for T in warm_tensors],
            lambda: experiments.als_fit(
                warm_tensors[0], 6, experiments.AlsBudget(
                    restarts=1, sweeps=2, polish_iters=1), seed=0),
        ]

    def warm_up(self):
        for call in self.warm:
            call()

    def run_pass(self, deadline: float, fraction=1.0) -> PassResult:
        """Run the queries in order; ``fraction`` < 1 runs only a prefix.
        Queries not started by ``deadline`` are skipped and count as
        failed."""
        out = PassResult(inputs=list(self.inputs))
        count = max(1, round(len(self.queries) * fraction))
        for qi, (key, call, check) in enumerate(self.queries[:count]):
            if time.perf_counter() > deadline:
                out.skip(count - qi)
                break
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # the pass goes on; the query failed
                ms = (time.perf_counter() - t0) * 1000.0
                out.wall_s += ms / 1000.0
                out.add(key, "error", ms, "error",
                        verdict="error" if key.startswith("certify ") else None)
                out.fail(f"raised {type(exc).__name__}")
                continue
            ms = (time.perf_counter() - t0) * 1000.0
            out.wall_s += ms / 1000.0
            label, status, reason = check(result)
            kind = key.split()[0]
            verdict = result.kind if kind == "certify" else None
            out.add(key, label, ms, verdict or f"{kind}:{status}",
                    verdict=verdict)
            if status != "ok":
                out.fail(reason, wrong=status == "wrong")
        return out


# -- registry ------------------------------------------------------------

WORKLOADS = ("mc-square", "mc-pencil3", "reference")


def make(name: str, seed: int, seconds: float):
    """Sample counts scale with --seconds, from the rates measured at the
    seed commit on 2 cores: a mc-square pass takes about a quarter of the
    run, so its passes repeat.  A mc-pencil3 pass is one fixed set of
    samples, about the whole run at the median rate (20/s), as its verdict
    mix needs the samples; decided_frac counts all of them however long
    they take.  The reference list is fixed."""
    if name == "mc-square":
        return MonteCarlo([(3, 6, 3), (4, 12, 4)], threads=2,
                          samples=max(2, round(2.2 * seconds)), seed=seed)
    if name == "mc-pencil3":
        return MonteCarlo([(3, 5, 3)], threads=1,
                          samples=max(2, round(21 * seconds)), seed=seed,
                          chunk=50)
    if name == "reference":
        return Reference(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
