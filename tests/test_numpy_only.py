"""rankatlas imports and certifies on numpy alone; SciPy is a test
dependency only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One planted tensor per slice count of the rank-drop search's one batched
# solver: 3x6x3 (k = 1) on 40 random lines, 3x5x3 (k = 2) and 4x10x4
# (k = 3) on the whole pencil, 4x11x4 (k = 2) on eight 3-dim slices.  A
# Gaussian 3x5x3 tensor is decided by the certified root count.
# The bilinear-map margin is the pencil margin, and runs on numpy alone too,
# as does the ALS fit.
SCRIPT = """
import sys
import numpy as np
import rankatlas
import rankatlas.cli
from rankatlas.bilinear import hypercomplex_mult, nonsingularity_margin
from rankatlas.certify import certify
from rankatlas.experiments import AlsBudget, als_fit
from rankatlas.pencil import Tensor3

rng = np.random.default_rng(0)
planted = []
for n, p, m in ((3, 6, 3), (3, 5, 3), (4, 11, 4), (4, 10, 4)):
    A, B, C = (rng.standard_normal(s) for s in ((n, p), (p, p), (m, p)))
    planted.append(Tensor3(np.einsum("ij,aj,kj->kia", A, B, C)))
    print(certify(planted[-1], seed=0).kind)
T = Tensor3(np.random.default_rng(14).standard_normal((3, 3, 5)))
print(certify(T, seed=0).kind)
print(round(nonsingularity_margin(hypercomplex_mult(4)), 8))
print(als_fit(planted[0], 6, AlsBudget(restarts=1), seed=0) < 1e-6)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_certify_paths_never_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["RankP", "RankP", "RankP", "RankP",
                                       "RankExceedsP", "1.0", "True", "[]"]


def test_import_leaves_the_thread_pool_unloaded():
    # run_experiment runs every sample in the calling thread, whatever
    # ExperimentConfig.threads says, so no pool is imported or started
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    script = ("import sys, threading, rankatlas, rankatlas.cli; "
              "from rankatlas import ExperimentConfig, run_experiment; "
              "run_experiment(ExperimentConfig(n=3, p=6, m=3, samples=2, "
              "threads=2)); "
              "print('concurrent.futures' in sys.modules); "
              "print(threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]
