"""The benchmark under perfbench/ drives the library through names it looks
up at run time: the module attributes its tracing shims replace and the
budget and config constructors its warm-up calls.  These tests fail when a
change to src/ removes or renames one of them."""

import importlib.util
import sys
from pathlib import Path

import rankatlas.cli  # noqa: F401  (shimmed; the package does not import it)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracing_shims_install_and_uninstall():
    tracing = _load("tracing")
    certify_mod = sys.modules["rankatlas.certify"]
    originals = (certify_mod.certify, certify_mod.rank_drop_search,
                 certify_mod.contract_pencil)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert certify_mod.certify is not originals[0]
    finally:
        tracer.uninstall()
    assert (certify_mod.certify, certify_mod.rank_drop_search,
            certify_mod.contract_pencil) == originals


def test_warm_ups_run_traced():
    # Reference's warm-up builds CertifyBudget with all four keywords,
    # MarginBudget, OptBudget and AlsBudget; MonteCarlo's builds
    # ExperimentConfig with threads
    tracing, workloads = _load("tracing"), _load("workloads")
    reference = workloads.Reference(1)
    monte_carlo = workloads.MonteCarlo([(3, 6, 3)], threads=2, samples=1,
                                       seed=1)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        reference.warm_up()
        monte_carlo.warm_up()
    finally:
        tracer.uninstall()
    # one certify per planted shape, and one sample, through shimmed names
    assert tracer.calls()["certify.certify"] == 5
    assert tracer.calls()["experiments.run_experiment"] == 1
