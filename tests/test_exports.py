"""Every name an export list promises exists on its module. The package
itself exports nothing: the API is its submodules.

The benchmark (`bench/`) reaches into the package by name: its tracer
wraps the functions and methods that `bench/tracing.py::TARGETS` lists,
its report records `kernels.BACKEND`, and its workloads pass `workers`
to `evaluate` and `--workers` to the commands. Those names are checked
here, so a rename fails a unit test and not only a traced bench run."""

import importlib
import importlib.util
import pkgutil

import pytest

import lexmrc
from lexmrc import evaluation, kernels
from lexmrc.cli import EXIT_OK, run
from lexmrc.scoring import MethodConfig

from conftest import DATA_DIR

MODULES = [f"lexmrc.{m.name}" for m in pkgutil.iter_modules(lexmrc.__path__)]
BENCH_TRACING = DATA_DIR.parent.parent / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_nothing():
    """The package's only public attributes are the submodules imported
    so far."""
    assert not hasattr(lexmrc, "__all__")
    public = {n for n in vars(lexmrc) if not n.startswith("_")}
    assert public <= {m.name for m in pkgutil.iter_modules(lexmrc.__path__)}


def test_every_bench_trace_target_resolves():
    """Each (module, attribute, method) the tracer wraps exists; a method
    must be defined on the class itself, which is where the tracer
    replaces it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for span, (module_name, attr, method) in tracing.TARGETS.items():
        owner = getattr(importlib.import_module(module_name), attr, None)
        found = callable(owner) if method is None else callable(vars(owner).get(method))
        if not found:
            missing.append(span)
    assert missing == []


def test_bench_reads_the_kernel_backend():
    assert isinstance(kernels.BACKEND, str)


def test_workers_one_is_accepted(fixture_dataset, tmp_path):
    cfg = MethodConfig(method="sw")
    assert (evaluation.evaluate(fixture_dataset, "dev", cfg, workers=1)
            == evaluation.evaluate(fixture_dataset, "dev", cfg))
    dataset = ["--dataset", str(DATA_DIR / "reasoning_fixtures.json"), "--split", "dev"]
    compare = ["--baseline", "sw", "--candidate", "sw_d", "--facet", "grade"]
    for argv in (["evaluate", *dataset, "--method", "sw"], ["compare", *dataset, *compare]):
        plain, one = tmp_path / "plain.txt", tmp_path / "one.txt"
        assert run([*argv, "--out", str(plain)]) == EXIT_OK
        assert run([*argv, "--workers", "1", "--out", str(one)]) == EXIT_OK
        assert one.read_bytes() == plain.read_bytes()
