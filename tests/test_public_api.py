"""Public-API surface checks: everything advertised importable and in
__all__, docstrings on every public module."""

import importlib
import pkgutil

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.circuit",
    "repro.logic",
    "repro.bdd",
    "repro.faults",
    "repro.engines",
    "repro.xred",
    "repro.symbolic",
    "repro.baselines",
    "repro.circuits",
    "repro.sequences",
    "repro.experiments",
    "repro.analysis",
    "repro.atpg",
    "repro.diagnosis",
    "repro.runtime",
    "repro.runtime.fabric",
    "repro.obs",
    "repro.audit",
    "repro.service",
]


def test_all_exports_resolve():
    """Every name a package advertises in ``__all__`` exists: a stale
    entry for a deleted module or function fails here."""
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name}"


def test_version():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_module_has_a_docstring(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, package_name
    if hasattr(package, "__path__"):
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(
                f"{package_name}.{info.name}"
            )
            assert module.__doc__, module.__name__


def test_quickstart_from_docstring_runs():
    """The package docstring's quickstart must actually work."""
    from repro import (
        FaultSet,
        collapse_faults,
        compile_circuit,
        eliminate_x_redundant,
        fault_simulate_3v,
        hybrid_fault_simulate,
        random_sequence_for,
    )
    from repro.circuits import s27

    circuit = s27()
    compiled = compile_circuit(circuit)
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    sequence = random_sequence_for(compiled, 30, seed=1)
    eliminate_x_redundant(compiled, sequence, fault_set)
    fault_simulate_3v(compiled, sequence, fault_set)
    hybrid_fault_simulate(compiled, sequence, fault_set, strategy="MOT")
    counts = fault_set.counts()
    assert counts["total"] == 32
    assert counts["detected"] > 0
