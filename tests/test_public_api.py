"""Public-API surface tests: everything advertised in __all__ resolves."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.tendermint",
    "repro.cosmos",
    "repro.ibc",
    "repro.relayer",
    "repro.framework",
    "repro.analysis",
    "repro.parallel",
    "repro.trace",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), package
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 20


def test_public_classes_have_docstrings():
    import repro.framework as fw
    import repro.relayer as rl
    import repro.ibc as ibc

    for obj in (
        fw.ExperimentConfig,
        fw.Testbed,
        fw.WorkloadDriver,
        fw.CrossChainEventProcessor,
        rl.Relayer,
        rl.DirectionWorker,
        rl.Supervisor,
        rl.ChainEndpoint,
        rl.Fleet,
        rl.FleetConfig,
        rl.FleetMember,
        ibc.IbcModule,
        ibc.TransferApp,
        ibc.TendermintLightClient,
    ):
        assert obj.__doc__, obj


def test_version_exposed():
    import repro

    assert repro.__version__ == "2.0.0"


def test_top_level_stable_surface():
    """The documented top-level entrypoints live in repro.__all__."""
    import repro

    for name in (
        "ExperimentConfig",
        "ExperimentReport",
        "FaultSchedule",
        "FleetConfig",
        "TopologySpec",
        "TraceReport",
        "WorkloadSpec",
        "run_experiment",
        "sweep",
    ):
        assert name in repro.__all__, name
        assert hasattr(repro, name), name
    # The wire-format error type is part of the surface too.
    assert issubclass(repro.SchemaError, repro.ReproError)


def test_experiment_runner_shim_is_gone():
    """PR 4's deprecation shim completed its cycle: the two-step spelling
    was removed in 1.2.0 in favour of ``run_experiment()``."""
    import repro.framework as fw

    assert not hasattr(fw, "ExperimentRunner")
    assert "ExperimentRunner" not in fw.__all__


def test_quickstart_snippet_from_readme_runs():
    """The README's quickstart snippet must stay executable (tiny config)."""
    import repro

    report = repro.run_experiment(
        repro.ExperimentConfig(input_rate=20, measurement_blocks=3, seed=47)
    )
    assert "Cross-chain experiment report" in report.summary()
