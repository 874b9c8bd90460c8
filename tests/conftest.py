"""Shared scenario fixtures.

Bundles are generated once per session; the generator is deterministic so
every test sees identical files. Loading a bundle through the full
metadata/points/trends path is part of what the integration tests cover,
so the loader here is the same sequence the CLI runs.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from hvacdisagg import ingest, synth
from hvacdisagg.building import EquipmentGraph, PointBinding, bind_points, load_metadata
from hvacdisagg.config import load_run_config
from hvacdisagg.energy import BuildingData, assemble
from hvacdisagg.ingest import read_points, read_reference_year, read_trends


@dataclass
class LoadedBundle:
    bundle: synth.ScenarioBundle
    truth: synth.GroundTruth
    graph: EquipmentGraph
    binding: PointBinding
    series: dict
    data: BuildingData
    reference_oat: object


def load_bundle(bundle: synth.ScenarioBundle) -> LoadedBundle:
    graph = load_metadata(bundle.topology_path)
    points = read_points(bundle.points_path)
    binding = bind_points(graph, points)
    interval_s = load_run_config(bundle.run_config_path).interval_s
    series, _ = read_trends(bundle.trends_path, binding, interval_s)
    data = assemble(graph, binding, series)
    return LoadedBundle(
        bundle=bundle,
        truth=synth.load_ground_truth(bundle.ground_truth_path),
        graph=graph,
        binding=binding,
        series=series,
        data=data,
        reference_oat=read_reference_year(bundle.reference_year_path),
    )


@contextmanager
def counted_parses():
    """Collect the arguments of every real trend parse. read_trends_cached
    calls read_trends through the module global, so this sees what a
    benchmark tracer wrapping read_trends would."""
    calls = []
    real = ingest.read_trends

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "read_trends", counted)
        yield calls


def _generated(tmp_path_factory, name, spec):
    out = tmp_path_factory.mktemp(name)
    return synth.generate(spec, str(out))


@pytest.fixture(scope="session")
def recovery_bundle(tmp_path_factory):
    return _generated(tmp_path_factory, "recovery", synth.scenario_recovery())


@pytest.fixture(scope="session")
def mixed_bundle(tmp_path_factory):
    return _generated(tmp_path_factory, "mixed", synth.scenario_mixed_season())


@pytest.fixture(scope="session")
def faulted_bundle(tmp_path_factory):
    return _generated(tmp_path_factory, "faulted", synth.scenario_faulted())


@pytest.fixture(scope="session")
def healthy_bundle(tmp_path_factory):
    return _generated(tmp_path_factory, "healthy", synth.scenario_healthy_twin())


@pytest.fixture(scope="session")
def impact_bundle(tmp_path_factory):
    return _generated(tmp_path_factory, "impact", synth.scenario_impact())


@pytest.fixture(scope="session")
def recovery_loaded(recovery_bundle):
    return load_bundle(recovery_bundle)


@pytest.fixture(scope="session")
def mixed_loaded(mixed_bundle):
    return load_bundle(mixed_bundle)


@pytest.fixture(scope="session")
def faulted_loaded(faulted_bundle):
    return load_bundle(faulted_bundle)


@pytest.fixture(scope="session")
def healthy_loaded(healthy_bundle):
    return load_bundle(healthy_bundle)


@pytest.fixture(scope="session")
def impact_loaded(impact_bundle):
    return load_bundle(impact_bundle)
