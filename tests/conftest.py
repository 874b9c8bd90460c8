"""Shared scenario fixtures.

Bundles are generated once per session; the generator is deterministic so
every test sees identical files. Loading a bundle through the full
metadata/points/trends path is part of what the integration tests cover,
so the loader here is the same sequence the CLI runs. The ground-truth
file a bundle carries is read only by tests, so its reader lives here.
"""

import configparser
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from hvacdisagg import ingest, synth
from hvacdisagg.building import EquipmentGraph, PointBinding, bind_points, load_metadata
from hvacdisagg.calibrate import _fit
from hvacdisagg.config import load_run_config
from hvacdisagg.energy import BuildingData, assemble
from hvacdisagg.ingest import parse_timestamp, read_points, read_reference_year, read_trends
from hvacdisagg.timeseries import _paired, mpe_of, percent_errors, rmspe_of


@dataclass(frozen=True)
class InjectionRecord:
    fault: str
    equipment: str
    start: int
    end: int
    magnitude: float
    waste_mmbtu: float


@dataclass(frozen=True)
class GroundTruth:
    seed: int
    rng: str
    start: int
    interval_s: int
    duration_days: int
    n_ahus: int
    n_vavs_per_ahu: int
    coefficients: dict
    alpha: float
    beta: float
    n_rows: int
    n_cooling_rows: int
    n_heating_rows: int
    injections: tuple


def load_ground_truth(path: str) -> GroundTruth:
    """A bundle's ground_truth.ini as the generator wrote it."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh, source=path)
    injections = []
    for section in cp.sections():
        if not section.startswith("injection "):
            continue
        s = cp[section]
        injections.append(InjectionRecord(
            fault=s["fault"], equipment=s["equipment"],
            start=parse_timestamp(s["start"]), end=parse_timestamp(s["end"]),
            magnitude=s.getfloat("magnitude"),
            waste_mmbtu=s.getfloat("waste_mmbtu")))
    return GroundTruth(
        seed=cp["generator"].getint("seed"),
        rng=cp["generator"]["rng"],
        start=parse_timestamp(cp["scenario"]["start"]),
        interval_s=cp["scenario"].getint("interval_s"),
        duration_days=cp["scenario"].getint("duration_days"),
        n_ahus=cp["scenario"].getint("n_ahus"),
        n_vavs_per_ahu=cp["scenario"].getint("n_vavs_per_ahu"),
        coefficients={f"c{i}": cp["coefficients"].getfloat(f"c{i}") for i in range(1, 9)},
        alpha=cp["economizer split"].getfloat("alpha"),
        beta=cp["economizer split"].getfloat("beta"),
        n_rows=cp["rows"].getint("n_rows"),
        n_cooling_rows=cp["rows"].getint("n_cooling_rows"),
        n_heating_rows=cp["rows"].getint("n_heating_rows"),
        injections=tuple(injections),
    )


@dataclass
class LoadedBundle:
    bundle: synth.ScenarioBundle
    truth: GroundTruth
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
        truth=load_ground_truth(bundle.ground_truth_path),
        graph=graph,
        binding=binding,
        series=series,
        data=data,
        reference_oat=read_reference_year(bundle.reference_year_path),
    )


def rmspe(measured, reference, eps: float = 1e-9) -> float:
    """Root mean square percentage error over the complete rows of two whole
    series: detection's percent_errors, then rmspe_of."""
    m, r = _paired(measured, reference, "rmspe")
    return rmspe_of(percent_errors(m, r, eps)[1], len(r), eps)


def mpe(measured, reference, eps: float = 1e-9) -> float:
    """Signed mean percentage error over the complete rows of two whole
    series: detection's percent_errors, then mpe_of."""
    m, r = _paired(measured, reference, "mpe")
    return mpe_of(percent_errors(m, r, eps)[1], len(r), eps)


def fit_sub(name, data):
    """One SUBMODELS entry fitted on every row of data, the way fit_model
    fits its train window."""
    return _fit(name, data, data.powers())


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


# floats whose repr a CSV writer must keep exactly
EXTREME_FLOATS = (-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308)


def block_edge_lengths(width: int) -> tuple:
    """Row counts around the numeric CSV writer's block in a file width
    columns wide."""
    rows = ingest._block_rows(width)
    return 0, rows - 1, rows, rows + 1, 3 * rows + 17


def extreme_column(n: int, rng) -> np.ndarray:
    """n normal draws with EXTREME_FLOATS cycled through every 7th row."""
    values = rng.normal(0.0, 1e3, n)
    rows = np.arange(0, n, 7)
    values[rows] = np.resize(EXTREME_FLOATS, len(rows))
    return values


def traced_peak_bytes(call) -> int:
    """Peak bytes that call() holds at once above what was allocated before
    it, as tracemalloc sees Python objects and numpy buffers."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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
