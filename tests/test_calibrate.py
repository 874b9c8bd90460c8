"""Calibration tests.

The least-squares core is checked against an exact rational-arithmetic
solution of the normal equations, so any disagreement is a bug in the
solver rather than in the reference. The sub-model fits are checked by
constructing meters from known coefficients and recovering them.
"""

import configparser
from fractions import Fraction

import numpy as np
import pytest

from conftest import fit_sub
from hvacdisagg.building import AhuNode, EquipmentGraph, VavNode
from hvacdisagg.calibrate import (
    MIN_FIT_ROWS,
    CalibratedModel,
    _collect,
    _evaluate_sub,
    _fit_submodel,
    evaluate,
    fit_linear,
    fit_model,
    load_model,
    predict_cooling_ahu,
    predict_cooling_vav,
    predict_heating,
    save_model,
)
from hvacdisagg.energy import DEFAULT_CONSTANTS, AhuData, BuildingData, VavData
from hvacdisagg.errors import ConfigError, FitError, RankDeficiencyError

T0 = 1_767_571_200  # 2026-01-05T00:00:00Z, a Monday
GRID = 900

# Hand-checked line through (0,1), (1,3), (2,5): slope 2, intercept 1.
HAND_SLOPE = 2.0
HAND_INTERCEPT = 1.0


def brute_ols(x_rows, y):
    """Exact normal-equation solve in rational arithmetic.

    Independent of the library path: builds X'X and X'y from the float
    inputs as Fractions and runs Gaussian elimination with partial
    pivoting, so the reference solution carries no rounding error at all.
    """
    n = len(y)
    p = len(x_rows[0]) if x_rows else 0
    design = [[Fraction(v) for v in row] + [Fraction(1)] for row in x_rows]
    m = p + 1
    gram = [[sum(design[r][i] * design[r][j] for r in range(n)) for j in range(m)]
            for i in range(m)]
    rhs = [sum(design[r][i] * Fraction(y[r]) for r in range(n)) for i in range(m)]
    for col in range(m):
        pivot_row = max(range(col, m), key=lambda r: abs(gram[r][col]))
        gram[col], gram[pivot_row] = gram[pivot_row], gram[col]
        rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        for r in range(col + 1, m):
            f = gram[r][col] / gram[col][col]
            for c in range(col, m):
                gram[r][c] -= f * gram[col][c]
            rhs[r] -= f * rhs[col]
    beta = [Fraction(0)] * m
    for r in range(m - 1, -1, -1):
        acc = rhs[r] - sum(gram[r][c] * beta[c] for c in range(r + 1, m))
        beta[r] = acc / gram[r][r]
    return [float(b) for b in beta]


class TestFitLinear:
    def test_hand_line(self):
        beta = fit_linear(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]))
        assert beta[0] == pytest.approx(HAND_SLOPE, abs=1e-12)
        assert beta[1] == pytest.approx(HAND_INTERCEPT, abs=1e-12)

    def test_intercept_only_is_mean(self):
        y = np.array([2.0, 4.0, 9.0])
        beta = fit_linear(np.empty((3, 0)), y)
        assert beta.shape == (1,)
        assert beta[0] == pytest.approx(np.mean(y), rel=1e-12)

    def test_exact_plane_recovered(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 2))
        y = 1.1 * x[:, 0] + 0.9 * x[:, 1] + 0.05
        beta = fit_linear(x, y)
        np.testing.assert_allclose(beta, [1.1, 0.9, 0.05], rtol=1e-9, atol=1e-12)

    def test_matches_exact_normal_equations(self):
        rng = np.random.default_rng(123)
        for case in range(40):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(p + 2, 40))
            x = rng.normal(size=(n, p)) * rng.uniform(0.5, 20.0, size=p)
            y = rng.normal(size=n) * 3.0 + 1.0
            got = fit_linear(x, y)
            want = brute_ols(x.tolist(), y.tolist())
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9,
                                       err_msg=f"case {case}")

    def test_duplicate_column_rejected(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=30)
        x = np.column_stack([x1, 2.0 * x1])
        with pytest.raises(RankDeficiencyError) as err:
            fit_linear(x, rng.normal(size=30), ("flow", "flow_twice"))
        assert err.value.column in ("flow", "flow_twice")

    def test_zero_column_named(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([rng.normal(size=30), np.zeros(30)])
        with pytest.raises(RankDeficiencyError) as err:
            fit_linear(x, rng.normal(size=30), ("good", "dead"))
        assert err.value.column == "dead"

    def test_constant_column_collides_with_intercept(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.normal(size=30), np.full(30, 3.5)])
        with pytest.raises(RankDeficiencyError):
            fit_linear(x, rng.normal(size=30))

    def test_too_few_rows(self):
        with pytest.raises(FitError, match="need at least"):
            fit_linear(np.ones((2, 1)), np.ones(2))

    def test_gaps_rejected(self):
        x = np.array([[1.0], [np.nan], [3.0], [4.0]])
        with pytest.raises(FitError, match="gaps"):
            fit_linear(x, np.ones(4))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.array([[1.0], [bad], [3.0], [4.0]])
        with pytest.raises(FitError, match="non-finite"):
            fit_linear(x, np.ones(4))
        with pytest.raises(FitError, match="non-finite"):
            fit_linear(np.ones((4, 1)), x[:, 0])

    def test_residuals_orthogonal_to_features(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n, p = int(rng.integers(10, 200)), int(rng.integers(1, 4))
            x = rng.normal(size=(n, p)) * rng.uniform(0.1, 50.0, size=p)
            y = rng.normal(size=n) * 5.0
            beta = fit_linear(x, y)
            resid = y - (x @ beta[:-1] + beta[-1])
            for j in range(p):
                dot = abs(float(np.dot(x[:, j], resid)))
                bound = 1e-8 * max(1.0, float(np.linalg.norm(x[:, j]) * np.linalg.norm(y)))
                assert dot <= bound
            assert abs(float(np.sum(resid))) <= 1e-8 * max(1.0, float(np.linalg.norm(y)) * n**0.5)

    def test_refit_on_own_prediction_is_idempotent(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        beta = fit_linear(x, y)
        fitted = x @ beta[:-1] + beta[-1]
        again = fit_linear(x, fitted)
        np.testing.assert_allclose(again, beta, rtol=1e-9, atol=1e-12)


# ----------------------------------------------------------------------
# sub-model fixtures: one AHU, two VAVs, first half cooling, second half
# heating, everything smoothly varying so the fits are well conditioned


def _graph(reheat=True):
    vavs = (
        VavNode("V1", "A1", min_flow_cfm=100.0, zone_upper_limit_f=76.0),
        VavNode("V2", "A1", min_flow_cfm=100.0, zone_upper_limit_f=76.0),
    )
    return EquipmentGraph(
        building_id="B1", ahus=(AhuNode("A1"),), vavs=vavs,
        cooling_meter_point="clg", heating_meter_point="htg",
        hot_water_temp_point="hws" if reheat else None,
    )


def _building(n=400, seed=1, reheat=True):
    """Half cooling then half heating, meters left as zeros for the caller."""
    rng = np.random.default_rng(seed)
    half = n // 2
    t = np.arange(n)
    zone1 = 71.0 + 1.5 * np.sin(2 * np.pi * t / 96) + rng.normal(0, 0.2, n)
    zone2 = 72.5 + 1.0 * np.cos(2 * np.pi * t / 96) + rng.normal(0, 0.2, n)
    flow1 = 450.0 + 180.0 * np.sin(2 * np.pi * t / 96 + 0.3) + rng.normal(0, 10, n)
    flow2 = 600.0 + 150.0 * np.cos(2 * np.pi * t / 96 + 1.1) + rng.normal(0, 10, n)
    supply = 55.0 + 0.8 * np.sin(2 * np.pi * t / 48)
    mixed = np.where(t < half,
                     supply + 9.0 + 2.0 * np.sin(2 * np.pi * t / 60),
                     supply - 7.0 - 2.0 * np.cos(2 * np.pi * t / 60))
    returns = 71.8 + 0.5 * np.sin(2 * np.pi * t / 96 + 0.7)
    valve1 = np.where(t < half, 0.0, np.clip(0.4 + 0.35 * np.sin(2 * np.pi * t / 80), 0.0, 1.0))
    valve2 = np.where(t < half, 0.0, np.clip(0.5 + 0.3 * np.cos(2 * np.pi * t / 70), 0.0, 1.0))
    flow_sum = flow1 + flow2

    vavs = {
        "V1": VavData("V1", "A1", zone1, flow1, supply,
                      heating_valve=valve1 if reheat else None),
        "V2": VavData("V2", "A1", zone2, flow2, supply,
                      heating_valve=valve2 if reheat else None),
    }
    ahus = {
        "A1": AhuData("A1", supply, returns, flow_sum, mixed_temp=mixed,
                      mixed_temp_measured=mixed),
    }
    return BuildingData(
        graph=_graph(reheat), start=T0, interval_s=GRID, n_rows=n,
        cooling_meter=np.zeros(n), heating_meter=np.zeros(n),
        vavs=vavs, ahus=ahus,
        hot_water_temp=np.full(n, 140.0) if reheat else None,
    )


class TestCoolingVavFit:
    def test_recovers_known_coefficients(self):
        data = _building()
        data.cooling_meter = (1.1 * data.powers().sum_vav_cooling
                              + 0.9 * data.powers().sum_economizer + 0.05)
        fit = fit_sub("cooling_vav", data)
        assert fit.coefficient("c1") == pytest.approx(1.1, abs=1e-6)
        assert fit.coefficient("c2") == pytest.approx(0.9, abs=1e-6)
        assert fit.coefficients[-1] == pytest.approx(0.05, abs=1e-6)
        assert fit.n_train == data.n_rows
        assert fit.train_rmse <= 1e-8
        assert not fit.warnings

    def test_gap_rows_dropped_not_imputed(self):
        data = _building()
        data.vavs["V1"].zone_temp[10] = np.nan
        data.cooling_meter = (1.1 * np.nan_to_num(data.powers().sum_vav_cooling)
                              + 0.9 * data.powers().sum_economizer + 0.05)
        fit = fit_sub("cooling_vav", data)
        assert fit.n_train == data.n_rows - 1

    def test_window_restricts_rows(self):
        data = _building()
        data.cooling_meter = (1.1 * data.powers().sum_vav_cooling
                              + 0.9 * data.powers().sum_economizer + 0.05)
        fit = fit_sub("cooling_vav", data.window(T0, T0 + 100 * GRID))
        assert fit.n_train == 100

    def test_insufficient_rows(self):
        data = _building()
        with pytest.raises(FitError, match="insufficient overlapping samples"):
            fit_sub("cooling_vav", data.window(T0, T0 + (MIN_FIT_ROWS - 1) * GRID))

    def test_dead_building_degenerates_to_intercept(self):
        data = _building()
        for v in data.vavs.values():
            v.flow[:] = 0.0
        data.ahus["A1"].flow_sum[:] = 0.0
        data.cooling_meter = np.full(data.n_rows, 0.07)
        fit = fit_sub("cooling_vav", data)
        assert fit.coefficient("c1") == 0.0
        assert fit.coefficient("c2") == 0.0
        assert fit.coefficients[-1] == pytest.approx(0.07, rel=1e-12)
        assert any("c1" in w for w in fit.warnings)
        assert any("c2" in w for w in fit.warnings)

    def test_negative_coefficient_warns(self):
        data = _building()
        data.cooling_meter = (-0.8 * data.powers().sum_vav_cooling
                              + 0.9 * data.powers().sum_economizer + 0.05)
        fit = fit_sub("cooling_vav", data)
        assert any("c1" in w and "negative" in w for w in fit.warnings)


class TestCoolingAhuFit:
    def test_fits_only_cooling_rows(self):
        data = _building()
        rows = data.powers().cooling_rows
        meter = 1.15 * data.powers().sum_ahu_cooling + 0.03
        meter[~rows] = 99.0  # nonsense outside cooling mode must not matter
        data.cooling_meter = meter
        fit = fit_sub("cooling_ahu", data)
        assert fit.coefficient("c4") == pytest.approx(1.15, abs=1e-9)
        assert fit.coefficients[-1] == pytest.approx(0.03, abs=1e-9)
        assert fit.n_train == int(rows.sum())

    def test_all_heating_window_refused(self):
        data = _building()
        data.cooling_meter = 1.15 * data.powers().sum_ahu_cooling + 0.03
        heating_only = data.window(T0 + (data.n_rows // 2) * GRID, data.end)
        with pytest.raises(FitError, match="insufficient"):
            fit_sub("cooling_ahu", heating_only)


class TestHeatingFit:
    def test_recovers_with_reheat(self):
        data = _building()
        data.heating_meter = (1.2 * data.powers().sum_ahu_heating
                              + 0.8 * data.powers().sum_vav_heating + 0.01)
        fit = fit_sub("heating", data)
        assert fit.coefficient("c6") == pytest.approx(1.2, abs=1e-9)
        assert fit.coefficient("c7") == pytest.approx(0.8, abs=1e-9)
        assert fit.coefficients[-1] == pytest.approx(0.01, abs=1e-9)
        assert fit.n_train == int(data.powers().heating_rows.sum())

    def test_no_reheat_drops_to_two_coefficients(self):
        data = _building(reheat=False)
        data.heating_meter = 1.2 * data.powers().sum_ahu_heating + 0.01
        fit = fit_sub("heating", data)
        assert "c7" not in fit.coefficient_names
        assert fit.coefficient("c6") == pytest.approx(1.2, abs=1e-9)
        assert fit.coefficients[-1] == pytest.approx(0.01, abs=1e-9)


class TestFitModel:
    def _prepared(self, n=960):
        data = _building(n)
        # alternate mode in 48-row blocks so both windows of the split see both
        t = np.arange(n)
        block = (t // 48) % 2
        supply = data.ahus["A1"].supply_temp
        data.ahus["A1"].mixed_temp = np.where(
            block == 0,
            supply + 9.0 + 2.0 * np.sin(2 * np.pi * t / 60),
            supply - 7.0 - 2.0 * np.cos(2 * np.pi * t / 60))
        data.ahus["A1"].mixed_temp_measured = data.ahus["A1"].mixed_temp
        for key, v in data.vavs.items():
            v.heating_valve = np.where(
                block == 1, np.clip(0.4 + 0.3 * np.sin(2 * np.pi * t / 80
                                                       + (0.5 if key == "V2" else 0.0)),
                                    0.0, 1.0), 0.0)
        data.cooling_meter = (1.1 * data.powers().sum_vav_cooling
                              + 0.9 * data.powers().sum_economizer + 0.05)
        data.heating_meter = (1.2 * data.powers().sum_ahu_heating
                              + 0.8 * data.powers().sum_vav_heating + 0.01)
        return data

    @pytest.mark.parametrize("big", [np.inf, 1.7e308])
    def test_overflowing_row_is_dropped_like_a_gap(self, big):
        # a flow whose cooling power overflows to inf leaves its row out of
        # every fit and score, exactly as a gap in that flow does
        gap, huge = self._prepared(), self._prepared()
        for row in (100, 900):  # one training row, one test row
            gap.vavs["V1"].flow[row] = np.nan
            huge.vavs["V1"].flow[row] = big
        # the power sums overflow on those rows, which numpy warns about
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(huge.powers().sum_vav_cooling[[100, 900]]).all()
            assert fit_model(huge) == fit_model(gap)

    def test_split_is_chronological(self):
        data = self._prepared()
        model = fit_model(data, split_fraction=0.7)
        split = T0 + int(round(0.7 * data.n_rows)) * GRID
        assert model.train_window == (T0, split)
        assert model.test_window == (split, data.end)
        assert model.submodels["cooling_vav"].n_train == int(round(0.7 * data.n_rows))

    def test_coefficients_match_direct_window_fits(self):
        data = self._prepared()
        model = fit_model(data, split_fraction=0.7)
        direct = fit_sub("cooling_vav", data.window(*model.train_window))
        assert model["c1"] == direct.coefficient("c1")
        assert model["c2"] == direct.coefficient("c2")
        assert model["c3"] == direct.coefficients[-1]
        assert model["c1"] == pytest.approx(1.1, abs=1e-6)
        assert model["c6"] == pytest.approx(1.2, abs=1e-6)
        assert model["c7"] == pytest.approx(0.8, abs=1e-6)
        assert model["c8"] == pytest.approx(0.01, abs=1e-6)
        assert model.reheat_fitted

    def test_holdout_nearly_perfect_on_exact_data(self):
        data = self._prepared()
        model = fit_model(data)
        sub = model.submodels["cooling_vav"]
        assert sub.test_rmse <= 1e-8
        assert sub.baseline_test_rmse > 0.0
        assert sub.improvement_pct > 99.9
        heat = model.submodels["heating"]
        assert heat.test_rmse <= 1e-8
        assert heat.improvement_pct > 99.9

    def test_constant_target_improvement_undefined(self):
        data = self._prepared()
        data.cooling_meter = np.full(data.n_rows, 0.42)
        model = fit_model(data)
        sub = model.submodels["cooling_vav"]
        assert sub.improvement_pct is None
        assert sub.baseline_test_rmse <= 1e-12

    def test_bad_split_fraction(self):
        data = self._prepared()
        with pytest.raises(ConfigError, match="split fraction"):
            fit_model(data, split_fraction=1.5)


def masked_fit_model(data, split_fraction, constants=DEFAULT_CONSTANTS):
    """The masked path fit_model replaced: every sub-fit and every score
    runs on full-frame arrays, restricted by row_mask of its window and,
    for the AHU cooling and heating balances, by the mode rows."""
    n_train = max(1, min(data.n_rows, int(round(data.n_rows * split_fraction))))
    split = data.start + n_train * data.interval_s
    train = data.row_mask(data.start, split)
    powers = data.powers(constants)
    cooling, heating = powers.cooling_rows, powers.heating_rows
    heat_columns = [("c6", powers.sum_ahu_heating)]
    reheat = powers.sum_vav_heating
    if reheat is not None:
        heat_columns.append(("c7", reheat))
    subs = {
        "cooling_vav": _fit_submodel(
            "cooling_vav", [("c1", powers.sum_vav_cooling),
                            ("c2", powers.sum_economizer)],
            data.cooling_meter, train),
        "cooling_ahu": _fit_submodel(
            "cooling_ahu", [("c4", powers.sum_ahu_cooling)],
            data.cooling_meter, train & cooling),
        "heating": _fit_submodel("heating", heat_columns, data.heating_meter,
                                 train & heating),
    }
    model = CalibratedModel(
        coefficients=_collect(subs), constants=constants,
        interval_s=data.interval_s, train_window=(data.start, split),
        test_window=None, submodels=subs,
        reheat_fitted="c7" in subs["heating"].coefficient_names)
    if split >= data.end:
        return model
    test = data.row_mask(split, data.end)
    scored = {
        "cooling_vav": _evaluate_sub(subs["cooling_vav"], predict_cooling_vav(model, powers),
                                     data.cooling_meter, test),
        "cooling_ahu": _evaluate_sub(subs["cooling_ahu"], predict_cooling_ahu(model, powers),
                                     data.cooling_meter, test & cooling),
        "heating": _evaluate_sub(subs["heating"], predict_heating(model, powers),
                                 data.heating_meter, test & heating),
    }
    return CalibratedModel(
        coefficients=model.coefficients, constants=constants,
        interval_s=data.interval_s, train_window=model.train_window,
        test_window=(split, data.end), submodels=scored,
        reheat_fitted=model.reheat_fitted)


class TestWindowedFitMatchesMaskedPath:
    """fit_model cuts its train and test windows as views; the masked
    full-frame path must give the same numbers, bit for bit."""

    def _check(self, data, split_fraction):
        got = fit_model(data, split_fraction)
        want = masked_fit_model(data, split_fraction)
        assert got.coefficients == want.coefficients
        assert got.submodels == want.submodels
        assert got.train_window == want.train_window
        assert got.test_window == want.test_window
        assert got.reheat_fitted == want.reheat_fitted

    @pytest.mark.parametrize("split_fraction", [0.3, 0.7, 1.0])
    def test_same_fit_and_scores(self, split_fraction):
        self._check(TestFitModel()._prepared(), split_fraction)

    @pytest.mark.parametrize("split_fraction", [0.3, 0.7, 1.0])
    def test_same_fit_and_scores_with_held_out_gaps(self, split_fraction):
        data = TestFitModel()._prepared()
        rng = np.random.default_rng(17)
        half = data.n_rows // 2
        for values in (data.cooling_meter, data.heating_meter,
                       data.vavs["V1"].zone_temp, data.vavs["V2"].flow,
                       data.ahus["A1"].mixed_temp):
            values[half + rng.choice(data.n_rows - half, size=25, replace=False)] = np.nan
        self._check(data, split_fraction)
        sub = fit_model(data, split_fraction).submodels["cooling_vav"]
        held_out = data.n_rows - int(round(data.n_rows * split_fraction))
        assert sub.n_test is None if held_out == 0 else sub.n_test < held_out


class TestModelFile:
    @pytest.mark.parametrize("reheat", [True, False], ids=["reheat", "no-reheat"])
    def test_round_trip(self, tmp_path, reheat):
        data = TestFitModel()._prepared()
        if not reheat:
            for v in data.vavs.values():
                v.heating_valve = None
            data.heating_meter = 1.2 * data.powers().sum_ahu_heating + 0.01
        model = fit_model(data)
        assert model.reheat_fitted == reheat
        path = tmp_path / "model.ini"
        save_model(model, str(path))
        loaded = load_model(str(path))
        for name, value in model.coefficients.items():
            assert loaded[name] == pytest.approx(value, rel=1e-11), name
        assert loaded.train_window == model.train_window
        assert loaded.test_window == model.test_window
        assert loaded.interval_s == model.interval_s
        assert loaded.reheat_fitted == model.reheat_fitted
        assert loaded.constants == model.constants
        for key in model.submodels:
            got, want = loaded.submodels[key], model.submodels[key]
            assert got.n_train == want.n_train
            assert got.n_test == want.n_test
            assert got.train_rmse == pytest.approx(want.train_rmse, rel=1e-11)
            assert got.improvement_pct == pytest.approx(want.improvement_pct, rel=1e-11)
            assert got.coefficient_names == want.coefficient_names
            assert got.coefficients == pytest.approx(want.coefficients, rel=1e-11)

    def test_na_improvement_survives(self, tmp_path):
        data = TestFitModel()._prepared()
        data.cooling_meter = np.full(data.n_rows, 0.42)
        model = fit_model(data)
        path = tmp_path / "model.ini"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.submodels["cooling_vav"].improvement_pct is None
        assert "n/a" in path.read_text()

    def test_save_is_byte_stable(self, tmp_path):
        data = TestFitModel()._prepared()
        model = fit_model(data)
        a, b = tmp_path / "a.ini", tmp_path / "b.ini"
        save_model(model, str(a))
        save_model(model, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_predict_matches_after_reload(self, tmp_path):
        data = TestFitModel()._prepared()
        model = fit_model(data)
        path = tmp_path / "model.ini"
        save_model(model, str(path))
        loaded = load_model(str(path))
        np.testing.assert_allclose(
            predict_cooling_vav(loaded, data.powers(loaded.constants)),
            predict_cooling_vav(model, data.powers(model.constants)), rtol=1e-10)

    @pytest.mark.parametrize("damage", ["drop", "garble"])
    def test_missing_or_unreadable_key_refused(self, tmp_path, damage):
        path = tmp_path / "model.ini"
        save_model(fit_model(TestFitModel()._prepared()), str(path))
        saved = configparser.ConfigParser(interpolation=None)
        saved.read(path)
        keys = [(section, key) for section in saved.sections() for key in saved[section]
                if key != "warnings"]
        assert ("model", "test_end") in keys and ("diagnostics heating", "n_test") in keys
        for section, key in keys:
            cp = configparser.ConfigParser(interpolation=None)
            cp.read(path)
            if damage == "drop":
                cp.remove_option(section, key)
            else:
                cp[section][key] = "garbled"
            broken = tmp_path / "broken.ini"
            with open(broken, "w") as fh:
                cp.write(fh)
            with pytest.raises(ConfigError) as refused:
                load_model(str(broken))
            message = str(refused.value)
            assert message.startswith(f"{broken}: [{section}] {key}: "), message
            if damage == "drop":
                assert message == f"{broken}: [{section}] {key}: missing key"

    @pytest.mark.parametrize("damage, message", [
        (lambda cp: cp.set("model", "format", "99"), "unsupported model format 99"),
        (lambda cp: cp.add_section("diagnostics fan"), "unknown diagnostics section 'fan'"),
    ])
    def test_refusal_names_the_file(self, tmp_path, damage, message):
        path = tmp_path / "model.ini"
        save_model(fit_model(TestFitModel()._prepared()), str(path))
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(path)
        damage(cp)
        with open(path, "w") as fh:
            cp.write(fh)
        with pytest.raises(ConfigError) as refused:
            load_model(str(path))
        # the format is refused at its key, an unknown section as a whole
        where = "[model] format" if "format" in message else "[diagnostics fan]"
        assert str(refused.value) == f"{path}: {where}: {message}"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "model.ini"
        path.write_text("[not-a-model]\nx = 1\n")
        with pytest.raises(ConfigError) as refused:
            load_model(str(path))
        assert str(refused.value) == f"{path}: [model] format: missing section"


class TestEvaluate:
    def test_returns_new_model(self):
        data = TestFitModel()._prepared()
        model = fit_model(data, split_fraction=1.0)
        assert model.test_window is None
        scored = evaluate(model, data.window(T0, data.end))
        assert scored is not model
        assert scored.test_window == (T0, data.end)
        assert isinstance(scored, CalibratedModel)
        assert scored.submodels["cooling_vav"].n_test == data.n_rows
        assert model.submodels["cooling_vav"].n_test is None
