"""Least-squares calibration of the disaggregation coefficients.

Three small linear models share one fitting core: the VAV-side cooling
balance (c1, c2, c3), the AHU-side cooling balance (c4, c5), and the
heating balance (c6, c7, c8).  Each is ordinary least squares with an
intercept, solved through the normal equations.  The problems are tiny
(at most three coefficients), so the Gram matrix route is both faster
and easier to diagnose than a general factorization.

The SUBMODELS table says, for each model, its coefficients, which
`Powers` sum each feature coefficient scales, its meter and its mode
rows. Fitting, scoring, the model file and the CLI's `estimate` all read
it; fitting, scoring and `estimate` take `Powers` once per window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .energy import DEFAULT_CONSTANTS, PhysicalConstants, Powers
from .errors import ConfigError, FitError, RankDeficiencyError, _finite, _Ini
from .ingest import format_timestamp, parse_timestamp
from .timeseries import rmse

# Fewest window rows we will fit on: one day of 15-minute samples.
MIN_FIT_ROWS = 96

# Relative eigenvalue cutoff for calling the scaled Gram matrix singular.
RANK_TOL = 1e-10

MODEL_FORMAT = 1

# Share of the frame's rows, from the start, that fit_model trains on.
DEFAULT_SPLIT_FRACTION = 0.7


@dataclass(frozen=True)
class SubModelSpec:
    """What one meter regression fits: coefficients, intercept last; the
    Powers sum each feature coefficient scales, in the same order; the
    BuildingData meter it predicts; and the Powers mode-row mask it is
    restricted to, or None for every row."""

    coefficients: tuple[str, ...]
    features: tuple[str, ...]
    meter: str
    rows: str | None

    def mode_rows(self, powers: Powers) -> np.ndarray | bool:
        """The rows this sub-model is fitted and scored on: its mode-row
        mask, or True for every row."""
        return True if self.rows is None else getattr(powers, self.rows)


# "c7" (reheat) is only fitted when the building has reheat valves and a
# hot water temperature, that is when Powers.sum_vav_heating is not None.
SUBMODELS = {
    "cooling_vav": SubModelSpec(("c1", "c2", "c3"), ("sum_vav_cooling", "sum_economizer"),
                                "cooling_meter", None),
    "cooling_ahu": SubModelSpec(("c4", "c5"), ("sum_ahu_cooling",),
                                "cooling_meter", "cooling_rows"),
    "heating": SubModelSpec(("c6", "c7", "c8"), ("sum_ahu_heating", "sum_vav_heating"),
                            "heating_meter", "heating_rows"),
}

COEFFICIENT_NAMES = tuple(c for spec in SUBMODELS.values() for c in spec.coefficients)

# Coefficients that are physically gains and should come out positive.
_SIGN_CHECKED = {"c1", "c2", "c4", "c6", "c7"}


def fit_linear(features: np.ndarray, target: np.ndarray,
               column_names: tuple[str, ...] | None = None) -> np.ndarray:
    """Least squares fit of target ~ features + intercept.

    features is (n, p); returns p+1 coefficients with the intercept last.
    p may be zero, in which case the fit is just the target mean.  Raises
    RankDeficiencyError naming the offending column when the scaled Gram
    matrix is singular to within RANK_TOL.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(target, dtype=float)
    if x.ndim != 2:
        raise FitError("feature matrix must be 2-d")
    n, p = x.shape
    if y.shape != (n,):
        raise FitError("feature and target row counts differ")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise FitError("fit inputs contain gaps or non-finite values; drop incomplete rows first")
    if n < p + 2:
        raise FitError(f"need at least {p + 2} rows to fit {p + 1} coefficients, got {n}")
    if column_names is None:
        column_names = tuple(f"x{i + 1}" for i in range(p))

    design = np.hstack([x, np.ones((n, 1))])
    names = tuple(column_names) + ("intercept",)

    # Scale columns to unit RMS so the rank test is dimensionless.
    scale = np.sqrt(np.mean(design * design, axis=0))
    scale[scale == 0.0] = 1.0
    scaled = design / scale

    gram = scaled.T @ scaled
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] <= RANK_TOL * eigvals[-1]:
        # The null eigenvector's dominant component points at the culprit.
        culprit = int(np.argmax(np.abs(eigvecs[:, 0])))
        raise RankDeficiencyError(
            f"features are collinear or constant: column '{names[culprit]}' "
            "adds no independent information", column=names[culprit])

    # Forward then back substitution through the Cholesky factor. Each step
    # is one dot product summed in LAPACK's order (row-wise forward, then
    # column-wise from the last unknown back), so on FMA BLAS builds the
    # result matches LAPACK's triangular solve (dtrtrs) bit for bit.
    chol = np.linalg.cholesky(gram)
    rhs = scaled.T @ y
    half = np.zeros(p + 1)
    for i in range(p + 1):
        half[i] = (rhs[i] - chol[i, :i] @ half[:i]) / chol[i, i]
    beta = np.zeros(p + 1)
    for i in reversed(range(p + 1)):
        beta[i] = (np.concatenate(([half[i]], beta[:i:-1]))
                   @ np.concatenate(([1.0], -chol[:i:-1, i]))) / chol[i, i]
    return beta / scale


@dataclass(frozen=True)
class SubModelFit:
    """One fitted sub-model plus its training diagnostics."""

    name: str
    coefficient_names: tuple[str, ...]
    coefficients: tuple[float, ...]
    n_train: int
    train_rmse: float
    baseline_train_rmse: float
    train_target_mean: float
    warnings: tuple[str, ...] = ()
    n_test: int | None = None
    test_rmse: float | None = None
    baseline_test_rmse: float | None = None
    improvement_pct: float | None = None

    def coefficient(self, name: str) -> float:
        return self.coefficients[self.coefficient_names.index(name)]


def _fit_submodel(name: str, columns: list[tuple[str, np.ndarray]],
                  target: np.ndarray, mask: np.ndarray | bool = True) -> SubModelFit:
    """Shared drop/fit/diagnose path for the three balance fits."""
    keep = mask & np.isfinite(target)
    for _, col in columns:
        keep &= np.isfinite(col)
    n = int(keep.sum())
    if n < MIN_FIT_ROWS:
        raise FitError(
            f"{name}: insufficient overlapping samples ({n} rows, need {MIN_FIT_ROWS})")

    y = target[keep]
    warnings: list[str] = []
    active: list[tuple[str, np.ndarray]] = []
    dropped: list[str] = []
    for cname, col in columns:
        if np.all(col[keep] == 0.0):
            dropped.append(cname)
            warnings.append(f"{name}: feature {cname} is identically zero, coefficient set to 0")
        else:
            active.append((cname, col[keep]))

    if active:
        x = np.column_stack([col for _, col in active])
        beta = fit_linear(x, y, tuple(cname for cname, _ in active))
    else:
        beta = np.array([float(np.mean(y))])

    by_name = dict(zip([cname for cname, _ in active], beta[:-1]))
    intercept = float(beta[-1])
    coeff_names = tuple(cname for cname, _ in columns) + (SUBMODELS[name].coefficients[-1],)
    coeffs = tuple(float(by_name.get(cname, 0.0)) for cname, _ in columns) + (intercept,)

    for cname, value in zip(coeff_names[:-1], coeffs[:-1]):
        if cname in _SIGN_CHECKED and value < 0.0 and cname not in dropped:
            warnings.append(
                f"{name}: coefficient {cname} fitted negative ({value:.6g}); "
                "check sensor mapping and mode filtering")

    if active:
        pred = x @ beta[:-1] + intercept
    else:
        pred = np.full(n, intercept)
    mean = float(np.mean(y))
    return SubModelFit(
        name=name,
        coefficient_names=coeff_names,
        coefficients=coeffs,
        n_train=n,
        train_rmse=rmse(pred, y),
        baseline_train_rmse=rmse(np.full(n, mean), y),
        train_target_mean=mean,
        warnings=tuple(warnings),
    )


def _fit(name: str, data, powers: Powers) -> SubModelFit:
    """Fit one SUBMODELS entry on every complete row of data in its mode.

    The VAV-side cooling balance holds in either plant mode, so it uses
    every row. Coil power as flow times mixed-minus-supply only measures
    one plant, so the AHU cooling and the heating balances keep the rows
    where every AHU is in their mode or idle. A feature whose sum is None
    (reheat, in a building without it) is left out of the fit.
    """
    spec = SUBMODELS[name]
    mask = spec.mode_rows(powers)
    if not np.any(mask):
        mode = spec.rows.removesuffix("_rows")
        raise FitError(f"{name}: insufficient samples (no {mode}-mode rows in window)")
    columns = [(cname, getattr(powers, feature))
               for cname, feature in zip(spec.coefficients, spec.features)
               if getattr(powers, feature) is not None]
    return _fit_submodel(name, columns, getattr(data, spec.meter), mask)


@dataclass(frozen=True)
class CalibratedModel:
    """Complete coefficient set with provenance-free fit diagnostics."""

    coefficients: dict[str, float]
    constants: PhysicalConstants
    interval_s: int
    train_window: tuple[int, int]
    test_window: tuple[int, int] | None
    submodels: dict[str, SubModelFit]
    reheat_fitted: bool
    warnings: tuple[str, ...] = field(default=())

    def __getitem__(self, name: str) -> float:
        return self.coefficients[name]


def _collect(submodels: dict[str, SubModelFit]) -> dict[str, float]:
    """The full coefficient set; anything a sub-model did not fit stays zero."""
    coeffs = dict.fromkeys(COEFFICIENT_NAMES, 0.0)
    for sub in submodels.values():
        for cname in sub.coefficient_names:
            coeffs[cname] = sub.coefficient(cname)
    return coeffs


def fit_model(data, split_fraction: float = DEFAULT_SPLIT_FRACTION,
              constants: PhysicalConstants = DEFAULT_CONSTANTS) -> CalibratedModel:
    """Fit all sub-models on a chronological head split, evaluate on the tail."""
    if not 0.0 < split_fraction <= 1.0:
        raise ConfigError(f"split fraction must be in (0, 1], got {split_fraction}")
    n_train = int(round(data.n_rows * split_fraction))
    n_train = max(1, min(data.n_rows, n_train))
    split_ts = data.start + n_train * data.interval_s
    train_window = (data.start, split_ts)
    test_window = (split_ts, data.end) if split_ts < data.end else None

    train = data.window(*train_window)
    powers = train.powers(constants)
    submodels = {name: _fit(name, train, powers) for name in SUBMODELS}

    model = CalibratedModel(
        coefficients=_collect(submodels),
        constants=constants,
        interval_s=data.interval_s,
        train_window=train_window,
        test_window=test_window,
        submodels=submodels,
        reheat_fitted="c7" in submodels["heating"].coefficient_names,
        warnings=tuple(w for sub in submodels.values() for w in sub.warnings),
    )
    if test_window is not None:
        model = evaluate(model, data.window(*test_window))
    return model


def predict_cooling_vav(model: CalibratedModel, powers: Powers) -> np.ndarray:
    return (model["c1"] * powers.sum_vav_cooling
            + model["c2"] * powers.sum_economizer + model["c3"])


def predict_cooling_ahu(model: CalibratedModel, powers: Powers) -> np.ndarray:
    return model["c4"] * powers.sum_ahu_cooling + model["c5"]


def predict_heating(model: CalibratedModel, powers: Powers) -> np.ndarray:
    # The intercept goes in before reheat: float addition is not associative,
    # and this order is the one every written heating comparison holds.
    pred = model["c6"] * powers.sum_ahu_heating + model["c8"]
    if powers.sum_vav_heating is not None:
        pred = pred + model["c7"] * powers.sum_vav_heating
    return pred


def predictions(model: CalibratedModel, powers: Powers) -> dict[str, np.ndarray]:
    """Each sub-model's prediction by name, in SUBMODELS order. The predict
    functions are module globals looked up on every call, so a wrapper
    installed over one of them sees it."""
    return {"cooling_vav": predict_cooling_vav(model, powers),
            "cooling_ahu": predict_cooling_ahu(model, powers),
            "heating": predict_heating(model, powers)}


def _evaluate_sub(sub: SubModelFit, pred: np.ndarray, target: np.ndarray,
                  mask: np.ndarray | bool = True) -> SubModelFit:
    keep = mask & np.isfinite(target) & np.isfinite(pred)
    n = int(keep.sum())
    if n == 0:
        return sub
    y = target[keep]
    test_rmse = rmse(pred[keep], y)
    baseline = rmse(np.full(n, sub.train_target_mean), y)
    if baseline > 1e-12 * max(1.0, abs(sub.train_target_mean)):
        improvement = 100.0 * (1.0 - test_rmse / baseline)
    else:
        # Constant target: the mean is already perfect, no improvement defined.
        improvement = None
    return dataclasses.replace(
        sub, n_test=n, test_rmse=test_rmse,
        baseline_test_rmse=baseline, improvement_pct=improvement)


def evaluate(model: CalibratedModel, data) -> CalibratedModel:
    """Score each sub-model on every row of data against the train-mean
    baseline; data is the held-out frame, usually a window of the fitted one.

    Returns a new model with test diagnostics filled in and test_window set
    to data's span.
    """
    powers = data.powers(model.constants)
    subs = {name: _evaluate_sub(model.submodels[name], pred,
                                getattr(data, SUBMODELS[name].meter),
                                SUBMODELS[name].mode_rows(powers))
            for name, pred in predictions(model, powers).items()}
    return dataclasses.replace(model, submodels=subs, test_window=(data.start, data.end))


# a sub-model's diagnostics in model.ini: the train scores always, the test
# scores all or none
_TRAIN_KEYS = ("n_train", "train_rmse", "baseline_train_rmse", "train_target_mean")
_TEST_KEYS = ("n_test", "test_rmse", "baseline_test_rmse", "improvement_pct")


def _format_value(value: int | float | None) -> str:
    """A number as model.ini holds it: an int as it is, a float to 12
    significant digits, None as n/a."""
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.12g}"


def save_model(model: CalibratedModel, path: str) -> None:
    meta = {
        "format": str(MODEL_FORMAT),
        **{f.name: _format_value(getattr(model.constants, f.name))
           for f in dataclasses.fields(PhysicalConstants)},
        "interval_s": str(model.interval_s),
        "train_start": format_timestamp(model.train_window[0]),
        "train_end": format_timestamp(model.train_window[1]),
        "reheat_fitted": str(model.reheat_fitted).lower(),
    }
    if model.test_window is not None:
        meta["test_start"] = format_timestamp(model.test_window[0])
        meta["test_end"] = format_timestamp(model.test_window[1])
    sections = {"model": meta,
                "coefficients": {name: _format_value(model.coefficients[name])
                                 for name in COEFFICIENT_NAMES}}
    for name, sub in model.submodels.items():
        keys = _TRAIN_KEYS + (_TEST_KEYS if sub.n_test is not None else ())
        diagnostics = sections[f"diagnostics {name}"] = {
            key: _format_value(getattr(sub, key)) for key in keys}
        if sub.warnings:
            diagnostics["warnings"] = " ; ".join(sub.warnings)
    _Ini.write(path, sections)


def _read_sub(ini: _Ini, name: str, coefficient_names: tuple[str, ...],
              coefficients: tuple[float, ...]) -> SubModelFit:
    section = f"diagnostics {name}"
    tested = any(ini.has(section, key) for key in _TEST_KEYS)
    scores = ini.fields(SubModelFit, section, _TRAIN_KEYS + (_TEST_KEYS if tested else ()),
                        improvement_pct=lambda text: None if text == "n/a" else _finite(text))
    warnings = ini.get(section, "warnings", fallback="").split(" ; ")
    return SubModelFit(name=name, coefficient_names=coefficient_names,
                       coefficients=coefficients,
                       warnings=tuple(w.strip() for w in warnings if w.strip()), **scores)


def load_model(path: str) -> CalibratedModel:
    """Read a file save_model wrote. Every key but a sub-model's warnings is
    required, the test window and test scores as all-or-none groups; a
    missing, unreadable or unknown part is a ConfigError naming path and,
    where it has them, the section and key."""
    ini = _Ini(path, ConfigError)
    model_format = ini.get("model", "format", int)
    if model_format != MODEL_FORMAT:
        raise ini.refused("model", "format", f"unsupported model format {model_format}")
    for section in ini.sections():
        name = section.removeprefix("diagnostics ")
        if name != section and name not in SUBMODELS:
            raise ini.refused(section, None, f"unknown diagnostics section '{name}'")

    coefficients = {name: ini.get("coefficients", name, float) for name in COEFFICIENT_NAMES}
    constants = ini.build(PhysicalConstants, "model")
    train_window = (ini.get("model", "train_start", parse_timestamp),
                    ini.get("model", "train_end", parse_timestamp))
    test_window = None
    if ini.has("model", "test_start") or ini.has("model", "test_end"):
        test_window = (ini.get("model", "test_start", parse_timestamp),
                       ini.get("model", "test_end", parse_timestamp))
    reheat_fitted = ini.get("model", "reheat_fitted", bool)

    submodels: dict[str, SubModelFit] = {}
    for name, spec in SUBMODELS.items():
        names = tuple(c for c in spec.coefficients if reheat_fitted or c != "c7")
        submodels[name] = _read_sub(ini, name, names, tuple(coefficients[c] for c in names))

    interval_s = ini.get("model", "interval_s", int)
    warnings = tuple(w for sub in submodels.values() for w in sub.warnings)
    return CalibratedModel(
        coefficients=coefficients,
        constants=constants,
        interval_s=interval_s,
        train_window=train_window,
        test_window=test_window,
        submodels=submodels,
        reheat_fitted=reheat_fitted,
        warnings=warnings,
    )
