"""Feedforward surrogate that learns the solver's tau* mapping.

A small sigmoid-hidden, linear-output network is trained on solved
scenarios so that planning amounts to one forward pass instead of a
full cost-rate minimization.  Everything here is written out
explicitly: initialization, forward pass, backpropagation, and the two
descent modes (per-sample stochastic and full-batch).

Weights W[l] have shape (fan_out, fan_in), so a layer computes
sigmoid(W @ a + b).  Features are standardized by the stored input
scaler and targets by the output scaler; both are fit on the training
split and serialized with the model.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import SystemModel, as_levels
from .optimize import Dataset, system_fingerprint

MODEL_FORMAT_VERSION = 1
_DIVERGENCE_MSE = 1e12
_STREAM_INIT = 201
_STREAM_SHUFFLE = 202


class DivergenceError(RuntimeError):
    """Training lost its footing (non-finite or exploding loss)."""


class FeatureMode(str, Enum):
    U_ONLY = "u_only"
    U_PLUS_PARAMS = "u_plus_params"


class TrainMode(str, Enum):
    PER_SAMPLE_SGD = "per_sample_sgd"
    FULL_BATCH_GD = "full_batch_gd"


@dataclass(frozen=True)
class FeatureSpec:
    """Turns (system, state) into the network input vector.

    U_ONLY uses the dimensionless levels u_i / H_i.  U_PLUS_PARAMS
    appends every component's parameters and the shock rate, letting a
    single model serve a family of systems with the same layout.
    """

    mode: FeatureMode = FeatureMode.U_ONLY

    def feature_count(self, s: SystemModel) -> int:
        return s.n if self.mode is FeatureMode.U_ONLY else s.n + 8 * s.n + 1

    def build(self, s: SystemModel, u) -> np.ndarray:
        levels = as_levels(u, s.n)
        scaled = levels / np.asarray([c.soft_threshold for c in s.components])
        if self.mode is FeatureMode.U_ONLY:
            return scaled
        extra = []
        for c in s.components:
            extra.extend(
                [
                    c.soft_threshold,
                    c.hard_threshold,
                    c.gamma_shape_rate,
                    c.gamma_rate,
                    c.shock_magnitude_mean,
                    c.shock_magnitude_sd,
                    c.shock_damage_mean,
                    c.shock_damage_sd,
                ]
            )
        extra.append(s.shock_rate)
        return np.concatenate([scaled, extra])


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class MlpModel:
    """Network parameters plus the scaling and provenance it was fit with."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_shift: np.ndarray
    input_scale: np.ndarray
    output_shift: float = 0.0
    output_scale: float = 1.0
    feature_mode: FeatureMode = FeatureMode.U_ONLY
    clamp_bounds: tuple[float, float] | None = None
    system_fingerprint: str = ""
    dataset_fingerprint: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        ls = tuple(int(v) for v in self.layer_sizes)
        if len(ls) < 2 or any(v < 1 for v in ls) or ls[-1] != 1:
            raise ValueError("layer_sizes must be (inputs, hidden..., 1)")
        object.__setattr__(self, "layer_sizes", ls)
        if len(self.weights) != len(ls) - 1 or len(self.biases) != len(ls) - 1:
            raise ValueError("one weight and bias array per layer required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (ls[l + 1], ls[l]) or b.shape != (ls[l + 1],):
                raise ValueError(f"layer {l} arrays do not match layer_sizes")
        self.input_shift = np.asarray(self.input_shift, dtype=float)
        self.input_scale = np.asarray(self.input_scale, dtype=float)
        if self.input_shift.shape != (ls[0],) or self.input_scale.shape != (ls[0],):
            raise ValueError("input scaler must have one entry per feature")
        if np.any(self.input_scale == 0) or self.output_scale == 0:
            raise ValueError("scalers must have nonzero scale")


def init_model(
    layer_sizes,
    seed: int,
    feature_mode: FeatureMode = FeatureMode.U_ONLY,
) -> MlpModel:
    """Fresh network: uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    ls = tuple(int(v) for v in layer_sizes)
    rng = np.random.default_rng((seed, _STREAM_INIT))
    weights, biases = [], []
    for fan_in, fan_out in zip(ls[:-1], ls[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_sizes=ls,
        weights=weights,
        biases=biases,
        input_shift=np.zeros(ls[0]),
        input_scale=np.ones(ls[0]),
        feature_mode=feature_mode,
    )


def _activations(m: MlpModel, x_scaled: np.ndarray) -> list[np.ndarray]:
    acts = [x_scaled]
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        acts.append(sigmoid(w @ acts[-1] + b))
    acts.append(m.weights[-1] @ acts[-1] + m.biases[-1])  # linear output
    return acts


def _forward_scaled(m: MlpModel, x_scaled: np.ndarray) -> float:
    return float(_activations(m, x_scaled)[-1][0])


def _forward_scaled_batch(m: MlpModel, x_scaled: np.ndarray) -> np.ndarray:
    a = x_scaled
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        a = sigmoid(a @ w.T + b)
    return (a @ m.weights[-1].T + m.biases[-1])[:, 0]


def forward(m: MlpModel, features) -> float:
    """Network prediction in target units for one feature vector."""
    x = np.asarray(features, dtype=float)
    if x.shape != (m.layer_sizes[0],):
        raise ValueError(
            f"expected {m.layer_sizes[0]} features, got {x.shape}"
        )
    xs = (x - m.input_shift) / m.input_scale
    return _forward_scaled(m, xs) * m.output_scale + m.output_shift


def predict_batch(m: MlpModel, features: np.ndarray) -> np.ndarray:
    """Predictions in target units for a feature matrix (n, p)."""
    x = np.asarray(features, dtype=float)
    xs = (x - m.input_shift) / m.input_scale
    return _forward_scaled_batch(m, xs) * m.output_scale + m.output_shift


def mse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("predictions and targets must match and be nonempty")
    return float(np.mean((t - p) ** 2))


def r_squared(predictions, targets) -> float:
    """Coefficient of determination; 1 for a perfect predictor."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size < 2:
        raise ValueError("predictions and targets must match, with n >= 2")
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0:
        raise ValueError("targets are all equal; R^2 is undefined")
    return 1.0 - float(np.sum((t - p) ** 2)) / ss_tot


def _scale_target(m: MlpModel, target: float) -> float:
    return (target - m.output_shift) / m.output_scale


def training_loss(m: MlpModel, features, target: float) -> float:
    """Single-sample squared error in the scaled output space."""
    x = np.asarray(features, dtype=float)
    xs = (x - m.input_shift) / m.input_scale
    r = _scale_target(m, target) - _forward_scaled(m, xs)
    return r * r


def _grads_scaled(m: MlpModel, xs: np.ndarray, t_scaled: float):
    acts = _activations(m, xs)
    delta = np.asarray([2.0 * (acts[-1][0] - t_scaled)])
    grads_w = [np.empty(0)] * len(m.weights)
    grads_b = [np.empty(0)] * len(m.biases)
    grads_w[-1] = np.outer(delta, acts[-2])
    grads_b[-1] = delta
    err = m.weights[-1].T @ delta
    for l in range(len(m.weights) - 2, -1, -1):
        a = acts[l + 1]
        local = err * a * (1.0 - a)
        grads_w[l] = np.outer(local, acts[l])
        grads_b[l] = local
        err = m.weights[l].T @ local
    return grads_w, grads_b


def backprop_gradients(m: MlpModel, features, target: float):
    """Exact gradients of training_loss w.r.t. every weight and bias."""
    x = np.asarray(features, dtype=float)
    xs = (x - m.input_shift) / m.input_scale
    return _grads_scaled(m, xs, _scale_target(m, float(target)))


def _batch_grads_scaled(m: MlpModel, xs: np.ndarray, ts: np.ndarray):
    """Gradients of the mean per-sample squared error over the batch."""
    n = xs.shape[0]
    acts = [xs]
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        acts.append(sigmoid(acts[-1] @ w.T + b))
    out = acts[-1] @ m.weights[-1].T + m.biases[-1]
    delta = 2.0 * (out - ts[:, None])
    grads_w = [np.empty(0)] * len(m.weights)
    grads_b = [np.empty(0)] * len(m.biases)
    grads_w[-1] = delta.T @ acts[-1] / n
    grads_b[-1] = delta.mean(axis=0)
    err = delta @ m.weights[-1]
    for l in range(len(m.weights) - 2, -1, -1):
        a = acts[l + 1]
        local = err * a * (1.0 - a)
        grads_w[l] = local.T @ acts[l] / n
        grads_b[l] = local.mean(axis=0)
        err = local @ m.weights[l]
    return grads_w, grads_b


def fit(
    model: MlpModel,
    features: np.ndarray,
    targets: np.ndarray,
    eta: float = 0.05,
    epochs: int = 2000,
    mode: TrainMode = TrainMode.PER_SAMPLE_SGD,
    seed: int = 0,
    fit_scalers: bool = True,
) -> tuple[MlpModel, list[float]]:
    """Gradient descent on raw arrays; returns (trained copy, MSE history).

    The input model is left untouched.  History holds the raw-unit
    train MSE after each epoch; training aborts with DivergenceError if
    the loss leaves the representable range.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size or y.size == 0:
        raise ValueError("need a (n, p) feature matrix and n targets")
    if x.shape[1] != model.layer_sizes[0]:
        raise ValueError("feature width does not match the model input layer")
    if not eta >= 0:
        raise ValueError("eta must be >= 0")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    mode = TrainMode(mode)
    work = copy.deepcopy(model)
    if fit_scalers:
        work.input_shift = x.mean(axis=0)
        sd = x.std(axis=0)
        work.input_scale = np.where(sd > 1e-12, sd, 1.0)
        work.output_shift = float(y.mean())
        ysd = float(y.std())
        work.output_scale = ysd if ysd > 1e-12 else 1.0
    xs = (x - work.input_shift) / work.input_scale
    ys = (y - work.output_shift) / work.output_scale
    rng = np.random.default_rng((seed, _STREAM_SHUFFLE))
    history: list[float] = []
    for epoch in range(epochs):
        if mode is TrainMode.PER_SAMPLE_SGD:
            for idx in rng.permutation(y.size):
                gw, gb = _grads_scaled(work, xs[idx], ys[idx])
                for w, g in zip(work.weights, gw):
                    w -= eta * g
                for b, g in zip(work.biases, gb):
                    b -= eta * g
        else:
            gw, gb = _batch_grads_scaled(work, xs, ys)
            for w, g in zip(work.weights, gw):
                w -= eta * g
            for b, g in zip(work.biases, gb):
                b -= eta * g
        epoch_mse = mse(predict_batch(work, x), y)
        history.append(epoch_mse)
        if not math.isfinite(epoch_mse) or epoch_mse > _DIVERGENCE_MSE:
            raise DivergenceError(
                f"train MSE {epoch_mse:.3g} at epoch {epoch + 1}; lower eta"
            )
    return work, history


def train(
    model: MlpModel,
    dataset: Dataset,
    system: SystemModel,
    feature_spec: FeatureSpec | None = None,
    eta: float = 0.05,
    epochs: int = 2000,
    mode: TrainMode = TrainMode.PER_SAMPLE_SGD,
    seed: int = 0,
) -> tuple[MlpModel, list[float]]:
    """Fit on the dataset's training split and stamp provenance."""
    if feature_spec is None:
        feature_spec = FeatureSpec(model.feature_mode)
    rows = dataset.rows("train")
    if not rows:
        raise ValueError("dataset has no training split; run split first")
    x = np.vstack([feature_spec.build(system, row.u) for row in rows])
    y = np.asarray([row.tau_star for row in rows])
    trained, history = fit(model, x, y, eta, epochs, mode, seed)
    trained.feature_mode = feature_spec.mode
    trained.clamp_bounds = dataset.bounds
    trained.system_fingerprint = system_fingerprint(system)
    trained.dataset_fingerprint = dataset.fingerprint
    trained.metadata = {
        "eta": eta,
        "epochs": epochs,
        "mode": TrainMode(mode).value,
        "seed": seed,
        "train_rows": len(rows),
        "final_train_mse": history[-1] if history else None,
    }
    return trained, history


def predict_next_inspection(m: MlpModel, s: SystemModel, u) -> float:
    """Surrogate recommendation, clamped to the solver's search bounds."""
    if m.system_fingerprint and m.system_fingerprint != system_fingerprint(s):
        raise ValueError("model was trained for a different system")
    x = FeatureSpec(m.feature_mode).build(s, u)
    tau = forward(m, x)
    if m.clamp_bounds is not None:
        tau = min(max(tau, m.clamp_bounds[0]), m.clamp_bounds[1])
    return float(tau)


def save_model(m: MlpModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(m.layer_sizes),
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
        "input_shift": m.input_shift.tolist(),
        "input_scale": m.input_scale.tolist(),
        "output_shift": m.output_shift,
        "output_scale": m.output_scale,
        "feature_mode": m.feature_mode.value,
        "clamp_bounds": list(m.clamp_bounds) if m.clamp_bounds else None,
        "system_fingerprint": m.system_fingerprint,
        "dataset_fingerprint": m.dataset_fingerprint,
        "metadata": m.metadata,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> MlpModel:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format_version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    try:
        return MlpModel(
            layer_sizes=tuple(doc["layer_sizes"]),
            weights=[np.asarray(w, dtype=float) for w in doc["weights"]],
            biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
            input_shift=np.asarray(doc["input_shift"], dtype=float),
            input_scale=np.asarray(doc["input_scale"], dtype=float),
            output_shift=float(doc["output_shift"]),
            output_scale=float(doc["output_scale"]),
            feature_mode=FeatureMode(doc["feature_mode"]),
            clamp_bounds=tuple(doc["clamp_bounds"]) if doc.get("clamp_bounds") else None,
            system_fingerprint=doc.get("system_fingerprint", ""),
            dataset_fingerprint=doc.get("dataset_fingerprint", ""),
            metadata=doc.get("metadata", {}),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
