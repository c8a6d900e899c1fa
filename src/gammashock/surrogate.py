"""Feedforward surrogate that learns the solver's tau* mapping.

A small sigmoid-hidden, linear-output network is trained on solved
scenarios so that planning amounts to one forward pass instead of a
full cost-rate minimization.  Everything here is written out
explicitly: initialization, a forward pass and backpropagation over a
batch of rows (a per-sample SGD step is one row, a full-batch GD step
is every training row, forward is the batch pass on one row), and the
folded one-row pass that predict_next_inspection takes.  fit keeps the
weights and biases as views of one flat vector and has backpropagation
write the gradients in that layout, so a step is one in-place update.
Every pass uses one sigmoid, scipy.special.expit.

Weights W[l] have shape (fan_out, fan_in), so a layer maps rows A to
expit(A @ W.T + b).  Features are standardized by the stored input
scaler and targets by the output scaler; both are fit on the training
split and serialized with the model.  For predictions, _fold writes
u / H and the input scaler into the first layer and the output scaler
into the last, once per model and system object.
"""
from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from numbers import Integral, Real

import numpy as np
from scipy.special import expit

from .core import SystemModel, as_levels
from .optimize import Dataset, _check_bounds, _dump, system_fingerprint, write_json

MODEL_FORMAT_VERSION = 1
_DIVERGENCE_MSE = 1e12
_STREAM_INIT = 201
_STREAM_SHUFFLE = 202


class DivergenceError(RuntimeError):
    """Training lost its footing (non-finite or exploding loss)."""


class FeatureMode(str, Enum):
    """Network input layout; config and model files carry its value."""

    U_ONLY = "u_only"


class TrainMode(str, Enum):
    PER_SAMPLE_SGD = "per_sample_sgd"
    FULL_BATCH_GD = "full_batch_gd"


@dataclass(frozen=True)
class FeatureSpec:
    """Turns (system, state) into the network input vector.

    The features are the dimensionless levels u_i / H_i.  A model is
    tied to one system by its fingerprint, so the system's parameters
    would be constant columns and are not features.
    """

    mode: FeatureMode = FeatureMode.U_ONLY

    def feature_count(self, s: SystemModel) -> int:
        return s.n

    def build(self, s: SystemModel, u) -> np.ndarray:
        return as_levels(u, s.n) / _thresholds(s)


def _thresholds(s: SystemModel) -> np.ndarray:
    return np.asarray([c.soft_threshold for c in s.components])


def _reals(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """value as a float array of the given shape, whose entries are finite reals (not bools)."""
    a = np.asarray(value, dtype=object)
    for x in a.flat:
        if isinstance(x, bool) or not isinstance(x, Real):
            raise ValueError(f"{name}: expected real numbers, got {type(x).__name__}")
        if not abs(x) <= sys.float_info.max:  # NaN, infinities and ints past the float range
            raise ValueError(f"{name}: expected finite numbers in the float range")
    if a.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {a.shape}")
    return a.astype(float)


def _layer_sizes(value) -> tuple[int, ...]:
    """value as (inputs, hidden..., 1), whose entries are integers (not bools)."""
    ls = tuple(value)
    for v in ls:
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise ValueError(f"layer_sizes: expected integers, got {type(v).__name__}")
    if len(ls) < 2 or any(v < 1 for v in ls) or ls[-1] != 1:
        raise ValueError("layer_sizes must be (inputs, hidden..., 1)")
    return tuple(int(v) for v in ls)


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
        self.layer_sizes = ls = _layer_sizes(self.layer_sizes)
        if len(self.weights) != len(ls) - 1 or len(self.biases) != len(ls) - 1:
            raise ValueError("one weight and bias array per layer required")
        self.weights = [_reals(f"weights[{l}]", w, (ls[l + 1], ls[l]))
                        for l, w in enumerate(self.weights)]
        self.biases = [_reals(f"biases[{l}]", b, (ls[l + 1],)) for l, b in enumerate(self.biases)]
        self.input_shift = _reals("input_shift", self.input_shift, (ls[0],))
        self.input_scale = _reals("input_scale", self.input_scale, (ls[0],))
        self.output_shift = float(_reals("output_shift", self.output_shift, ()))
        self.output_scale = float(_reals("output_scale", self.output_scale, ()))
        self.feature_mode = FeatureMode(self.feature_mode)
        if self.clamp_bounds is not None:
            bounds = _reals("clamp_bounds", self.clamp_bounds, (2,))
            self.clamp_bounds = _check_bounds(bounds, "clamp_bounds")
        if not all(isinstance(f, str) for f in (self.system_fingerprint, self.dataset_fingerprint)):
            raise ValueError("fingerprints must be strings")
        if np.any(self.input_scale == 0) or self.output_scale == 0:
            raise ValueError("scalers must have nonzero scale")

    # not a field, so model.json never carries it: (system, hidden layers,
    # output weights, output bias), set by _fold
    _folded = None

    def __setattr__(self, name, value):
        self.__dict__.pop("_folded", None)  # assigning any field drops the folded layers
        super().__setattr__(name, value)


def init_model(
    layer_sizes,
    seed: int,
    feature_mode: FeatureMode = FeatureMode.U_ONLY,
) -> MlpModel:
    """Fresh network: uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    ls = _layer_sizes(layer_sizes)
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


def _activations(m: MlpModel, xs: np.ndarray) -> list[np.ndarray]:
    """Layer outputs for scaled inputs xs (n, p); the last is (n, 1)."""
    acts = [xs]
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        acts.append(expit(np.dot(acts[-1], w.T) + b))
    acts.append(np.dot(acts[-1], m.weights[-1].T) + m.biases[-1])  # linear output
    return acts


def _scaled(m: MlpModel, features) -> np.ndarray:
    return (np.asarray(features, dtype=float) - m.input_shift) / m.input_scale


def forward(m: MlpModel, features) -> float:
    """Network prediction in target units for one feature vector: the
    batch pass on a one-row matrix, so it equals predict_batch's row."""
    a = np.asarray(features, dtype=float)
    if a.shape != (m.layer_sizes[0],):
        raise ValueError(f"expected {m.layer_sizes[0]} features, got {a.shape}")
    return float(predict_batch(m, a[None])[0])


def _predict_scaled(m: MlpModel, xs: np.ndarray) -> np.ndarray:
    """Predictions in target units for scaled rows xs (n, p)."""
    return _activations(m, xs)[-1][:, 0] * m.output_scale + m.output_shift


def predict_batch(m: MlpModel, features: np.ndarray) -> np.ndarray:
    """Predictions in target units for a feature matrix (n, p)."""
    return _predict_scaled(m, _scaled(m, features))


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
    out = _activations(m, _scaled(m, features)[None])[-1][0, 0]
    r = _scale_target(m, target) - out
    return float(r * r)


def _gradients(m: MlpModel, xs: np.ndarray, ts: np.ndarray, out=None):
    """Gradients of the mean squared error over scaled rows xs (n, p), ts (n,),
    written into out = (grads_w, grads_b) or, without out, into new arrays.

    delta carries the mean's 2/n, so for n = 1 every sum below is exact.
    """
    grads_w, grads_b = out or ([np.empty_like(w) for w in m.weights],
                               [np.empty_like(b) for b in m.biases])
    acts = _activations(m, xs)
    delta = (acts[-1] - ts[:, None]) * (2.0 / xs.shape[0])
    for l in range(len(m.weights) - 1, -1, -1):
        np.dot(delta.T, acts[l], out=grads_w[l])
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l:
            a = acts[l]
            delta = np.dot(delta, m.weights[l]) * a * (1.0 - a)
    return grads_w, grads_b


def backprop_gradients(m: MlpModel, features, target: float):
    """Exact gradients of training_loss w.r.t. every weight and bias."""
    t = np.asarray([_scale_target(m, float(target))])
    return _gradients(m, _scaled(m, features)[None], t)


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
    # theta holds every weight and bias and grad their gradients in the same
    # layout; the model's arrays and the gradient arrays are shaped views
    params, n = work.weights + work.biases, len(work.weights)
    theta = np.concatenate([p.ravel() for p in params])
    grad, cuts = np.empty_like(theta), np.cumsum([p.size for p in params])[:-1]
    pv, gv = ([v.reshape(p.shape) for v, p in zip(np.split(f, cuts), params)]
              for f in (theta, grad))
    work.weights, work.biases, out = pv[:n], pv[n:], (gv[:n], gv[n:])
    rng = np.random.default_rng((seed, _STREAM_SHUFFLE))
    per_sample = mode is TrainMode.PER_SAMPLE_SGD
    width = 1 if per_sample else y.size
    history: list[float] = []
    for epoch in range(epochs):
        # per-sample SGD steps on one row at a time in a seeded order,
        # full-batch GD takes one step on all rows
        for i in rng.permutation(y.size) if per_sample else (0,):
            _gradients(work, xs[i:i + width], ys[i:i + width], out)
            theta -= eta * grad
        epoch_mse = mse(_predict_scaled(work, xs), y)
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


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)  # a copy, so no other reference can write to it
    a.flags.writeable = False
    return a


def _fold(m: MlpModel, s: SystemModel):
    """m's layers for raw levels u of system s, cached on m.

    The first layer takes u / H and the input scaler, W' = W / (scale H)
    and b' = b - W (shift / scale); the output layer takes the output
    scaler, w' = scale w and b' = scale b + shift.  The model's arrays
    become read-only copies and its layer lists tuples, so an in-place
    write raises instead of leaving the fold stale; assigning any field
    drops the fold.
    """
    if m.system_fingerprint and m.system_fingerprint != system_fingerprint(s):
        raise ValueError("model was trained for a different system")
    weights, biases = tuple(map(_frozen, m.weights)), tuple(map(_frozen, m.biases))
    shift, scale = _frozen(m.input_shift), _frozen(m.input_scale)
    if weights[0].shape[1] != s.n:
        raise ValueError(f"model takes {weights[0].shape[1]} inputs, system has {s.n} components")
    layers = list(zip(weights, biases))
    w, b = layers[0]
    layers[0] = w / (scale * _thresholds(s)), b - w.dot(shift / scale)
    w, b = layers[-1]
    fold = (s, tuple(layers[:-1]), w[0] * m.output_scale, b[0] * m.output_scale + m.output_shift)
    m.__dict__.update(weights=weights, biases=biases, input_shift=shift, input_scale=scale,
                      _folded=fold)
    return fold


def predict_next_inspection(m: MlpModel, s: SystemModel, u) -> float:
    """Surrogate recommendation, clamped to the solver's search bounds.

    The system check and the fold run only when s is not the system
    object the model last predicted for.
    """
    fold = m._folded
    if fold is None or fold[0] is not s:
        fold = _fold(m, s)
    a = as_levels(u, s.n)
    for w, b in fold[1]:
        a = expit(w.dot(a) + b)
    tau = float(fold[2].dot(a) + fold[3])  # linear output
    if m.clamp_bounds is not None:
        tau = min(max(tau, m.clamp_bounds[0]), m.clamp_bounds[1])
    return tau


def save_model(m: MlpModel, path) -> None:
    write_json(path, {"format_version": MODEL_FORMAT_VERSION, **_dump(m)}, indent=1)


def load_model(path) -> MlpModel:
    """Read a saved model; a malformed file, or an unknown or missing key,
    is a ValueError naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        version = doc.pop("format_version", None)
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format_version {version!r}; "
                f"this build reads version {MODEL_FORMAT_VERSION}"
            )
        names = [f.name for f in fields(MlpModel)]
        for key in doc:
            if key not in names:
                raise ValueError(f"unknown key {key!r}")
        for key in names:
            if key not in doc:
                raise ValueError(f"missing key {key!r}")
        return MlpModel(**doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
