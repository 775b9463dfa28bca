"""Location / non-location classifier: logistic regression over embeddings.

Training is full-batch gradient descent on the mean binary
cross-entropy plus an L2 penalty on the weights (the bias is never
penalized).  Everything is deterministic: weights start at zero, the
hyperparameters are fixed, no shuffling, no randomness.

The loss and gradient functions are module-level so they can be checked
independently (e.g. against finite differences).

``classify_batch`` decides a chunk of vectors with one vectorised
sigmoid over their scores: a vector is a location when
``sigmoid(weights . vector + bias)`` reaches the threshold.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import atomic_writer, iter_jsonl, read_json
from .errors import DatasetError

DEFAULT_LEARNING_RATE = 0.1
DEFAULT_L2_LAMBDA = 1e-4
DEFAULT_EPOCHS = 500
DEFAULT_THRESHOLD = 0.5


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    # sigma(z) = exp(-softplus(-z)); softplus via logaddexp never overflows.
    return np.exp(-np.logaddexp(0.0, -z))


def mean_loss(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    l2_lambda: float = DEFAULT_L2_LAMBDA,
) -> float:
    """Mean binary cross-entropy plus ``l2_lambda * ||weights||^2``.

    Computed as softplus(z) - y*z per example, which is the same value
    as the textbook form but stays finite for any z.
    """
    z = features @ weights + bias
    per_example = np.logaddexp(0.0, z) - labels * z
    return float(np.mean(per_example) + l2_lambda * np.dot(weights, weights))


def loss_gradients(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    l2_lambda: float = DEFAULT_L2_LAMBDA,
) -> tuple[np.ndarray, float]:
    """Exact gradient of ``mean_loss`` w.r.t. weights and bias."""
    residual = sigmoid(features @ weights + bias) - labels
    grad_w = features.T @ residual / labels.shape[0] + 2.0 * l2_lambda * weights
    grad_b = float(np.mean(residual))
    return grad_w, grad_b


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    threshold: float = DEFAULT_THRESHOLD
    trained_on: int = 0
    hyperparams: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return int(self.weights.shape[0])


def _stack_examples(
    examples: Sequence[tuple[Sequence[float], bool]]
) -> tuple[np.ndarray, np.ndarray]:
    if not examples:
        raise ValueError("no training examples")
    features = np.asarray([vector for vector, _ in examples], dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("feature vectors must all have the same dimension")
    if not np.all(np.isfinite(features)):
        raise ValueError("feature vectors contain non-finite values")
    labels = np.asarray([1.0 if label else 0.0 for _, label in examples])
    return features, labels


def train(
    examples: Sequence[tuple[Sequence[float], bool]],
    learning_rate: float = DEFAULT_LEARNING_RATE,
    l2_lambda: float = DEFAULT_L2_LAMBDA,
    epochs: int = DEFAULT_EPOCHS,
) -> LogisticModel:
    """Fit a logistic model on (vector, is_location) pairs.

    Requires at least one example of each class.  Training diverging
    (final loss above the zero-weight starting loss) means the step
    size is wrong for the data and raises rather than returning a bad
    model.
    """
    features, labels = _stack_examples(examples)
    if labels.min() == labels.max():
        raise ValueError("training set has only one class; need both labels")
    if learning_rate <= 0 or epochs < 1 or l2_lambda < 0:
        raise ValueError(
            f"bad hyperparameters: learning_rate={learning_rate}, "
            f"l2_lambda={l2_lambda}, epochs={epochs}"
        )
    weights = np.zeros(features.shape[1], dtype=np.float64)
    bias = 0.0
    initial = mean_loss(weights, bias, features, labels, l2_lambda)
    # an oversized step can overflow to inf/nan mid-loop; the divergence
    # check below turns that into a clear error, so keep numpy quiet here
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            grad_w, grad_b = loss_gradients(
                weights, bias, features, labels, l2_lambda
            )
            weights = weights - learning_rate * grad_w
            bias = bias - learning_rate * grad_b
        final = mean_loss(weights, bias, features, labels, l2_lambda)
    if not final <= initial:
        raise ValueError(
            f"training diverged: loss went {initial:.6f} -> {final:.6f}; "
            "lower the learning rate"
        )
    return LogisticModel(
        weights=weights,
        bias=bias,
        trained_on=len(examples),
        hyperparams={
            "learning_rate": learning_rate,
            "l2_lambda": l2_lambda,
            "epochs": epochs,
        },
    )


def _score(model: LogisticModel, vector: Sequence[float]) -> float:
    """``weights @ vector``; a vector of the wrong shape raises."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (model.dim,):
        raise ValueError(f"vector has shape {vector.shape}, model expects ({model.dim},)")
    return float(model.weights @ vector)


def classify(model: LogisticModel, vector: Sequence[float]) -> bool:
    """``classify_batch`` of one vector.  The pipeline calls only
    ``classify_batch``; the benchmark's tracer still patches this
    function by name."""
    return classify_batch(model, [vector])[0]


def classify_batch(model: LogisticModel, vectors: Sequence[Sequence[float]]) -> list[bool]:
    """Whether each vector is a location, in order: a probability at or
    above the threshold counts as one.

    Each score ``weights . vector`` is written into one array without
    stacking the vectors into a matrix (that would copy them); one
    ``sigmoid`` then decides every flag, so no flag depends on the
    other vectors of the call.
    """
    scores = np.array([_score(model, vector) for vector in vectors], dtype=np.float64)
    return (sigmoid(scores + model.bias) >= model.threshold).tolist()


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    # Rows: actual location, actual non-location; each row sums to 1
    # (or is all zero when the class is absent).
    normalized_confusion: tuple[tuple[float, float], tuple[float, float]]

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int) -> "EvalReport":
        if min(tp, fp, fn, tn) < 0:
            raise ValueError("confusion counts must be non-negative")
        total = tp + fp + fn + tn
        if total == 0:
            raise ValueError("empty evaluation: all counts are zero")
        accuracy = (tp + tn) / total
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        location_row = (
            (tp / (tp + fn), fn / (tp + fn)) if tp + fn else (0.0, 0.0)
        )
        other_row = (
            (fp / (fp + tn), tn / (fp + tn)) if fp + tn else (0.0, 0.0)
        )
        return cls(
            tp=tp, fp=fp, fn=fn, tn=tn,
            accuracy=accuracy, precision=precision, recall=recall, f1=f1,
            normalized_confusion=(location_row, other_row),
        )


def evaluate(
    model: LogisticModel, examples: Sequence[tuple[Sequence[float], bool]]
) -> EvalReport:
    """Confusion counts and derived metrics on a labeled set."""
    if not examples:
        raise ValueError("cannot evaluate on an empty set")
    tp = fp = fn = tn = 0
    flags = classify_batch(model, [vector for vector, _ in examples])
    for (_, label), predicted in zip(examples, flags):
        if label and predicted:
            tp += 1
        elif label and not predicted:
            fn += 1
        elif not label and predicted:
            fp += 1
        else:
            tn += 1
    return EvalReport.from_counts(tp, fp, fn, tn)


# ── Model and annotation files ───────────────────────────────────────────


def save_model(model: LogisticModel, path: str | os.PathLike[str]) -> None:
    """Write the model as JSON, atomically (see ``corpus.atomic_writer``)."""
    document = {
        "kind": "logistic-location-classifier",
        "dim": model.dim,
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "threshold": model.threshold,
        "trained_on": model.trained_on,
        "hyperparams": model.hyperparams,
    }
    with atomic_writer(path) as handle:
        json.dump(document, handle)
        handle.write("\n")


def load_model(path: str | os.PathLike[str]) -> LogisticModel:
    """Read a model file.  JSON types are checked as
    ``corpus.entry_from_record`` checks a record: weights, bias and
    threshold must be finite numbers (not booleans), ``trained_on`` an
    integer and ``hyperparams`` an object.  Anything else raises
    DatasetError naming the file."""
    document = read_json(path, DatasetError, f"{path}: invalid model file")
    try:
        weights = document["weights"]
        numbers = [*weights, document["bias"], document.get("threshold", DEFAULT_THRESHOLD)]
        trained_on = document.get("trained_on", 0)
        hyperparams = document.get("hyperparams", {})
    except (KeyError, TypeError) as err:
        raise DatasetError(f"{path}: invalid model file: {err}") from err
    if type(weights) is not list or any(type(x) not in (int, float) for x in numbers):
        raise DatasetError(
            f"{path}: invalid model file: weights, bias and threshold must be numbers"
        )
    if type(trained_on) is not int or type(hyperparams) is not dict:
        raise DatasetError(
            f"{path}: invalid model file: trained_on must be an integer, hyperparams an object"
        )
    try:
        *weights, bias, threshold = values = list(map(float, numbers))
    except OverflowError as err:  # an integer too large for a float
        raise DatasetError(f"{path}: invalid model file: {err}") from err
    if not all(map(math.isfinite, values)):
        raise DatasetError(f"{path}: invalid model file: non-finite weight, bias or threshold")
    if "dim" in document and len(weights) != document["dim"]:
        raise DatasetError(f"{path}: model weight shape does not match declared dim")
    return LogisticModel(np.array(weights), bias, threshold, trained_on, hyperparams)


def load_annotations(path: str | os.PathLike[str]) -> list[tuple[str, bool]]:
    """Read (entry_id, is_location) pairs from a JSON-lines file."""
    annotations: list[tuple[str, bool]] = []
    seen: set[str] = set()
    for where, _, record in iter_jsonl(path, DatasetError):
        if not isinstance(record, dict) or "entry_id" not in record or "is_location" not in record:
            raise DatasetError(f"{where}: need entry_id and is_location fields")
        entry_id = record["entry_id"]
        label = record["is_location"]
        if not isinstance(entry_id, str) or not isinstance(label, bool):
            raise DatasetError(f"{where}: entry_id must be a string, is_location a boolean")
        if entry_id in seen:
            raise DatasetError(f"{where}: duplicate annotation for {entry_id!r}")
        seen.add(entry_id)
        annotations.append((entry_id, label))
    return annotations
