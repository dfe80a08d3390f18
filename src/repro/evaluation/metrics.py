"""Accuracy metrics for clean and adversarial evaluation."""

from __future__ import annotations

import numpy as np

from ..models.base import ImageClassifier, predict_batched as _batched_predict

__all__ = ["accuracy", "clean_accuracy", "adversarial_accuracy"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of matching entries between two integer arrays."""
    predictions = np.asarray(predictions).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have the same length")
    if predictions.size == 0:
        return 0.0
    return float((predictions == labels).mean())


def clean_accuracy(model: ImageClassifier, images: np.ndarray, labels: np.ndarray, batch_size: int = 128) -> float:
    """Top-1 accuracy on unperturbed inputs ("Natural" columns in Tables 1-2)."""
    return accuracy(_batched_predict(model, images, batch_size), labels)


def adversarial_accuracy(
    model: ImageClassifier,
    attack,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 64,
) -> float:
    """Top-1 accuracy after perturbing ``images`` with ``attack``."""
    correct = 0
    total = 0
    labels = np.asarray(labels).reshape(-1)
    for start in range(0, len(images), batch_size):
        batch = images[start : start + batch_size]
        batch_labels = labels[start : start + batch_size]
        adversarial = attack.attack(batch, batch_labels)
        predictions = _batched_predict(model, adversarial, batch_size)
        correct += int((predictions == batch_labels).sum())
        total += len(batch_labels)
    return correct / max(total, 1)

