"""Removing unnecessary feature channels (Eq. 3 of the paper).

After (or while) training with the MI loss, the feature channels produced by
the **last convolutional block** are scored by their mutual information with
the labels.  Channels whose MI falls below a threshold — chosen so that the
lowest 5 % of channels are eliminated — are zeroed by a binary mask that is
installed on the model and applied on every subsequent forward pass:

    T_last = T_last * mask,   mask_c = 1 if I(f_c, Y) >= thr else 0.

The paper stresses that the mask only helps when the network was trained
with the MI loss (row (5) vs row (6) of Table 4): the IB regularizer is what
makes unnecessary channels *distinguishable* by their MI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from ..nn import Tensor, no_grad
from ..ib.mi import channel_label_mi
from ..models.base import ImageClassifier

__all__ = ["FeatureChannelMask", "compute_channel_mask"]

#: examples per scoring forward.  Eval-mode features are per example, so
#: chunks concatenate to the whole-batch features bit for bit, while the
#: forward's activations stay a chunk's worth.
_SCORE_CHUNK = 64


def compute_channel_mask(
    scores: np.ndarray,
    fraction: float = 0.05,
    min_keep: int = 1,
) -> np.ndarray:
    """Binary mask removing the ``fraction`` of channels with the lowest scores.

    Exactly ``floor(fraction * n)`` channels are zeroed (at most
    ``n - min_keep``): the first ones in a stable ascending sort of the
    scores, so channels tied at the threshold of Section 2.3 (the highest
    removed score) are removed in channel order until the count is met and
    the rest are kept.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    num_channels = scores.shape[0]
    if num_channels == 0:
        raise ValueError("cannot mask an empty channel set")
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    num_remove = int(np.floor(fraction * num_channels))
    num_remove = min(num_remove, num_channels - min_keep)
    mask = np.ones(num_channels)
    if num_remove > 0:
        mask[np.argsort(scores, kind="stable")[:num_remove]] = 0.0
    return mask


@dataclass
class FeatureChannelMask:
    """Computes and installs the Eq. (3) mask on an :class:`ImageClassifier`.

    Parameters
    ----------
    fraction:
        Fraction of channels to remove (paper default 0.05).
    method:
        Channel-MI scoring method, ``"histogram"`` (default) or ``"hsic"``.
    max_batch:
        Cap on how many examples are used to estimate channel MI (keeps the
        estimate cheap on large training sets).
    """

    fraction: float = 0.05
    method: Literal["histogram", "hsic"] = "histogram"
    max_batch: int = 512

    def features(self, model: ImageClassifier, images: np.ndarray) -> np.ndarray:
        """The last convolutional block's unmasked eval-mode output.

        Runs one no-grad forward per :data:`_SCORE_CHUNK` examples; the
        model's mask and train/eval mode are restored afterwards, also when
        a forward raises.
        """
        images = np.asarray(images)
        was_training = model.training
        previous_mask = model.channel_mask
        model.eval()
        # Score the unmasked representation so the mask can recover channels.
        model.set_channel_mask(None)
        chunks = []
        try:
            with no_grad():
                for start in range(0, len(images), _SCORE_CHUNK):
                    _, hidden = model.forward_with_hidden(Tensor(images[start : start + _SCORE_CHUNK]))
                    chunks.append(hidden[model.last_conv_name].data)
        finally:
            model.set_channel_mask(previous_mask)
            model.train(was_training)
        return np.concatenate(chunks)

    def scores(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-channel MI scores of the last convolutional block's output."""
        images = np.asarray(images)[: self.max_batch]
        labels = np.asarray(labels).reshape(-1)[: self.max_batch]
        features = self.features(model, images)
        return channel_label_mi(features, labels, model.num_classes, method=self.method)

    def compute(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Return the binary channel mask for ``model`` on the given batch."""
        return compute_channel_mask(self.scores(model, images, labels), self.fraction)

    def apply(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Compute the mask and install it on the model; returns the mask."""
        mask = self.compute(model, images, labels)
        model.set_channel_mask(mask)
        return mask
