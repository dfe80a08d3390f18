"""Common interface for the image classifiers used in the paper.

Every model in the zoo is an :class:`ImageClassifier`: a module that, in
addition to producing logits, can expose its intermediate representations
``T_l`` (needed by the IB regularizers of Eq. 1/2) and accept a channel mask
applied to the output of its **last convolutional block** (Eq. 3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn import Module, Tensor, no_grad

__all__ = ["ImageClassifier", "HiddenRepresentations", "predict_batched"]

HiddenRepresentations = "OrderedDict[str, Tensor]"


class ImageClassifier(Module):
    """Base class for classifiers that expose hidden representations.

    Subclasses must implement :meth:`forward_with_hidden` which returns
    ``(logits, hidden)`` where ``hidden`` is an ordered mapping from layer
    name (e.g. ``"conv_block5"``, ``"fc1"``) to the layer's output tensor.
    The ordinary :meth:`forward` simply discards the hidden outputs.

    Attributes
    ----------
    num_classes:
        Number of output classes.
    channel_mask:
        Optional binary vector of length ``last_conv_channels``.  When set
        (via :meth:`set_channel_mask`) the output of the last convolutional
        block is multiplied channel-wise by this mask on every forward pass,
        implementing Eq. (3) of the paper.

    Every forward multiplies by one mask Tensor the model owns: all ones
    until a mask is installed (``x * 1.0`` is exact), then overwritten in
    place by each :meth:`set_channel_mask`.  Compiled plans alias that
    Tensor's array, so a mask refresh reaches them without a recapture.
    """

    #: name of the hidden entry holding the last convolutional block output
    last_conv_name: str = "conv_block5"

    def __init__(self, num_classes: int) -> None:
        super().__init__()
        self.num_classes = num_classes
        self.channel_mask: Optional[np.ndarray] = None
        self._mask: Optional[Tensor] = None

    # -- mask management -------------------------------------------------------
    @property
    def last_conv_channels(self) -> int:
        """Number of channels produced by the last convolutional block."""
        raise NotImplementedError

    def set_channel_mask(self, mask: Optional[np.ndarray]) -> None:
        """Install (or clear, with ``None``) the Eq. (3) feature-channel mask."""
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64).reshape(-1)
            if mask.shape[0] != self.last_conv_channels:
                raise ValueError(
                    f"mask has {mask.shape[0]} entries but the last conv block has "
                    f"{self.last_conv_channels} channels"
                )
        self.channel_mask = mask
        self._mask_tensor().data[...] = 1.0 if mask is None else mask

    def _mask_tensor(self) -> Tensor:
        """The mask Tensor every forward multiplies by, created on first use."""
        if self._mask is None:
            self._mask = Tensor(np.ones(self.last_conv_channels))
        return self._mask

    def _apply_channel_mask(self, features: Tensor) -> Tensor:
        """Multiply an NCHW (or NC) tensor channel-wise by the mask Tensor."""
        shape = (1, -1, 1, 1) if features.ndim == 4 else (1, -1)
        return features * self._mask_tensor().reshape(shape)

    # -- forward interface -------------------------------------------------------
    def forward_with_hidden(self, x: Tensor) -> Tuple[Tensor, "OrderedDict[str, Tensor]"]:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        logits, _ = self.forward_with_hidden(x)
        return logits

    # -- convenience -------------------------------------------------------------
    @property
    def hidden_layer_names(self) -> List[str]:
        """Names of the hidden representations, in forward order."""
        raise NotImplementedError

    def features(self, x: Tensor, layer: Optional[str] = None) -> Tensor:
        """Return the representation of ``layer`` (default: penultimate layer)."""
        _, hidden = self.forward_with_hidden(x)
        if layer is None:
            layer = self.hidden_layer_names[-1]
        if layer not in hidden:
            raise KeyError(f"unknown layer '{layer}'; available: {list(hidden)}")
        return hidden[layer]

    @no_grad()
    def predict(self, x: Tensor) -> np.ndarray:
        """Return hard class predictions as an integer array.

        Decorated with :class:`~repro.nn.no_grad`: predictions are
        forward-only, so no autograd graph is ever recorded for them (the
        same convention every attack's forward-only pass follows).
        """
        logits = self.forward(x)
        return np.argmax(logits.data, axis=1)


def predict_batched(model: "ImageClassifier", images: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Hard predictions in eval mode, batched, without building a graph.

    Shared by the evaluation metrics and the attack engine; the model's
    train/eval mode is restored afterwards.
    """
    outputs = []
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for start in range(0, len(images), batch_size):
                outputs.append(model.predict(Tensor(images[start : start + batch_size])))
    finally:
        model.train(was_training)
    return np.concatenate(outputs) if outputs else np.empty(0, dtype=np.int64)
