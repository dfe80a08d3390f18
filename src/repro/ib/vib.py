"""Variational Information Bottleneck (Alemi et al., 2017) baseline.

VIB is one of the IB-based baselines the paper compares against (Figure 2).
It inserts a stochastic bottleneck after the penultimate representation of a
backbone classifier: an encoder predicts the mean and log-variance of a
Gaussian code ``Z``, a sample of which (reparameterization trick) is fed to a
linear decoder.  The training loss is

    L = CE(decoder(z), y) + beta * KL( q(z | x) || N(0, I) )

which bounds ``I(X, Z)`` from above while the CE term keeps ``I(Z, Y)`` high.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from ..nn import Linear, Tensor
from ..nn import functional as F
from ..models.base import ImageClassifier

__all__ = ["VIBClassifier", "vib_loss"]


class VIBClassifier(ImageClassifier):
    """A backbone classifier with a VIB head replacing its final classifier.

    The backbone's penultimate hidden representation feeds an encoder that
    outputs ``(mu, log_var)`` of the bottleneck code.  During training a
    sample ``z = mu + sigma * eps`` is classified; at evaluation time the
    mean code is used (the standard VIB test-time procedure).
    """

    def __init__(
        self,
        backbone: ImageClassifier,
        bottleneck_dim: int = 16,
        beta: float = 1e-3,
        seed: int = 0,
    ) -> None:
        super().__init__(backbone.num_classes)
        rng = np.random.default_rng(seed)
        self.backbone = backbone
        self.bottleneck_dim = bottleneck_dim
        self.beta = beta
        self._rng = rng
        feature_dim = self._infer_feature_dim(backbone)
        self.encoder_mu = Linear(feature_dim, bottleneck_dim, rng=rng)
        self.encoder_logvar = Linear(feature_dim, bottleneck_dim, rng=rng)
        self.decoder = Linear(bottleneck_dim, backbone.num_classes, rng=rng)
        # Populated by the most recent forward pass, consumed by vib_loss().
        self.last_mu: Optional[Tensor] = None
        self.last_logvar: Optional[Tensor] = None

    @staticmethod
    def _infer_feature_dim(backbone: ImageClassifier) -> int:
        """Penultimate feature width of the backbone (fc2 / pool output)."""
        if hasattr(backbone, "hidden_dim"):
            return int(backbone.hidden_dim)
        if hasattr(backbone, "widths"):
            return int(backbone.widths[-1])
        if hasattr(backbone, "hidden_dims"):
            return int(backbone.hidden_dims[-1])
        raise ValueError("cannot infer the backbone's penultimate feature width")

    @property
    def last_conv_channels(self) -> int:
        return self.backbone.last_conv_channels

    @property
    def last_conv_name(self) -> str:
        return self.backbone.last_conv_name

    def set_channel_mask(self, mask: Optional[np.ndarray]) -> None:
        """Install (or clear) the Eq. (3) mask on the backbone, whose forward applies it."""
        self.backbone.set_channel_mask(mask)
        self.channel_mask = self.backbone.channel_mask

    @property
    def hidden_layer_names(self) -> List[str]:
        return self.backbone.hidden_layer_names + ["bottleneck"]

    def forward_with_hidden(self, x: Tensor) -> Tuple[Tensor, "OrderedDict[str, Tensor]"]:
        _, hidden = self.backbone.forward_with_hidden(x)
        penultimate = hidden[self.backbone.hidden_layer_names[-1]]
        if penultimate.ndim > 2:
            penultimate = penultimate.flatten(start_dim=1)
        mu = self.encoder_mu(penultimate)
        logvar = self.encoder_logvar(penultimate)
        self.last_mu = mu
        self.last_logvar = logvar
        if self.training:
            std = (logvar * 0.5).exp()
            noise = Tensor(self._rng.normal(size=mu.shape))
            code = mu + std * noise
        else:
            code = mu
        hidden = OrderedDict(hidden)
        hidden["bottleneck"] = code
        logits = self.decoder(code)
        return logits, hidden


def vib_loss(model: VIBClassifier, logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy plus the KL regularizer of the most recent forward pass."""
    if model.last_mu is None or model.last_logvar is None:
        raise RuntimeError("vib_loss() must be called after a forward pass of the model")
    ce = F.cross_entropy(logits, labels)
    mu, logvar = model.last_mu, model.last_logvar
    # KL( N(mu, sigma^2) || N(0, 1) ) summed over code dims, averaged over batch.
    kl = ((mu * mu + logvar.exp() - logvar - 1.0) * 0.5).sum(axis=1).mean()
    return ce + kl * model.beta
