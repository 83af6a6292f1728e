"""Optimizers, gradient clipping, and learning-rate schedules.

Each optimizer keeps its per-parameter state (``_velocity`` for SGD,
``_m``/``_v`` for Adam) in a dict keyed by parameter index, holding an
entry only for parameters that have received a gradient.  Checkpoints
save and restore those dicts directly, so a resumed run steps
bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro.nn.module import Parameter

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "StepSchedule",
    "CosineSchedule",
]


class Optimizer:
    """Base optimizer: holds the parameters and the current LR."""

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer created with no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    def gather_and_clip(self, max_norm: Optional[float] = None) -> float:
        """Clip this optimizer's gradients; return their pre-clip L2 norm.

        :func:`clip_grad_norm` over :attr:`parameters`, scaling ``.grad``
        in place when ``max_norm`` is given and exceeded.  Trainers clip
        through this method, so a profile counts clipping as optimizer
        time.
        """
        return clip_grad_norm(self.parameters, math.inf if max_norm is None else max_norm)

    def step(self) -> None:
        """Apply one update; subclasses override."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        """Apply one (momentum) SGD update from accumulated gradients."""
        for i, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(i)
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[i] = velocity
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def _decay(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        # L2-style decay folded into the gradient (classic Adam).
        if self.weight_decay:
            return grad + self.weight_decay * param.data
        return grad

    def step(self) -> None:
        """Apply one bias-corrected Adam update."""
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for i, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = self._decay(param, param.grad)
            m = self._m.get(i)
            v = self._v.get(i)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad**2
            self._m[i], self._v[i] = m, v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def _decay(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        # Decoupled: decay applied directly to weights, not the gradient.
        if self.weight_decay:
            param.data -= self.lr * self.weight_decay * param.data
        return grad


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float((param.grad**2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad *= scale
    return norm


class StepSchedule:
    """Multiply the optimizer LR by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5) -> None:
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._base_lr = optimizer.lr
        self._epoch = 0

    def step(self) -> None:
        """Advance one epoch and update the LR."""
        self._epoch += 1
        self.optimizer.lr = self._base_lr * (self.gamma ** (self._epoch // self.step_size))


class CosineSchedule:
    """Cosine decay from the base LR to ``min_lr`` over ``total_epochs``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int, min_lr: float = 0.0) -> None:
        self.optimizer = optimizer
        self.total_epochs = max(total_epochs, 1)
        self.min_lr = min_lr
        self._base_lr = optimizer.lr
        self._epoch = 0

    def step(self) -> None:
        """Advance one epoch and update the LR."""
        self._epoch = min(self._epoch + 1, self.total_epochs)
        progress = self._epoch / self.total_epochs
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        self.optimizer.lr = self.min_lr + (self._base_lr - self.min_lr) * cosine
