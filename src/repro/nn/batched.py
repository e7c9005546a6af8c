"""Batched multi-client model programs for MLPs.

A :class:`BatchedModelProgram` replicates one template
:class:`~repro.nn.models.mlp.MLP` K times inside a single
:class:`~repro.nn.arena.BatchedClientArena`: every parameter becomes a
``(clients, *shape)`` :class:`~repro.nn.module.Parameter` whose row ``k`` is
a zero-copy view of client k's slice of the ``(K, P)`` buffer.  ``forward``
maps ``(clients, batch, ...)`` inputs to ``(clients, batch, classes)``
logits through :func:`~repro.autograd.ops.batched_linear`, and the whole
program is constructed so that slice ``k`` of the forward pass — and of
every parameter gradient — is bit-identical to running the template model
on client k's row alone (see tests/autograd/test_batched_ops.py and
tests/fl/test_batched_execution.py).

Only MLPs are batched: on their small dense layers one batched program
beats K sequential graphs end to end, while a client-batched CNN measured
slower than the sequential loop (docs/PERFORMANCE.md).
:func:`supports_batched` is the single gate; any model it rejects stays on
the sequential oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autograd import Tensor, batched_linear
from .arena import BatchedClientArena
from .linear import Linear
from .models.mlp import MLP
from .module import Module, Parameter


def supports_batched(template: Module) -> bool:
    """Whether the batched execution path can replicate ``template``.

    Only the exact :class:`MLP` type qualifies — a subclass may override
    ``forward`` arbitrarily — and its parameters must fit one arena.
    """
    return (
        type(template) is MLP
        and BatchedClientArena.from_parameters(1, template.parameters()) is not None
    )


class BatchedModelProgram:
    """K client replicas of a template MLP over one ``(K, P)`` arena."""

    def __init__(self, template: Module, clients: int) -> None:
        if not supports_batched(template):
            raise ValueError(f"{type(template).__name__} cannot be batched")
        arena = BatchedClientArena.from_parameters(clients, template.parameters())
        self.clients = clients
        self.arena = arena
        # One entry per layer of ``template.net``: a Linear's has-bias flag,
        # or ``None`` for a ReLU.
        self._layers: List[Optional[bool]] = [
            layer.bias is not None if isinstance(layer, Linear) else None
            for layer in template.net
        ]
        self.params: List[Parameter] = []
        for index in range(len(arena)):
            view = arena.view(index)
            param = Parameter(view)
            param.data = view  # guarantee zero-copy aliasing into the arena
            self.params.append(param)
        arena.bind(self.params)

    # ------------------------------------------------------------------
    def load_rows(self, rows: Sequence[np.ndarray]) -> None:
        """Load one flat ``(P,)`` parameter vector per client row."""
        self.arena.load_rows(rows)

    def params_rows(self) -> np.ndarray:
        """Live ``(clients, P)`` parameter buffer (updated in place)."""
        return self.arena.params_rows()

    def parameters_matrix(self) -> np.ndarray:
        """Copy of the ``(clients, P)`` parameter matrix."""
        return self.arena.parameters_matrix()

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def forward(self, x: Tensor) -> Tensor:
        """Batched logits ``(clients, batch, classes)`` for batched input."""
        if x.ndim > 3:
            x = x.flatten(start_dim=2)
        params = iter(self.params)  # template order: weight, then bias
        for has_bias in self._layers:
            if has_bias is None:
                x = x.relu()
            else:
                x = batched_linear(x, next(params), next(params) if has_bias else None)
        return x

    def gradients_matrix(self) -> np.ndarray:
        """Copy of the ``(clients, P)`` gradient matrix (zeros where unset)."""
        return self.arena.gradients_matrix()
