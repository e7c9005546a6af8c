"""Additional related-work algorithms cited by the paper (Section VI).

These are not part of the paper's six-baseline evaluation but belong to the
three correction families it surveys, and make the library useful as a
general non-IID FL testbed:

- :class:`FedNova` (Wang et al., 2020) — aggregation calibration: normalises
  each client's accumulated update by its number of local steps before
  averaging, removing objective inconsistency when clients run different
  amounts of local work.
- :class:`FedDyn` (Acar et al., 2021) — loss regularisation: each client
  keeps a dynamic linear correction term h_i that accumulates its history of
  deviations, plus the usual proximal pull toward w_t.
- :class:`FedMoS` (Wang et al., 2023) — momentum-based: double momentum
  (client-side heavy-ball on the local direction, server-side on the
  aggregate) with a fixed coupling coefficient.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from ..fl.state import ClientUpdate, ServerState
from ..fl.timing import ComputeProfile
from .base import GradFn, Strategy


class FedNova(Strategy):
    """Normalised averaging: Delta_{t+1} = mean_i (Delta_i / tau_i) * tau_eff.

    With uniform local steps this reduces to FedAvg; with heterogeneous
    ``client_steps`` (set per client id) it removes the objective
    inconsistency FedAvg suffers from.
    """

    name = "fednova"
    has_aggregation_correction = True

    def __init__(self, local_lr: float = 0.01, local_steps: int = 10) -> None:
        super().__init__(local_lr, local_steps)
        #: optional per-client local-step override (heterogeneous workloads)
        self.client_steps: Dict[int, int] = {}

    def steps_for(self, client_id: int) -> int:
        return self.client_steps.get(client_id, self.local_steps)

    def aggregate(self, state: ServerState, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        samples = sum(u.num_samples for u in updates)
        # Effective tau: data-weighted mean of the clients' local steps.
        tau_eff = sum(u.num_samples / samples * u.num_steps for u in updates)
        normalised = np.zeros_like(updates[0].delta)
        for u in updates:
            normalised += (u.num_samples / samples) * (u.delta / u.num_steps)
        return tau_eff * normalised / (self.local_steps * self.local_lr)

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1)  # normalisation is server-side


class FedDyn(Strategy):
    """Dynamic regularisation (simplified client-state variant).

    Local objective: f_i(w) - <h_i, w> + (mu/2)||w - w_t||^2, where the
    dynamic term h_i accumulates mu * (w_t - w_{i,K}) after each round —
    the first-order condition steering each client's fixed point toward the
    consensus.
    """

    name = "feddyn"
    has_local_correction = True

    def __init__(self, local_lr: float = 0.01, local_steps: int = 10, mu: float = 0.1) -> None:
        super().__init__(local_lr, local_steps)
        if mu < 0:
            raise ValueError(f"mu must be non-negative, got {mu}")
        self.mu = mu
        self._h: Dict[int, np.ndarray] = {}

    def reset(self) -> None:
        self._h = {}

    def state_dict(self) -> Dict[str, Any]:
        return {"h": dict(self._h)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._h = {int(cid): h for cid, h in state["h"].items()}

    def broadcast(self, state: ServerState) -> Dict[str, Any]:
        return {"anchor": state.global_params}

    def client_payload(self, client_id: int, state: ServerState, broadcast: Dict[str, Any]) -> Dict[str, Any]:
        payload = dict(broadcast)
        payload["h"] = self._h.get(client_id)
        return payload

    def prox_gradient(self, params: np.ndarray, payload: Dict[str, Any]) -> np.ndarray:
        grad = self.mu * (params - payload["anchor"])
        if payload.get("h") is not None:
            grad = grad - payload["h"]
        return grad

    def post_round(self, state: ServerState, updates: Sequence[ClientUpdate]) -> None:
        for update in updates:
            previous = self._h.get(update.client_id)
            if previous is None:
                previous = np.zeros_like(update.delta)
            # w_t - w_{i,K} = Delta_i, so h_i += -mu * Delta_i steers the
            # client's implicit fixed point toward the consensus.
            self._h[update.client_id] = previous - self.mu * update.delta

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1, prox=1)


class FedMoS(Strategy):
    """Double-momentum correction (client heavy-ball + server momentum)."""

    name = "fedmos"
    has_local_correction = True
    has_aggregation_correction = True

    def __init__(
        self,
        local_lr: float = 0.01,
        local_steps: int = 10,
        client_momentum: float = 0.5,
        server_momentum: float = 0.5,
    ) -> None:
        super().__init__(local_lr, local_steps)
        for name, value in (("client", client_momentum), ("server", server_momentum)):
            if not 0 <= value < 1:
                raise ValueError(f"{name} momentum must be in [0, 1), got {value}")
        self.client_momentum = client_momentum
        self.server_momentum = server_momentum
        self._client_velocity: Dict[int, np.ndarray] = {}
        self._server_velocity: np.ndarray | None = None

    def reset(self) -> None:
        self._client_velocity = {}
        self._server_velocity = None

    def state_dict(self) -> Dict[str, Any]:
        # Client velocities restart at local step 0 of every round, so only
        # the server momentum crosses a round boundary.
        return {"server_velocity": self._server_velocity}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._server_velocity = state["server_velocity"]

    def local_direction(
        self,
        client_id: int,
        step: int,
        params: np.ndarray,
        grad: np.ndarray,
        grad_fn: GradFn,
        payload: Dict[str, Any],
    ) -> np.ndarray:
        if step == 0:
            velocity = grad  # fresh momentum each round
        else:
            velocity = self.client_momentum * self._client_velocity[client_id] + grad
        self._client_velocity[client_id] = velocity
        return velocity

    def aggregate(self, state: ServerState, updates: Sequence[ClientUpdate]) -> np.ndarray:
        if not updates:
            raise ValueError("cannot aggregate zero updates")
        total = np.zeros_like(updates[0].delta)
        for update in updates:
            total += update.delta
        delta = total / (self.local_steps * len(updates) * self.local_lr)
        if self._server_velocity is None:
            self._server_velocity = np.zeros_like(delta)
        self._server_velocity = (
            self.server_momentum * self._server_velocity
            + (1 - self.server_momentum) * delta
        )
        return self._server_velocity

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(grad=1, momentum=1)
