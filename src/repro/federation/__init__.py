"""Population-scale federation: virtual client registries and the
event-driven semi-asynchronous coordinator (see docs/SCALING.md).

A :class:`ClientRegistry` holds client *identity* (descriptors derived on
demand from a stable seed mixer) and materializes client *execution* only
on selection, so population size never enters memory or per-round cost.
:class:`AsyncCoordinator` runs FedBuff-style buffered aggregation over it
on a deterministic virtual-time event loop.
"""

from .coordinator import AsyncCoordinator, FlushEvent, PendingUpload
from .registry import (
    SPEED_TIERS,
    ClientDescriptor,
    ClientRegistry,
    stable_seed,
)
from .runner import (
    SMOKE_CONFIG,
    FederateConfig,
    build_coordinator,
    make_arrival_trace,
    make_degradation,
    make_network,
    make_scheme,
    run_federation,
)

__all__ = [
    "AsyncCoordinator",
    "ClientDescriptor",
    "ClientRegistry",
    "FederateConfig",
    "FlushEvent",
    "PendingUpload",
    "SMOKE_CONFIG",
    "SPEED_TIERS",
    "build_coordinator",
    "make_arrival_trace",
    "make_degradation",
    "make_network",
    "make_scheme",
    "run_federation",
    "stable_seed",
]
