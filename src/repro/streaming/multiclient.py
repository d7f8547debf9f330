"""Multi-client streaming over a shared bottleneck link.

The paper evaluates one client per network trace.  A natural deployment
question (and a common follow-up in the tile-streaming literature) is
what happens when several 360° viewers share a cell: Ptile clients
download fewer bits per segment, so the same link sustains more of them
at a given quality.

This module provides a static fair-share approximation: the link's
trace is scaled by ``1/N`` once for the whole session, and each of the
N clients streams independently over that fair-share trace.
Per-client buffers, quality adaptation, energy, and QoE use the same
machinery as the single-client simulator; only the bandwidth each
client sees changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..power.models import DevicePowerModel
from ..traces.network import NetworkTrace
from .cache import EdgeHitModel
from .metrics import SessionResult
from .session import SessionConfig, run_session

__all__ = ["SharedLinkResult", "run_shared_link", "capacity_sweep"]


@dataclass(frozen=True)
class SharedLinkResult:
    """Outcome of N clients sharing a link."""

    n_clients: int
    per_client: tuple[SessionResult, ...]
    fair_share_trace: NetworkTrace = field(repr=False)

    @property
    def mean_energy_j(self) -> float:
        return float(np.mean([r.total_energy_j for r in self.per_client]))

    @property
    def mean_qoe(self) -> float:
        return float(np.mean([r.mean_qoe for r in self.per_client]))

    @property
    def mean_quality(self) -> float:
        return float(np.mean([r.mean_quality_level for r in self.per_client]))

    @property
    def total_rebuffers(self) -> int:
        return sum(r.rebuffer_count for r in self.per_client)


def run_shared_link(
    scheme_factory,
    manifest,
    head_traces,
    network: NetworkTrace,
    device: DevicePowerModel,
    *,
    ptiles=None,
    ftiles=None,
    config: SessionConfig = SessionConfig(),
    edge_model: EdgeHitModel | None = None,
    fault_plan=None,
    download_policy=None,
) -> SharedLinkResult:
    """Simulate N clients sharing one bottleneck link.

    ``scheme_factory`` is called once per client (schemes carry mutable
    state in general).  The shared link is approximated by a static
    fair share: every client runs a separate session against the trace
    scaled by ``1/N`` for its whole length — exact when all clients
    stay backlogged, conservative when some idle at their buffer cap
    (their unused share is never redistributed, matching the
    pessimistic end of TCP fairness).

    ``edge_model`` attaches a shared edge cache in front of the link:
    every client serves the modelled hit fraction of each segment at the
    edge rate and only misses cross the fair-share trace (see
    :func:`~repro.streaming.cache.build_shared_edge_hit_models` for the
    multi-tenant training that produces contention-aware models).

    ``fault_plan`` / ``download_policy`` overlay the shared cell with a
    deterministic fault plan and engage the resilient download engine
    for every client (see ``repro.resilience``); all clients experience
    the same outages and collapse windows, as on a real shared link.

    Returns per-client session results computed against the fair-share
    trace.
    """
    n = len(head_traces)
    if n < 1:
        raise ValueError("need at least one client")
    if edge_model is not None:
        config = replace(config, edge_model=edge_model)
    if fault_plan is not None or download_policy is not None:
        config = replace(
            config, fault_plan=fault_plan, download_policy=download_policy
        )
    fair = network.scaled(1.0 / n, name=f"{network.name}/{n}")
    results = []
    for head in head_traces:
        results.append(
            run_session(
                scheme_factory(),
                manifest,
                head,
                fair,
                device,
                ptiles=ptiles,
                ftiles=ftiles,
                config=config,
            )
        )
    return SharedLinkResult(
        n_clients=n, per_client=tuple(results), fair_share_trace=fair
    )


def capacity_sweep(
    scheme_factory,
    manifest,
    head_traces,
    network: NetworkTrace,
    device: DevicePowerModel,
    client_counts: tuple[int, ...] = (1, 2, 4, 8),
    *,
    ptiles=None,
    ftiles=None,
    config: SessionConfig = SessionConfig(),
    edge_model: EdgeHitModel | None = None,
    fault_plan=None,
    download_policy=None,
) -> dict[int, SharedLinkResult]:
    """How quality and stalls degrade as more clients share the cell.

    ``edge_model``, ``fault_plan``, and ``download_policy`` are
    forwarded to every :func:`run_shared_link` call, so the sweep's
    clients share the edge cache, the fault overlay, and the client
    resilience policy as well as the link.
    """
    available = list(head_traces)
    if not available:
        raise ValueError("need at least one head trace")
    results: dict[int, SharedLinkResult] = {}
    for count in client_counts:
        if count < 1:
            raise ValueError("client counts must be positive")
        chosen = [available[i % len(available)] for i in range(count)]
        results[count] = run_shared_link(
            scheme_factory, manifest, chosen, network, device,
            ptiles=ptiles, ftiles=ftiles, config=config,
            edge_model=edge_model,
            fault_plan=fault_plan, download_policy=download_policy,
        )
    return results
