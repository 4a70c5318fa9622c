"""Per-concentrator queue state: real backlog, delay virtual queue, and a
FIFO arrival-stamp ledger for measured per-packet delay.

The operations here are the scalar reference semantics. The engine runs a
vectorized equivalent for speed; tests replay engine trajectories through
these functions to prove the two agree.

Slot ordering contract (enforced by the engine): observe state, decide,
serve, advance the virtual queue, then enqueue the slot's arrivals. A
packet served in its arrival slot therefore has delay 0, and decisions
never see same-slot arrivals.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from .env import ArrivalBatch
from .errors import ConfigurationError


@dataclass(frozen=True)
class ServiceGrant:
    """Realized service for one concentrator in one slot."""

    packets_served: int

    def __post_init__(self) -> None:
        if self.packets_served < 0:
            raise ConfigurationError("packets_served cannot be negative")


@dataclass
class ConcentratorState:
    """Backlog bookkeeping for one concentrator.

    packet_ledger holds [arrival_slot, count] runs in FIFO order; its
    total count always equals q_len. delivered_delays counts served
    packets by their whole-slot delay.
    """

    q_len: int = 0
    z_len: float = 0.0
    packet_ledger: deque = field(default_factory=deque)
    delivered_delays: Counter = field(default_factory=Counter)
    total_arrived: int = 0
    total_served: int = 0
    total_delay_slots: int = 0

    def copy(self) -> "ConcentratorState":
        return ConcentratorState(
            q_len=self.q_len,
            z_len=self.z_len,
            packet_ledger=deque([slot, count] for slot, count in self.packet_ledger),
            delivered_delays=Counter(self.delivered_delays),
            total_arrived=self.total_arrived,
            total_served=self.total_served,
            total_delay_slots=self.total_delay_slots,
        )

    @property
    def y_len(self) -> float:
        """Policy-visible congestion measure: real plus virtual backlog."""
        return self.q_len + self.z_len

    def ledger_count(self) -> int:
        return sum(count for _, count in self.packet_ledger)


def enqueue(state: ConcentratorState, batch: ArrivalBatch) -> ConcentratorState:
    """Append one slot's arrivals; mutates and returns ``state``."""
    if batch.packets > 0:
        state.packet_ledger.append([batch.slot, batch.packets])
        state.q_len += batch.packets
        state.total_arrived += batch.packets
    return state


def serve(state: ConcentratorState, grant: ServiceGrant, now: int) -> ConcentratorState:
    """Remove up to ``grant.packets_served`` oldest packets at slot ``now``.

    Clamps at the current backlog (no underflow) and records each removed
    packet's delay now - arrival_slot. Mutates and returns ``state``.
    """
    remaining = min(state.q_len, grant.packets_served)
    ledger = state.packet_ledger
    while remaining > 0:
        entry = ledger[0]
        take = min(entry[1], remaining)
        delay = now - entry[0]
        state.delivered_delays[delay] += take
        state.total_delay_slots += delay * take
        state.total_served += take
        state.q_len -= take
        remaining -= take
        if take == entry[1]:
            ledger.popleft()
        else:
            entry[1] -= take
    return state


def advance_virtual(
    state: ConcentratorState,
    served: int,
    epsilon: float,
    busy_before_service: bool,
) -> ConcentratorState:
    """Advance the delay virtual queue one slot.

    z <- max(z - served + epsilon * 1[backlog before service > 0], 0).
    The pre-service occupancy flag must be sampled by the caller because
    serve() has already run by the time this executes.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if served < 0:
        raise ConfigurationError("served cannot be negative")
    bump = epsilon if busy_before_service else 0.0
    state.z_len = max(state.z_len - served + bump, 0.0)
    return state


def littles_law_delay(mean_queue_len: float, mean_arrival_rate: float) -> float:
    """Average delay implied by Little's law, in slots."""
    if mean_arrival_rate <= 0:
        raise ValueError("mean arrival rate must be positive")
    return mean_queue_len / mean_arrival_rate


def measured_mean_delay(state: ConcentratorState) -> float:
    """Mean per-packet delay over everything this concentrator served."""
    if state.total_served == 0:
        return 0.0
    return state.total_delay_slots / state.total_served
