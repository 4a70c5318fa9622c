"""Leasing policies: when should a concentrator pay for a high-priority channel.

Three families are implemented.

* LyapunovPolicy: drift-plus-penalty threshold control. Each concentrator
  tracks its actual backlog Q and a delay virtual queue Z; it purchases a
  full unit whenever free spectrum cannot cover the slot's service and
  Q + Z exceeds V * price / 2. Larger V weights cost more heavily against
  backlog. Quality is never degraded.
* QualityPolicy: deadline scheduling with a quality budget. N units must go
  out within a fixed window at one unit per slot; at most M of them may be
  sent at reduced quality. Free spectrum is always used when admissible, a
  purchase-attractiveness-price (PAP) classifies paid opportunities as cheap
  (price at most beta_c times the running mean of previously posted prices),
  and a deadline guard forces a transmission whenever the remaining slots
  equal the remaining units.
* StaticBurstPolicy: purchases in fixed bursts at fixed period boundaries,
  independent of queue state and prices; the classic dumb baseline.

The policy classes decide for the whole fleet at once, one vectorized call
per slot. Each parameter block names its policy: ``kind`` and ``label``
identify it in reports, and the engine instantiates the matching class.
Policy objects are single-owner and not thread-safe; reset() restores the
pristine state while preserving configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar

import numpy as np

from .env import PriceSample, SpectrumLevel
from .errors import ConfigurationError, InfeasibleError


class Action(IntEnum):
    """What one concentrator does with its slot."""

    IDLE = 0
    FREE_FULL = 1      # transmit over free spectrum at full quality
    FREE_REDUCED = 2   # transmit a reduced-quality unit over free spectrum
    BUY_FULL = 3       # lease the channel, transmit a full unit
    BUY_REDUCED = 4    # lease the channel, transmit a reduced unit

    @property
    def is_purchase(self) -> bool:
        return self in (Action.BUY_FULL, Action.BUY_REDUCED)

    @property
    def is_send(self) -> bool:
        return self is not Action.IDLE

    @property
    def is_reduced_quality(self) -> bool:
        return self in (Action.FREE_REDUCED, Action.BUY_REDUCED)


# ---------------------------------------------------------------------------
# parameter blocks


@dataclass(frozen=True)
class LyapunovParams:
    """Threshold control knobs.

    v_factor trades accumulated cost against backlog; its units are
    packets per cent because thresholds compare packet counts (Q + Z)
    against v_factor * unit_price_cents / 2. epsilon is the per-busy-slot
    increment of the virtual queue; None defers to the scenario default
    (the mean arrival rate).
    """

    kind: ClassVar[str] = "lyapunov"

    v_factor: float
    epsilon: float | None = None

    @property
    def label(self) -> str:
        return f"{self.kind}[v={self.v_factor:g}]"

    def validate(self) -> None:
        if self.v_factor < 0 or not np.isfinite(self.v_factor):
            raise ConfigurationError("v_factor must be finite and nonnegative")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive")


@dataclass(frozen=True)
class StaticParams:
    """Fixed purchase bursts: slots p+1 .. p+burst_len after each boundary
    p = 0, period, 2*period, ..."""

    kind: ClassVar[str] = "static"

    period: int = 1000
    burst_len: int = 200

    @property
    def label(self) -> str:
        return f"{self.kind}[{self.period}/{self.burst_len}]"

    def validate(self) -> None:
        if self.period < 1:
            raise ConfigurationError("static period must be >= 1 slot")
        if not 0 < self.burst_len <= self.period:
            raise ConfigurationError("burst length must lie in [1, period]")


@dataclass(frozen=True)
class QualityParams:
    """Deadline-scheduling instance: n_units to send in slots 1..deadline,
    at most quality_budget of them at reduced quality."""

    kind: ClassVar[str] = "quality"

    n_units: int
    deadline: int
    quality_budget: int
    beta_c: float = 1.0

    @property
    def label(self) -> str:
        return f"{self.kind}[m={self.quality_budget}]"

    def validate(self) -> None:
        if not self.deadline >= self.n_units > self.quality_budget >= 0:
            raise ConfigurationError(
                "quality params require deadline >= n_units > budget >= 0, got "
                f"deadline={self.deadline} n_units={self.n_units} "
                f"budget={self.quality_budget}"
            )
        if not 0.0 <= self.beta_c <= 1.0:
            raise ConfigurationError("beta_c must lie in [0, 1]")


PolicyParams = LyapunovParams | StaticParams | QualityParams


# ---------------------------------------------------------------------------
# scalar rules shared by the vectorized policies


def lyapunov_threshold(v_factor: float, price_cents: float) -> float:
    """Purchase threshold V * c / 2 for the combined queue length Q + Z."""
    if v_factor < 0:
        raise ConfigurationError("v_factor must be nonnegative")
    if price_cents <= 0:
        raise ConfigurationError("price must be positive")
    return v_factor * price_cents / 2.0


def static_decide(slot: int, params: StaticParams) -> bool:
    """True iff ``slot`` falls inside a purchase burst."""
    if slot < 1:
        return False
    return (slot - 1) % params.period < params.burst_len


class PapTracker:
    """Running purchase-attractiveness prices.

    Tracks the arithmetic mean of every posted price pair observed so far;
    the PAP thresholds are beta_c times those means. With no observations
    (or beta_c = 0) both PAPs are 0 and no price classifies as attractive.
    """

    def __init__(self, beta_c: float) -> None:
        if not 0.0 <= beta_c <= 1.0:
            raise ConfigurationError("beta_c must lie in [0, 1]")
        self.beta_c = beta_c
        self.count = 0
        self.sum_full_microcents = 0
        self.sum_reduced_microcents = 0

    def observe(self, prices: PriceSample) -> None:
        self.count += 1
        self.sum_full_microcents += prices.full_microcents
        self.sum_reduced_microcents += prices.reduced_microcents

    @property
    def pap_full_microcents(self) -> float:
        if self.count == 0:
            return 0.0
        return self.beta_c * self.sum_full_microcents / self.count

    @property
    def pap_reduced_microcents(self) -> float:
        if self.count == 0:
            return 0.0
        return self.beta_c * self.sum_reduced_microcents / self.count

    def reset(self) -> None:
        self.count = 0
        self.sum_full_microcents = 0
        self.sum_reduced_microcents = 0


# ---------------------------------------------------------------------------
# vectorized engine-facing policies

_LEVEL_REDUCED = int(SpectrumLevel.REDUCED)
_LEVEL_FULL = int(SpectrumLevel.FULL)


class BasePolicy:
    """Per-slot decision maker over all k concentrators at once.

    decide_slot returns one uint8 Action code per concentrator. The engine
    calls it exactly once per slot in slot order, then observe_prices with
    the slot's posted prices.
    """

    def reset(self, k: int) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def decide_slot(
        self,
        slot: int,
        levels: np.ndarray,
        prices: PriceSample,
        q_len: np.ndarray,
        z_len: np.ndarray,
    ) -> np.ndarray:  # pragma: no cover - overridden
        raise NotImplementedError

    def observe_prices(self, prices: PriceSample) -> None:
        pass


class _PacketPolicy(BasePolicy):
    """A policy that moves packets: service capacity per slot and the free
    capacity of each spectrum level. Q and Z live in the engine, so these
    policies keep no state between slots."""

    def __init__(
        self, params: LyapunovParams | StaticParams, capacity: int, reduced_capacity: int
    ):
        params.validate()
        self.params = params
        self.capacity = capacity
        # free packets per slot, indexed by SpectrumLevel code (NONE, REDUCED, FULL)
        self.free_capacity = np.array([0, reduced_capacity, capacity], dtype=np.int64)

    def reset(self, k: int) -> None:
        pass


class LyapunovPolicy(_PacketPolicy):
    def decide_slot(self, slot, levels, prices, q_len, z_len):
        threshold = lyapunov_threshold(self.params.v_factor, prices.full_cents)
        y = q_len + z_len
        busy = q_len > 0
        need = np.minimum(q_len, self.capacity)
        free_cap = self.free_capacity[levels]
        covered = busy & (free_cap >= need)
        buying = busy & ~covered & (y > threshold)
        partial = busy & ~covered & ~buying & (free_cap > 0)
        actions = np.zeros(len(q_len), dtype=np.uint8)
        actions[covered | partial] = int(Action.FREE_FULL)
        actions[buying] = int(Action.BUY_FULL)
        return actions


class StaticBurstPolicy(_PacketPolicy):
    def decide_slot(self, slot, levels, prices, q_len, z_len):
        busy = q_len > 0
        actions = np.zeros(len(q_len), dtype=np.uint8)
        if static_decide(slot, self.params):
            actions[busy] = int(Action.BUY_FULL)
            return actions
        actions[busy & (self.free_capacity[levels] > 0)] = int(Action.FREE_FULL)
        return actions


class QualityPolicy(BasePolicy):
    """Deadline scheduling for every concentrator, with shared PAP statistics.

    Units arrive one per slot from slot 1, so at most min(slot, n_units)
    exist, and at most one leaves per slot. Precedence: the deadline guard
    (remaining slots == remaining units) forces a transmission, free if the
    level admits one, else the cheapest admissible purchase; otherwise free
    spectrum is used greedily (reduced free sends spend budget); otherwise a
    purchase happens only at attractive prices (price <= PAP, full checked
    before reduced).

    Unit bookkeeping is internal: sent and reduced_used counters per
    concentrator, one posted price pair folded into the PAP tracker per
    slot after decisions are made (so slot t sees the mean of slots < t).
    """

    def __init__(self, params: QualityParams):
        params.validate()
        self.params = params
        self.tracker = PapTracker(params.beta_c)
        self.sent: np.ndarray = np.zeros(0, dtype=np.int64)
        self.reduced_used: np.ndarray = np.zeros(0, dtype=np.int64)

    def reset(self, k: int) -> None:
        self.tracker.reset()
        self.sent = np.zeros(k, dtype=np.int64)
        self.reduced_used = np.zeros(k, dtype=np.int64)

    def decide_slot(self, slot, levels, prices, q_len, z_len):
        p = self.params
        actions = np.zeros(len(levels), dtype=np.uint8)
        if not 1 <= slot <= p.deadline:
            return actions
        remaining = p.n_units - self.sent
        slots_remaining = p.deadline - slot + 1
        if int(remaining.max(initial=0)) > slots_remaining:
            raise InfeasibleError(
                "deadline guard breached: more units remaining than slots"
            )
        available = np.minimum(slot, p.n_units) - self.sent
        can_send = (remaining > 0) & (available > 0)
        has_budget = self.reduced_used < p.quality_budget

        forced = can_send & (remaining == slots_remaining)
        is_full = levels == _LEVEL_FULL
        is_reduced = levels == _LEVEL_REDUCED

        actions[forced & is_full] = int(Action.FREE_FULL)
        actions[forced & is_reduced & has_budget] = int(Action.FREE_REDUCED)
        actions[forced & is_reduced & ~has_budget] = int(Action.BUY_FULL)
        forced_none = forced & ~is_full & ~is_reduced
        actions[forced_none & has_budget] = int(Action.BUY_REDUCED)
        actions[forced_none & ~has_budget] = int(Action.BUY_FULL)

        relaxed = can_send & ~forced
        actions[relaxed & is_full] = int(Action.FREE_FULL)
        actions[relaxed & is_reduced & has_budget] = int(Action.FREE_REDUCED)
        # remaining relaxed concentrators shop by price
        shopping = relaxed & ~is_full & ~(is_reduced & has_budget)
        if shopping.any():
            buy_full = prices.full_microcents <= self.tracker.pap_full_microcents
            buy_reduced = (
                prices.reduced_microcents <= self.tracker.pap_reduced_microcents
            )
            if buy_full:
                actions[shopping] = int(Action.BUY_FULL)
            elif buy_reduced:
                actions[shopping & has_budget] = int(Action.BUY_REDUCED)

        sends = actions != int(Action.IDLE)
        reduced_sends = (actions == int(Action.FREE_REDUCED)) | (
            actions == int(Action.BUY_REDUCED)
        )
        self.sent += sends
        self.reduced_used += reduced_sends
        return actions

    def observe_prices(self, prices: PriceSample) -> None:
        self.tracker.observe(prices)
