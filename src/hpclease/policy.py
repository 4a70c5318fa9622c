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

Each policy is built from its parameter block, the scenario and the trace,
``Policy(params, config, trace)``, and reads what it needs of them. It
decides for the whole fleet at once, and serves its own run:
``serve(trace)`` returns the (K, T) uint8 Action codes, the (K, T) int16
packets served and the backlog Q after the last slot. A code is IDLE
exactly where nothing moved. The threshold policy's grants read the
backlog, so it serves in a slot loop that carries Q: each slot
``decide_slot`` writes the slot's row of packets served, min(grant, Q), and
advances the virtual queues Z, and the loop takes that row from Q and
adds the slot's arrivals. Q, Z and the step's work rows and masks are
(K,) arrays allocated once per run, all float64 but the masks, so each
slot makes only in-place numpy calls that neither allocate nor cast. Q
counts exactly because a ScenarioConfig and a Trace bound a
concentrator's arrivals over the horizon by 2**53. The loop walks the
horizon in blocks of about 2**14 cells, each read once into slot-major
(slots, K) float64 rows of free capacity and arrivals, and writes the
packets served into a slot-major block that goes into the (K, T) int16
matrix once. The static
baseline and the deadline scheduler never read the backlog: each grants
every slot at once, and ``serve_grants`` serves the (K, T) grants in
closed form, by the Lindley recursion (one prefix sum and one running
minimum per row).

Each parameter block checks its values when built (its numeric fields take
their annotated types by ``config.check_field_types``) and names its policy:
``kind`` and ``label`` identify it in reports. Whatever depends only on the
trace and the parameters is computed for every slot when a policy is built:
the purchase threshold, whether the posted prices are at most their PAP,
and whether a slot lies in a static burst. A grant is then a few array
operations: the level's free capacity, raised to a unit where the
concentrator buys, per slot for the threshold policy, the burst
flag or the level's free capacity for the static baseline, and for the
deadline scheduler one lookup in ``QUALITY_TABLE`` per slot, decided phase
by phase. The packet policies recover each code from the packets served
(the threshold policy by comparing them with the level's free capacity);
the deadline scheduler decides its codes and grants a unit to every send.
A policy object serves one run; the next run builds a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar

import numpy as np

from .config import MAX_WEIGHT, ScenarioConfig, check_field_types
from .env import MICROCENTS_PER_CENT, Trace, row_blocks
from .errors import ConfigurationError


class Action(IntEnum):
    """What one concentrator does with its slot."""

    IDLE = 0
    FREE_FULL = 1      # transmit over free spectrum at full quality
    FREE_REDUCED = 2   # transmit a reduced-quality unit over free spectrum
    BUY_FULL = 3       # lease the channel, transmit a full unit
    BUY_REDUCED = 4    # lease the channel, transmit a reduced unit


# ---------------------------------------------------------------------------
# parameter blocks


@dataclass(frozen=True)
class LyapunovParams:
    """Threshold control knobs.

    v_factor trades accumulated cost against backlog; its units are
    packets per cent because thresholds compare packet counts (Q + Z)
    against v_factor * unit_price_cents / 2. The per-busy-slot increment
    of the virtual queue is the scenario's epsilon.
    """

    kind: ClassVar[str] = "lyapunov"

    v_factor: float = 1.0

    @property
    def label(self) -> str:
        return f"{self.kind}[v={self.v_factor:g}]"

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0 <= self.v_factor <= MAX_WEIGHT:
            raise ConfigurationError(f"v_factor must lie in [0, {MAX_WEIGHT:g}]")


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

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.period < 1:
            raise ConfigurationError("static period must be >= 1 slot")
        if not 0 < self.burst_len <= self.period:
            raise ConfigurationError("burst_len: burst length must lie in [1, period]")


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

    def __post_init__(self) -> None:
        check_field_types(self)
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
# rules shared by the vectorized policies


def attractive_prices(prices: np.ndarray, beta_c: float) -> np.ndarray:
    """Per slot t, whether prices[t] is at most its purchase-attractiveness
    price, beta_c times the mean of prices[:t]; never at t = 0, which has no
    earlier price. Prices are int64 micro-cents whose sum stays below 2**53,
    so each prefix sum converts to float64 exactly and beta_c * sum / t
    rounds as the scalar running mean does."""
    attractive = np.zeros(prices.shape, dtype=bool)
    earlier = np.arange(1, prices.size)
    attractive[1:] = prices[1:] <= beta_c * np.cumsum(prices)[:-1] / earlier
    return attractive


def serve_grants(grants: np.ndarray, arrivals: np.ndarray):
    """Serve min(Q, grant) in every slot of a (K, T) int16 grant matrix; the
    packets served overwrite the grants, and Q after the last slot is
    returned with them.

    The backlog u_t after slot t's service obeys the Lindley recursion
    u_t = max(u_{t-1} + a_{t-1} - g_t, 0), with u_{-1} = a_{-1} = 0. With
    S_t the prefix sum of a_{t-1} - g_t and m_t the running minimum of
    min(S_t, 0), u_t = S_t - m_t: slot t serves its grant less the part an
    empty queue left unused, g_t - (m_{t-1} - m_t), and Q after the last
    slot is u_{T-1} + a_{T-1}.
    """
    k, horizon = grants.shape
    q = np.empty(k, dtype=np.int64)
    for block in row_blocks(k, horizon):
        m = np.zeros(grants[block].shape, dtype=np.int64)
        m[:, 1:] = arrivals[block, :-1]
        m -= grants[block]
        np.cumsum(m, axis=1, out=m)
        q[block] = m[:, -1] + arrivals[block, -1]
        np.minimum(m, 0, out=m)
        np.minimum.accumulate(m, axis=1, out=m)
        q[block] -= m[:, -1]
        grants[block, 0] += m[:, 0]
        grants[block, 1:] += np.diff(m, axis=1)
    return grants, q


# ---------------------------------------------------------------------------
# vectorized engine-facing policies

_IDLE, _FREE_FULL, _BUY_FULL = (
    np.uint8(a) for a in (Action.IDLE, Action.FREE_FULL, Action.BUY_FULL)
)

# whether an Action code sends a reduced-quality unit
IS_REDUCED = np.array([a in (Action.FREE_REDUCED, Action.BUY_REDUCED) for a in Action])

# The deadline scheduler's rule as Action codes (0 IDLE, 1 FREE_FULL,
# 2 FREE_REDUCED, 3 BUY_FULL, 4 BUY_REDUCED), indexed
# QUALITY_TABLE[price_class][state * 6 + level * 2 + has_budget]:
# * price_class is 0 when the full price is attractive, 1 when only the
#   reduced price is, 2 when neither is;
# * state is 0 when the concentrator cannot send, 1 when it may, 2 when the
#   deadline guard forces it;
# * level is the SpectrumLevel code: 0 NONE, 1 REDUCED, 2 FULL; each level
#   is a (no budget, budget) pair of columns.
QUALITY_TABLE = np.array(
    [
        # cannot send      may send          forced
        #  N     R     F     N     R     F     N     R     F
        [0, 0, 0, 0, 0, 0, 3, 3, 3, 2, 1, 1, 3, 4, 3, 2, 1, 1],  # full attractive
        [0, 0, 0, 0, 0, 0, 0, 4, 0, 2, 1, 1, 3, 4, 3, 2, 1, 1],  # only reduced
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 1, 3, 4, 3, 2, 1, 1],  # neither
    ],
    dtype=np.uint8,
)


def reduced_capacity(config: ScenarioConfig) -> int:
    """Free packets per slot on reduced-level spectrum, for packet policies."""
    # guard against float dust in the product before flooring
    return math.floor(config.reduced_fraction * config.unit_size_packets + 1e-9)


def free_capacities(config: ScenarioConfig) -> np.ndarray:
    """Free packets per slot of each spectrum level, for packet policies,
    indexed by SpectrumLevel code (NONE, REDUCED, FULL)."""
    unit = config.unit_size_packets
    return np.array([0, reduced_capacity(config), unit], dtype=np.int64)


class _PacketPolicy:
    """A policy that moves packets: service capacity per slot (one unit)
    and the free capacity of each spectrum level."""

    def __init__(self, params: LyapunovParams | StaticParams, config: ScenarioConfig):
        self.params = params
        self.capacity = config.unit_size_packets
        self.free_capacity = free_capacities(config)


class LyapunovPolicy(_PacketPolicy):
    """Purchases when Q + Z exceeds threshold[slot] = V * c / 2, with c the
    slot's full-unit price in cents, unless the level's free capacity covers
    the slot's service; without a purchase, any free capacity is used.

    A purchase grants a full unit. On a slot whose free capacity covers
    min(Q, unit) that moves the same packets as the free send, so the
    grant needs no coverage test; the codes do: a slot was a purchase
    exactly when it moved more than the level's free capacity.

    The policy holds each concentrator's virtual queue Z, a (K,) float64
    array. Each slot, after the grant, Z drops by the packets served and
    grows by epsilon if the concentrator was busy, floored at 0."""

    def __init__(self, params: LyapunovParams, config: ScenarioConfig, trace: Trace):
        super().__init__(params, config)
        price_cents = trace.price_full / MICROCENTS_PER_CENT
        self.threshold = params.v_factor * price_cents / 2.0
        self.epsilon = config.epsilon
        k = trace.k
        self.z = np.zeros(k)
        # the slot step's float64 rows and masks, allocated once per run
        self.unit = np.full(k, float(self.capacity))
        self.epsilon_row = np.full(k, self.epsilon)
        self.zero = np.zeros(k)
        self.work = np.empty(k)
        self.buy = np.empty(k, dtype=bool)
        self.busy = np.empty(k, dtype=bool)

    def serve(self, trace: Trace):
        # the backlog Q in float64, exact while no concentrator's arrivals
        # can sum past 2**53 (a ScenarioConfig and a Trace both refuse more)
        q = np.zeros(trace.k)
        serves = np.empty((trace.k, trace.horizon), dtype=np.int16)
        free = self.free_capacity.astype(np.float64)
        # slots in blocks of about 2**14 cells (the row blocks of the (T, K)
        # transpose at 4 * K columns), each read once into slot-major
        # (slots, K) float64 rows of free capacity and arrivals, so that no
        # slot reads or writes a strided column of a (K, T) array or casts
        for block in row_blocks(trace.horizon, 4 * trace.k):
            free_rows = free.take(trace.levels[:, block].T)
            arrivals = np.ascontiguousarray(trace.arrivals[:, block].T, dtype=np.float64)
            served = np.empty(free_rows.shape)
            slots = range(trace.horizon)[block]
            for slot, free_row, moved, arrived in zip(slots, free_rows, served, arrivals):
                self.decide_slot(slot, free_row, q, moved)
                q -= moved
                q += arrived
            serves[:, block] = served.T
        return self.actions(serves, trace.levels), serves, q.astype(np.int64)

    def decide_slot(self, slot, free, q, served):
        """Write into ``served`` the packets each concentrator moves in
        ``slot``: the slot's free capacity ``free``, raised to a unit where
        Q + Z exceeds the threshold, and at most the backlog ``q``; then
        advance Z past them. Every row is a (K,) float64 array and every
        call works in place, so a slot neither allocates nor casts."""
        z, work, buy, busy = self.z, self.work, self.buy, self.busy
        np.add(q, z, out=work)
        np.greater(work, self.threshold[slot], out=buy)
        np.copyto(served, free)
        np.copyto(served, self.unit, where=buy)
        np.minimum(q, served, out=served)
        # in the order of max(Z - served + epsilon * busy, 0)
        np.subtract(z, served, out=z)
        np.greater(q, self.zero, out=busy)
        np.add(z, self.epsilon_row, out=z, where=busy)
        np.maximum(z, self.zero, out=z)

    def actions(self, serves, levels):
        # a slot bought exactly when it moved more than the level frees, so
        # its code is 2 * bought + moved: BUY_FULL, FREE_FULL or IDLE
        free = self.free_capacity.astype(np.int16)
        codes = np.empty(serves.shape, dtype=np.uint8)
        for block in row_blocks(*serves.shape):
            sent, code = serves[block], codes[block]
            np.greater(sent, free.take(levels[block]), out=code)
            code *= _BUY_FULL - _FREE_FULL
            code += sent > 0
        return codes


class StaticBurstPolicy(_PacketPolicy):
    """Every busy concentrator buys in the slots of a burst and uses free
    spectrum otherwise; in_burst[slot] marks the burst slots of the run."""

    def __init__(self, params: StaticParams, config: ScenarioConfig, trace: Trace):
        super().__init__(params, config)
        slots = np.arange(trace.horizon)
        self.in_burst = (slots >= 1) & ((slots - 1) % params.period < params.burst_len)

    def serve(self, trace: Trace):
        serves, q = serve_grants(self.grants(trace.levels), trace.arrivals)
        return self.actions(serves, trace.levels), serves, q

    def grants(self, levels):
        grants = self.free_capacity.astype(np.int16)[levels]
        grants[:, self.in_burst] = self.capacity
        return grants

    def actions(self, serves, levels):
        # IDLE (0) where nothing moved; a move leased in a burst, else was free
        sending = np.where(self.in_burst, _BUY_FULL, _FREE_FULL)
        codes = np.empty(serves.shape, dtype=np.uint8)
        for block in row_blocks(*serves.shape):
            np.multiply(serves[block] > 0, sending, out=codes[block])
        return codes


def _first(hits: np.ndarray, missing: int) -> np.ndarray:
    """Per row, the column of the first True in ``hits``, else ``missing``."""
    return np.where(hits.any(axis=1), hits.argmax(axis=1), missing)


class QualityPolicy:
    """Deadline scheduling for a fleet of k concentrators.

    Units arrive one per slot from slot 1, so at most min(slot, n_units)
    exist, and at most one leaves per slot. Precedence: the deadline guard
    (remaining slots == remaining units) forces a transmission, free if the
    level admits one, else the cheapest admissible purchase; otherwise free
    spectrum is used greedily (reduced free sends spend budget); otherwise a
    purchase happens only at attractive prices (price <= PAP, full checked
    before reduced).

    QUALITY_TABLE holds that rule for every combination of its inputs. The
    PAP tests of every slot come from the run's price arrays (slot t
    compares with the mean of slots < t) and fold into one price class per
    slot. A slot's decision is one table lookup, given whether the
    concentrator may or must send and whether budget remains. A forced
    concentrator always sends, so the guard keeps every deadline. Every
    send grants one unit; the run's codes are the decided ones, since the
    packets served cannot tell a full unit from a reduced one.

    The rule never reads the packet backlog, so ``schedule`` decides every
    slot at once, phase by phase (see ``_schedule``).
    """

    def __init__(self, params: QualityParams, config: ScenarioConfig, trace: Trace):
        self.params = params
        self.capacity = config.unit_size_packets
        self.attractive_full = attractive_prices(trace.price_full, params.beta_c)
        self.attractive_reduced = attractive_prices(trace.price_reduced, params.beta_c)
        self.price_class = np.where(
            self.attractive_full, 0, np.where(self.attractive_reduced, 1, 2)
        )

    def serve(self, trace: Trace):
        codes = self.schedule(trace.levels)
        grants = np.minimum(codes, 1, dtype=np.int16)
        grants *= self.capacity
        serves, q = serve_grants(grants, trace.arrivals)
        return codes, serves, q

    def schedule(self, levels):
        """The (K, T) uint8 Action codes of a run on ``levels``."""
        codes = np.zeros(levels.shape, dtype=np.uint8)
        for block in row_blocks(*levels.shape):
            self._schedule(levels[block], codes[block])
        return codes

    def _schedule(self, levels, codes):
        """Write the Action codes of a block of rows into ``codes``.

        While a row's deadline guard and budget flag stay fixed, a phase,
        its code in slot t is QUALITY_TABLE[price_class[t]][6 * state +
        2 * level + has_budget] whenever it has a unit to send, and IDLE
        otherwise. Its unit backlog (one arrival per slot in slots
        1..n_units, service 0 or 1) then follows the Lindley recursion,
        from prefix sums. Each pass runs every unfinished row to its next
        phase change: the first slot at which the guard binds (it binds
        from then on) or the slot after its reduced units reach the
        budget. A row changes phase at most twice.
        """
        p = self.params
        rows, horizon = levels.shape
        slot = np.arange(horizon, dtype=np.int32)
        arrived = np.minimum(slot, p.n_units)  # units that exist at each slot
        guard = p.n_units - p.deadline - 1  # sent - slot, before a forced slot
        start = np.ones(rows, dtype=np.int32)  # the phase's first slot
        sent = np.zeros(rows, dtype=np.int32)  # units sent before it
        used = np.zeros(rows, dtype=np.int32)  # reduced units sent before it
        forced = np.full(rows, p.n_units == p.deadline)
        funded = np.full(rows, p.quality_budget > 0)
        live = np.arange(rows)
        for _ in range(3):  # a row changes phase at most twice
            if not live.size:
                break
            ahead = slot >= start[live, None]
            window = ahead & (slot <= p.deadline)
            cell = (6 + 6 * forced[live] + funded[live]).astype(np.uint8)
            phase = QUALITY_TABLE[self.price_class, 2 * levels[live] + cell[:, None]]
            phase[~window] = _IDLE
            # units sent in the phase through each slot: the sends the rule
            # wants, less those that found no unit (the Lindley recursion)
            done = np.cumsum(phase != _IDLE, axis=1, dtype=np.int32)
            missed = arrived - sent[live, None] - done
            np.minimum(missed, 0, out=missed)
            missed[~ahead] = 0
            np.minimum.accumulate(missed, axis=1, out=missed)
            done += missed
            del missed
            # slot 0 never sends, so a slot sent exactly where done grew
            phase[:, 1:][done[:, 1:] == done[:, :-1]] = _IDLE
            reduced = np.cumsum(IS_REDUCED[phase], axis=1, dtype=np.int32)
            binds = sent[live, None] - slot
            binds[:, 1:] += done[:, :-1]
            binds = (binds == guard) & window
            binds[forced[live]] = False
            spent = (used[live, None] + reduced >= p.quality_budget) & window
            spent[~funded[live]] = False
            end = np.minimum(
                _first(binds, p.deadline + 1), _first(spent, p.deadline) + 1
            )
            phase[slot >= end[:, None]] = _IDLE
            codes[live] += phase
            last = (end - 1)[:, None]
            sent[live] += np.take_along_axis(done, last, axis=1)[:, 0]
            used[live] += np.take_along_axis(reduced, last, axis=1)[:, 0]
            start[live] = end
            forced[live] = sent[live] - end == guard
            funded[live] = used[live] < p.quality_budget
            live = live[end <= p.deadline]


# the policy class that each type of parameter block configures
POLICIES = {
    LyapunovParams: LyapunovPolicy,
    StaticParams: StaticBurstPolicy,
    QualityParams: QualityPolicy,
}
