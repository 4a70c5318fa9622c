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

Each policy is built from its parameter block, the scenario and the
trace, ``Policy(params, config, trace)``, and reads what it needs of
them. It decides for the whole fleet at once. The static baseline and the
deadline scheduler serve their own run: ``serve(trace)`` returns the
(K, T) uint8 Action codes, the (K, T) int16 packets served and the
backlog Q after the last slot. A code is IDLE exactly where nothing
moved. The threshold policy's grants read the backlog, so it serves in a
slot loop that carries Q (``serve_rows``), and ``threshold_actions``
recovers its codes from the packets served and the scenario. Each slot
``decide_slot`` turns the slot's row of free grants into the packets
served, min(grant, Q), and advances the virtual queues Z, and the loop
takes that row from Q and adds the slot's arrivals. Q, Z and the step's
work rows and mask are (K,) arrays allocated once per run, all float64
but the mask, and epsilon is a stride-0 view, so each slot makes only
plain in-place numpy calls that neither allocate nor cast. Q counts
exactly because a ScenarioConfig and a Trace bound a concentrator's
arrivals over the horizon by 2**53. The loop walks the horizon in blocks
of about 2**14 cells. It reads each block once into slot-major (slots, K)
float64 rows: the level's free capacity goes straight into the block of
packets served, which ``decide_slot`` raises and caps row by row in
place, and the arrivals into a second block; the served block then goes
into the (K, T) int16 matrix once.

The loop has a run axis: a LyapunovPolicy built from a tuple of R
parameter blocks serves R runs on one trace (``serve_rows``), one run
being a batch of one, stepping each slot once for all of them on flat
(R * K,) rows, run r's concentrators at r * K to (r + 1) * K. Each slot
block of the trace is read once, its free grant and arrivals repeated
across the runs, and its threshold rows built from the (T, R) thresholds
(``slot_thresholds``). A batch's codes come from the scenario
(``threshold_actions``), so the loop's state, Z included, goes with the
policy when the loop ends. The static baseline and the deadline scheduler
never read the backlog: each grants every slot at once, and
``serve_grants`` serves the (K, T) grants in closed form, by the Lindley
recursion (one prefix sum and one running minimum per row).

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
(``threshold_actions`` by comparing them with the level's free capacity);
the deadline scheduler decides its codes and grants a unit to every send.
A policy object serves once, one run or one batch of threshold runs;
the next run builds a new one.
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

# Action codes as uint8 scalars: a (K, T) uint8 matrix compares with one
# several times faster than with an IntEnum member
_IDLE, _FREE_FULL, _FREE_REDUCED, _BUY_FULL, _BUY_REDUCED = (np.uint8(a) for a in Action)

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


def slot_thresholds(threshold: np.ndarray, block: slice, k: int) -> np.ndarray:
    """The step's rows of the (T, R) ``threshold`` for the slots of
    ``block``, each run's repeated over its K concentrators: a stride-0
    view for one run, which takes no memory, one block copy for more."""
    column = threshold[block, :, None]
    rows, runs = column.shape[:2]
    return np.broadcast_to(column, (rows, runs, k)).reshape(rows, runs * k)


class LyapunovPolicy:
    """Purchases when Q + Z exceeds threshold[slot] = V * c / 2, with c the
    slot's full-unit price in cents, unless the level's free capacity covers
    the slot's service; without a purchase, any free capacity is used.

    A purchase grants a full unit. On a slot whose free capacity covers
    min(Q, unit) that moves the same packets as the free send, so the
    grant needs no coverage test; the codes do: a slot was a purchase
    exactly when it moved more than the level's free capacity.

    While it serves, the policy holds each concentrator's virtual queue Z,
    a flat float64 row. Each slot, after the grant, Z drops by the packets
    served and grows by epsilon if the concentrator was busy, floored at 0.

    Built from a tuple of R parameter blocks, or from one (R = 1), it
    serves R runs on the trace in one slot loop. ``threshold`` is (T, R),
    and every row of the step is R * K long, run r's concentrators at
    r * K to (r + 1) * K, flat rather than (R, K), since a ufunc call costs
    less on one flat row."""

    def __init__(
        self,
        params: LyapunovParams | tuple[LyapunovParams, ...],
        config: ScenarioConfig,
        trace: Trace,
    ):
        self.free_capacity = free_capacities(config)
        blocks = params if isinstance(params, tuple) else (params,)
        price_cents = trace.price_full / MICROCENTS_PER_CENT
        self.threshold = np.multiply.outer(price_cents, [p.v_factor for p in blocks]) / 2.0
        self.runs = len(blocks)
        self.epsilon = config.epsilon
        width = self.runs * trace.k
        self.z = np.zeros(width)
        # the slot step's float64 rows and mask, allocated once per policy;
        # the epsilon row is a stride-0 view, which takes no memory and
        # which a ufunc reads without a copy (the unit and zero rows stay
        # whole: putmask copies a stride-0 value row, and maximum reads a
        # stride-0 zero measurably slower)
        self.epsilon_row = np.broadcast_to(self.epsilon, width)
        self.unit = np.full(width, float(config.unit_size_packets))
        self.zero = np.zeros(width)
        self.work = np.empty(width)
        self.buy = np.empty(width, dtype=bool)

    def serve_rows(self, trace: Trace):
        """Serve every run: the (R * K, T) int16 packets served and the
        (R * K,) int64 backlog Q after the last slot, run r in rows r * K
        to (r + 1) * K. A policy serves once; its Z and thresholds are
        left as the last slot left them."""
        k, runs = trace.k, self.runs
        # the backlog Q in float64, exact while no concentrator's arrivals
        # can sum past 2**53 (a ScenarioConfig and a Trace both refuse more)
        q = np.zeros(runs * k)
        serves = np.empty((runs * k, trace.horizon), dtype=np.int16)
        free = self.free_capacity.astype(np.float64)
        # slots in blocks of about 2**14 cells of the step's rows (the row
        # blocks of the (T, R * K) transpose at 4 * R * K columns), each read
        # once into two slot-major float64 blocks, the free grant that
        # becomes the packets served and the arrivals, so that no slot
        # reads or writes a strided column of a (K, T) array or casts
        for block in row_blocks(trace.horizon, 4 * runs * k):
            slots = range(trace.horizon)[block]
            # the block's threshold rows, row i for slot first_slot + i,
            # built first, so that the last block's never meet its reads
            self.thresholds = slot_thresholds(self.threshold, block, k)
            self.first_slot = block.start
            # the arrivals block holds the level codes as intp until the
            # arrivals are read into it, so that take makes no index copy
            arrivals = np.empty((len(slots), k))
            level_index = arrivals.view(np.intp)
            np.copyto(level_index, trace.levels[:, block].T)
            served = free.take(level_index)
            np.copyto(arrivals, trace.arrivals[:, block].T)
            if runs > 1:
                # one read of the trace serves every run of the batch
                served = np.tile(served, runs)
                arrivals = np.tile(arrivals, runs)
            for slot, moved, arrived in zip(slots, served, arrivals):
                self.decide_slot(slot, q, moved)
                q -= moved
                q += arrived
            serves[:, block] = served.T
            # drop both blocks, which the last rows also hold, before the
            # next is read: one-slot blocks of a wide fleet would peak at two
            del served, arrivals, level_index, moved, arrived
        return serves, q.astype(np.int64)

    def decide_slot(self, slot, q, served):
        """Turn ``served``, the slot's free grant, into the packets each
        concentrator moves in ``slot``: raised to a unit where Q + Z exceeds
        the threshold, then at most the backlog ``q``; then advance Z past
        them. Every row is a flat float64 array, of R * K for R runs, and
        every call is a plain one in place, so a slot neither allocates nor
        casts.

        Z grows by min(Q * epsilon, epsilon), which is epsilon * [Q > 0]
        exactly: Q counts whole packets, so a busy Q * epsilon rounds to at
        least epsilon (and stays finite, Q <= 2**53), and an idle one is
        +0.0, which leaves Z unchanged since Z is never -0.0."""
        z, work, buy = self.z, self.work, self.buy
        np.add(q, z, out=work)
        np.greater(work, self.thresholds[slot - self.first_slot], out=buy)
        np.putmask(served, buy, self.unit)
        np.minimum(q, served, out=served)
        # in the order of max(Z - served + epsilon * busy, 0)
        np.subtract(z, served, out=z)
        np.multiply(q, self.epsilon_row, out=work)
        np.minimum(work, self.epsilon_row, out=work)
        np.add(z, work, out=z)
        np.maximum(z, self.zero, out=z)


def threshold_actions(config: ScenarioConfig, serves, levels):
    """A threshold run's (K, T) uint8 Action codes, from its packets served."""
    # a slot bought exactly when it moved more than the level frees, so
    # its code is 2 * bought + moved: BUY_FULL, FREE_FULL or IDLE
    free = free_capacities(config).astype(np.int16)
    codes = np.empty(serves.shape, dtype=np.uint8)
    for block in row_blocks(*serves.shape):
        sent, code = serves[block], codes[block]
        np.greater(sent, free.take(levels[block]), out=code)
        code *= _BUY_FULL - _FREE_FULL
        code += sent > 0
    return codes


class StaticBurstPolicy:
    """Every busy concentrator buys in the slots of a burst and uses free
    spectrum otherwise; in_burst[slot] marks the burst slots of the run."""

    def __init__(self, params: StaticParams, config: ScenarioConfig, trace: Trace):
        self.capacity = config.unit_size_packets
        self.free_capacity = free_capacities(config)
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
