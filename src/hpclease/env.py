"""Environment traces: spectrum availability, leasing prices, packet arrivals.

A trace fixes everything random about one simulated scenario so that every
policy can be replayed against identical conditions. Per slot it carries

* one free-spectrum level per concentrator (none / reduced / full),
* one base-station-wide leasing price, drawn per packet and expanded to
  full-size and reduced-size data-unit prices,
* one arrival batch per concentrator.

All currency is stored as integer micro-cents (1 cent = 1_000_000 micro-cents)
so accumulated costs never drift. Traces serialize to a versioned, seeded,
self-describing byte format; identical (config, seed) pairs produce
byte-identical traces.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

from .errors import TraceFormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .config import ScenarioConfig

MICROCENTS_PER_CENT = 1_000_000
MICROCENTS_PER_DOLLAR = 100 * MICROCENTS_PER_CENT
# every cost sum (int64 totals and dual sums, float64 means) is exact below this
EXACT_MICROCENTS = 2**53
# the threshold policy keeps each backlog in float64, exact up to this many
# packets: no concentrator may receive more over the horizon
EXACT_PACKETS = 2**53

TRACE_FORMAT = "hpclease.trace"
TRACE_VERSION = 1

# ceil(reduced_fraction * unit_size) is evaluated with this slack so that a
# float product like 0.3 * 10 == 2.9999999999999996 still counts as 3.
_CEIL_GUARD = 1e-9


def to_microcents(cents: float) -> int:
    """Convert a price in dollar cents to integer micro-cents."""
    return round(cents * MICROCENTS_PER_CENT)


def to_dollars(microcents: float) -> float:
    return microcents / MICROCENTS_PER_DOLLAR


class SpectrumLevel(IntEnum):
    """Free spectrum available to one concentrator in one slot."""

    NONE = 0
    REDUCED = 1
    FULL = 2


def reduced_unit_packets(unit_size_packets: int, reduced_fraction: float) -> int:
    """Packet count of a reduced-size unit: ceil(fraction * unit_size)."""
    return math.ceil(reduced_fraction * unit_size_packets - _CEIL_GUARD)


def row_blocks(k: int, horizon: int) -> list[slice]:
    """Slices of rows that cover a (k, horizon) array in blocks of about 2**16
    cells (at least one row each), so that a (rows, horizon) int64 temporary
    stays near 512 KiB however large the fleet."""
    rows = max(1, 2**16 // horizon)
    return [slice(lo, lo + rows) for lo in range(0, k, rows)]


_ARRAYS = ("levels", "arrivals", "price_packet", "price_full", "price_reduced")


@dataclass(frozen=True, eq=False)
class Trace:
    """One fully materialized scenario.

    Arrays are indexed [concentrator, slot] or [slot]:

    * levels: uint8 SpectrumLevel codes, shape (k, horizon)
    * arrivals: int32 nonnegative packet counts, shape (k, horizon), each at
      most 2**53 // horizon, so that no backlog can pass 2**53 packets
    * price_packet: int64 per-packet micro-cents, shape (horizon,)
    * price_full / price_reduced: int64 per-unit micro-cents, shape (horizon,),
      with 0 < reduced < full in every slot and full low enough that
      k * horizon of them sum exactly (at most 2**53 micro-cents)

    Construction checks all of this (TraceFormatError; the arrival error
    names the seed, concentrator and slot of the first bad count, the price
    error the seed and first bad slot). The fields are frozen and the
    arrays read-only, so a Trace stays valid for as long as it lives.
    """

    seed: int
    config_digest: str
    levels: np.ndarray
    arrivals: np.ndarray
    price_packet: np.ndarray
    price_full: np.ndarray
    price_reduced: np.ndarray

    def __post_init__(self) -> None:
        # generate_trace's dtypes; the price and queue arithmetic assumes them
        for name in _ARRAYS:
            want = np.dtype({"levels": np.uint8, "arrivals": np.int32}.get(name, np.int64))
            if getattr(getattr(self, name), "dtype", None) != want:
                raise TraceFormatError(f"trace array {name!r} is not {want}")
        if self.levels.ndim != 2 or self.arrivals.shape != self.levels.shape:
            raise TraceFormatError(
                "trace arrays 'levels' and 'arrivals' must share one (k, horizon) shape"
            )
        for name in ("price_packet", "price_full", "price_reduced"):
            if getattr(self, name).shape != (self.horizon,):
                raise TraceFormatError(f"trace array {name!r} has wrong shape")
        if int(self.levels.max(initial=0)) > int(SpectrumLevel.FULL):
            raise TraceFormatError("trace contains invalid spectrum level codes")
        # one pass over the counts: as uint32, a negative int32 reads above
        # INT32_MAX, and so above the bound
        most = min(np.iinfo(np.int32).max, EXACT_PACKETS // max(1, self.horizon))
        if int(self.arrivals.view(np.uint32).max(initial=0)) > most:
            bad = (self.arrivals < 0) | (self.arrivals > most)
            i, t = np.unravel_index(int(bad.argmax()), bad.shape)
            n = int(self.arrivals[i, t])
            if n < 0:
                what = "negative arrival counts"
            else:
                what = f"more arrivals than {most} (2**53 // horizon)"
            raise TraceFormatError(
                f"trace seed {self.seed} contains {what}: concentrator {i}, "
                f"slot {t} has {n}"
            )
        full, reduced = self.price_full, self.price_reduced
        # the scenario's bound: a fleet's bill at these prices sums exactly
        dearest = EXACT_MICROCENTS // max(1, self.k * self.horizon)
        bad = np.flatnonzero((reduced < 1) | (full <= reduced) | (full > dearest))
        if bad.size:
            t = int(bad[0])
            raise TraceFormatError(
                f"trace seed {self.seed}: slot {t} prices must satisfy 0 < reduced "
                f"< full <= {dearest} micro-cents, got full={int(full[t])} "
                f"reduced={int(reduced[t])}"
            )
        for name in _ARRAYS:
            getattr(self, name).flags.writeable = False

    @property
    def k(self) -> int:
        return int(self.levels.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.levels.shape[1])


def generate_trace(config: "ScenarioConfig", seed: int) -> Trace:
    """Draw a trace for ``config`` from the deterministic stream of ``seed``.

    Draw order is fixed (levels, packet prices, arrivals) so identical inputs
    yield byte-identical traces. Spectrum levels are equiprobable over the
    three states per concentrator per slot. The per-packet price is uniform
    over the configured closed interval, one draw per slot shared by all
    concentrators. Arrivals follow the configured law: a constant
    ``mean_arrival`` per slot, or Poisson(``mean_arrival``) clipped at
    ``arrival_bound``.
    """
    k = config.k_concentrators
    horizon = config.horizon
    lo = to_microcents(config.price_low_cents)
    hi = to_microcents(config.price_high_cents)

    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 3, size=(k, horizon), dtype=np.uint8)
    price_packet = rng.integers(lo, hi, size=horizon, dtype=np.int64, endpoint=True)

    if config.arrival_law == "deterministic":
        arrivals = np.full((k, horizon), config.mean_arrival, dtype=np.int32)
    else:
        # drawn in row blocks, the same stream as one (k, horizon) draw; the
        # del frees each int64 block before the next is drawn
        arrivals = np.empty((k, horizon), dtype=np.int32)
        for block in row_blocks(k, horizon):
            draws = rng.poisson(config.mean_arrival, size=arrivals[block].shape)
            np.minimum(draws, config.arrival_bound, out=draws)
            arrivals[block] = draws
            del draws

    reduced_packets = reduced_unit_packets(
        config.unit_size_packets, config.reduced_fraction
    )
    price_full = price_packet * config.unit_size_packets
    price_reduced = price_packet * reduced_packets

    return Trace(
        seed=seed,
        config_digest=config.env_digest(),
        levels=levels,
        arrivals=arrivals,
        price_packet=price_packet,
        price_full=price_full,
        price_reduced=price_reduced,
    )


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "b64": base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(obj["b64"].encode("ascii"), validate=True)
        arr = np.frombuffer(raw, dtype=np.dtype(obj["dtype"]))
        return arr.reshape(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"trace array {name!r} is corrupt: {exc}") from exc


def save_trace(trace: Trace) -> bytes:
    """Serialize a trace to its canonical versioned byte form."""
    envelope = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "seed": trace.seed,
        "config_digest": trace.config_digest,
        "k": trace.k,
        "horizon": trace.horizon,
        "arrays": {name: _encode_array(getattr(trace, name)) for name in _ARRAYS},
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode("utf-8")


def load_trace(data: bytes) -> Trace:
    """Parse bytes produced by save_trace. Raises TraceFormatError on damage."""
    try:
        envelope = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"not a trace file: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != TRACE_FORMAT:
        raise TraceFormatError("not a trace file: missing format marker")
    if envelope.get("version") != TRACE_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {envelope.get('version')!r}, "
            f"expected {TRACE_VERSION}"
        )
    try:
        arrays = envelope["arrays"]
        trace = Trace(
            seed=int(envelope["seed"]),
            config_digest=str(envelope["config_digest"]),
            **{name: _decode_array(arrays[name], name) for name in _ARRAYS},
        )
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"trace file is truncated or corrupt: {exc}") from exc
    if trace.levels.shape != (envelope.get("k"), envelope.get("horizon")):
        raise TraceFormatError("trace array shapes disagree with header")
    return trace
