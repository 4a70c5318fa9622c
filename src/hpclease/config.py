"""Scenario configuration: everything a reproducible run is derived from.

A ScenarioConfig pins the environment (fleet size, horizon, traffic,
price interval, spectrum statistics) plus the control epsilon and the
base seed. Policies are configured separately; the same scenario is
shared by every policy under comparison so their traces match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .env import EXACT_MICROCENTS, reduced_unit_packets, to_microcents
from .errors import ConfigurationError

ARRIVAL_LAWS = ("deterministic", "poisson")
INT16_MAX = 2**15 - 1
INT32_MAX = 2**31 - 1
# a run peaks near 10 bytes per (concentrator, slot) cell under either
# arrival law (measured), so this caps a run near 200 MB; it also keeps a
# concentrator's delay sum, below horizon**2 * unit_size_packets slots,
# inside int64
MAX_CELLS = 2**24


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable description of one simulated deployment.

    Prices are quoted in cents per packet and scaled to transmission units
    internally. ``unit_size_packets`` defaults to the
    mean arrival rate so one unit carries one slot's traffic;
    ``arrival_bound`` (packets per slot, Poisson law only) defaults to four
    times the mean, capped at the int32 limit; ``epsilon`` defaults to the
    mean arrival rate. Defaults are resolved at construction, so every field
    reads as a concrete value afterwards; with_overrides resolves them again
    from the merged fields. Construction then checks every field and
    combination (ConfigurationError naming the field), so a ScenarioConfig
    that exists is valid.
    """

    k_concentrators: int = 60
    horizon: int = 10_000
    mean_arrival: int = 5
    unit_size_packets: int | None = None
    price_low_cents: float = 0.1
    price_high_cents: float = 1.0
    reduced_fraction: float = 0.5
    arrival_law: str = "deterministic"
    arrival_bound: int | None = None
    epsilon: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        defaults = {
            "unit_size_packets": max(1, int(self.mean_arrival)),
            "arrival_bound": min(INT32_MAX, max(1, 4 * int(self.mean_arrival))),
            "epsilon": float(self.mean_arrival) if self.mean_arrival > 0 else 1.0,
        }
        derived = frozenset(name for name in defaults if getattr(self, name) is None)
        for name in derived:
            object.__setattr__(self, name, defaults[name])
        # not a field: with_overrides derives these again from the new values
        object.__setattr__(self, "_derived", derived)

        if self.k_concentrators < 1:
            raise ConfigurationError("need at least one concentrator")
        if self.horizon < 2:
            raise ConfigurationError("horizon must span at least two slots")
        if self.k_concentrators * self.horizon > MAX_CELLS:
            raise ConfigurationError(
                f"k_concentrators * horizon must be at most {MAX_CELLS} "
                f"(concentrator, slot) cells, got {self.k_concentrators} * "
                f"{self.horizon}"
            )
        if self.mean_arrival < 0:
            raise ConfigurationError("mean arrival rate cannot be negative")
        if self.unit_size_packets < 1:
            raise ConfigurationError("unit size must be at least one packet")
        # served packets per slot are stored as int16, arrivals as int32
        if self.unit_size_packets > INT16_MAX:
            raise ConfigurationError(
                f"unit_size_packets must be at most {INT16_MAX}, "
                f"got {self.unit_size_packets}"
            )
        for name in ("mean_arrival", "arrival_bound"):
            if getattr(self, name) > INT32_MAX:
                raise ConfigurationError(
                    f"{name} must be at most {INT32_MAX}, got {getattr(self, name)}"
                )
        if not 0 < self.price_low_cents < self.price_high_cents:
            raise ConfigurationError(
                "per-packet price interval must satisfy 0 < low < high, got "
                f"[{self.price_low_cents}, {self.price_high_cents}]"
            )
        # every cost sum (int64 totals and dual sums, float64 means) stays
        # exact while the fleet's dearest possible bill fits in 2**53
        if not math.isfinite(self.price_high_cents) or (
            self.k_concentrators * self.horizon * self.unit_size_packets
            * to_microcents(self.price_high_cents) > EXACT_MICROCENTS
        ):
            raise ConfigurationError(
                f"price_high_cents {self.price_high_cents} is too high: "
                "k_concentrators * horizon * unit_size_packets * price_high "
                f"must be at most {EXACT_MICROCENTS} micro-cents"
            )
        # prices are drawn in whole micro-cents
        low, high = map(to_microcents, (self.price_low_cents, self.price_high_cents))
        if not 1 <= low < high:
            raise ConfigurationError(
                f"price_low_cents {self.price_low_cents} and price_high_cents "
                f"{self.price_high_cents} must round to 1 <= low < high micro-cents"
            )
        if not 0.0 < self.reduced_fraction < 1.0:
            raise ConfigurationError("reduced_fraction must lie strictly in (0, 1)")
        reduced = reduced_unit_packets(self.unit_size_packets, self.reduced_fraction)
        if reduced >= self.unit_size_packets:
            raise ConfigurationError(
                f"unit_size_packets {self.unit_size_packets} with reduced_fraction "
                f"{self.reduced_fraction} gives a reduced unit of {reduced} "
                "packets, no smaller than the full unit"
            )
        if self.arrival_law not in ARRIVAL_LAWS:
            raise ConfigurationError(
                f"arrival_law must be one of {ARRIVAL_LAWS}, got {self.arrival_law!r}"
            )
        if self.arrival_bound < max(1, self.mean_arrival):
            raise ConfigurationError(
                "arrival_bound must be at least max(1, mean_arrival)"
            )
        if not 0 < self.epsilon < math.inf:
            raise ConfigurationError(
                f"epsilon must be finite and positive, got {self.epsilon}"
            )
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")

    def effective_arrival_bound(self) -> int:
        """Hard cap on packets arriving in one slot."""
        if self.arrival_law == "deterministic":
            return int(self.mean_arrival)
        return int(self.arrival_bound)

    def env_fields(self) -> dict:
        """The fields that determine trace content, in canonical form."""
        return {
            "arrival_bound": int(self.arrival_bound),
            "arrival_law": self.arrival_law,
            "horizon": int(self.horizon),
            "k_concentrators": int(self.k_concentrators),
            "mean_arrival": int(self.mean_arrival),
            "price_high_microcents": to_microcents(self.price_high_cents),
            "price_low_microcents": to_microcents(self.price_low_cents),
            "reduced_fraction": float(self.reduced_fraction),
            "unit_size_packets": int(self.unit_size_packets),
        }

    def env_digest(self) -> str:
        """Stable 16-hex-digit fingerprint of the environment fields.

        Excludes epsilon and seed: the same digest means two traces drawn
        with equal seeds are byte-identical.
        """
        canon = json.dumps(self.env_fields(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("scenario config must be a JSON object")
        try:
            return cls(**_coerce_fields(data))
        except TypeError as exc:
            raise ConfigurationError(f"bad scenario config: {exc}") from exc

    def with_overrides(self, **changes) -> "ScenarioConfig":
        """Copy with some fields replaced; unknown names raise. Defaults
        that were derived from mean_arrival are derived again from the
        merged fields unless an override gives them explicitly."""
        rederive = dict.fromkeys(self._derived)
        return dataclasses.replace(self, **{**rederive, **_coerce_fields(changes)})


_INT_FIELDS = frozenset(
    {
        "k_concentrators",
        "horizon",
        "mean_arrival",
        "unit_size_packets",
        "arrival_bound",
        "seed",
    }
)
_FLOAT_FIELDS = frozenset(
    {"price_low_cents", "price_high_cents", "reduced_fraction", "epsilon"}
)


def _coerce_fields(data: dict) -> dict:
    """Normalize JSON-sourced values to field types; unknown keys raise."""
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"unknown scenario fields: {', '.join(unknown)}")
    derivable = {f.name for f in dataclasses.fields(ScenarioConfig) if f.default is None}
    out = {}
    for key, value in data.items():
        if key not in _INT_FIELDS | _FLOAT_FIELDS or (value is None and key in derivable):
            out[key] = value
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"scenario field {key} must be a number, got {value!r}"
            )
        if key in _INT_FIELDS:
            if isinstance(value, float) and not value.is_integer():
                raise ConfigurationError(f"scenario field {key} must be an integer")
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out
