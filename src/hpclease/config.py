"""Scenario configuration: everything a reproducible run is derived from.

A ScenarioConfig pins the environment (fleet size, horizon, traffic,
price interval, spectrum statistics) plus the control epsilon and the
base seed. Policies are configured separately; the same scenario is
shared by every policy under comparison so their traces match.

check_field_types is the package's one type rule: each value class types its
numeric fields when built, on every construction path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass

from .env import EXACT_MICROCENTS, EXACT_PACKETS, reduced_unit_packets, to_microcents
from .errors import ConfigurationError

ARRIVAL_LAWS = ("deterministic", "poisson")
INT16_MAX = 2**15 - 1
INT32_MAX = 2**31 - 1
# a run peaks near 10 bytes per (concentrator, slot) cell under either
# arrival law (measured), so this caps a run near 200 MB; it also keeps a
# concentrator's delay sum, below horizon**2 * unit_size_packets slots,
# inside int64
MAX_CELLS = 2**24
# bounds epsilon and v_factor, so that (horizon + 1) * epsilon and v_factor
# times a unit price of at most 2**53 micro-cents stay finite
MAX_WEIGHT = 1e290


def check_field_types(value: object, owner: str | None = None) -> None:
    """Give each int or float field of dataclass ``value`` its annotated type,
    in place: an integral number (np.int64(5), 40.0) becomes an int, a real
    number in a float field a float; None stays only as a ``| None`` default.
    Anything else raises ConfigurationError naming ``owner`` and the field."""
    for field in dataclasses.fields(value):
        kind = field.type.removesuffix(" | None")
        x = getattr(value, field.name)
        if kind not in ("int", "float") or (x is None and field.default is None):
            continue
        name = f"{owner or type(value).__name__} field {field.name}"
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ConfigurationError(f"{name} must be a number, got {x!r}")
        try:
            typed = int(x) if kind == "int" else float(x)
        except (OverflowError, ValueError) as exc:  # inf, nan or past the float range
            raise ConfigurationError(f"{name} must be finite, got {x!r}") from exc
        if kind == "int" and typed != x:
            raise ConfigurationError(f"{name} must be an integer, got {x!r}")
        object.__setattr__(value, field.name, typed)


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable description of one simulated deployment.

    Prices are quoted in cents per packet and scaled to transmission units
    internally. ``unit_size_packets`` defaults to the
    mean arrival rate so one unit carries one slot's traffic;
    ``arrival_bound`` (packets per slot, Poisson law only) defaults to four
    times the mean, capped at the int32 limit; ``epsilon`` defaults to the
    mean arrival rate. Construction types each numeric field
    (check_field_types), resolves the defaults (with_overrides resolves them
    again from the merged fields), then checks every field and combination
    (ConfigurationError naming the field), so a ScenarioConfig that exists
    is valid and every field reads as a concrete int, float or string.
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
        check_field_types(self, "scenario")
        defaults = {
            "unit_size_packets": max(1, self.mean_arrival),
            "arrival_bound": min(INT32_MAX, max(1, 4 * self.mean_arrival)),
            "epsilon": float(self.mean_arrival or 1),
        }
        derived = frozenset(name for name in defaults if getattr(self, name) is None)
        for name in derived:
            object.__setattr__(self, name, defaults[name])
        # not a field: with_overrides derives these again from the new values
        object.__setattr__(self, "_derived", derived)

        if self.k_concentrators < 1:
            raise ConfigurationError("k_concentrators: need at least one concentrator")
        if self.horizon < 2:
            raise ConfigurationError("horizon must span at least two slots")
        if self.k_concentrators * self.horizon > MAX_CELLS:
            raise ConfigurationError(
                f"k_concentrators * horizon must be at most {MAX_CELLS} "
                f"(concentrator, slot) cells, got {self.k_concentrators} * "
                f"{self.horizon}"
            )
        if self.mean_arrival < 0:
            raise ConfigurationError("mean_arrival: mean arrival rate cannot be negative")
        if self.unit_size_packets < 1:
            raise ConfigurationError(
                "unit_size_packets: unit size must be at least one packet"
            )
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
                f"price_low_cents {self.price_low_cents}, "
                f"price_high_cents {self.price_high_cents}"
            )
        # every cost sum (int64 totals and dual sums, float64 means) stays
        # exact while the fleet's dearest possible bill fits in 2**53
        if not self.price_high_cents <= EXACT_MICROCENTS or (
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
        # the threshold policy's float64 backlog stays exact while no
        # concentrator can receive more than 2**53 packets over the horizon
        name = "mean_arrival" if self.arrival_law == "deterministic" else "arrival_bound"
        most = getattr(self, name)
        if self.horizon * most > EXACT_PACKETS:
            raise ConfigurationError(
                f"horizon * {name} must be at most {EXACT_PACKETS} packets, got "
                f"{self.horizon} * {most}"
            )
        if not 0 < self.epsilon <= MAX_WEIGHT:
            raise ConfigurationError(
                f"epsilon must be finite, in (0, {MAX_WEIGHT:g}], got {self.epsilon}"
            )
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")

    def env_fields(self) -> dict:
        """The fields that determine trace content, in canonical form."""
        return {
            "arrival_bound": self.arrival_bound,
            "arrival_law": self.arrival_law,
            "horizon": self.horizon,
            "k_concentrators": self.k_concentrators,
            "mean_arrival": self.mean_arrival,
            "price_high_microcents": to_microcents(self.price_high_cents),
            "price_low_microcents": to_microcents(self.price_low_cents),
            "reduced_fraction": self.reduced_fraction,
            "unit_size_packets": self.unit_size_packets,
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
        return cls(**_known_fields(data))

    def with_overrides(self, **changes) -> "ScenarioConfig":
        """Copy with some fields replaced; unknown names raise. Defaults
        that were derived from mean_arrival are derived again from the
        merged fields unless an override gives them explicitly."""
        rederive = dict.fromkeys(self._derived)
        return dataclasses.replace(self, **{**rederive, **_known_fields(changes)})


def _known_fields(data: dict) -> dict:
    """``data`` itself, once every key is a ScenarioConfig field."""
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(ScenarioConfig)})
    if unknown:
        raise ConfigurationError(f"unknown scenario fields: {', '.join(unknown)}")
    return data
