"""Core mobility types: visits, locations, sequences, splits."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from nextloc.geoenc import GeoPoint
from nextloc.util import sha256_text, stable_json


@dataclass(frozen=True)
class VisitRecord:
    user: str
    location: str
    t: int  # UTC seconds


@dataclass(frozen=True)
class Location:
    id: str
    centroid: GeoPoint


class LocationIndex:
    """Bijective mapping between location ids and contiguous class indices.

    Ordering is by sorted id, so the index (and anything keyed by class
    numbers) is stable no matter the construction order.
    """

    def __init__(self, locations: list[Location]):
        ordered = sorted(locations, key=lambda loc: loc.id)
        ids = [loc.id for loc in ordered]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate location ids: {dupes}")
        self._locations = ordered
        self._class_of = {loc.id: i for i, loc in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self._locations)

    def __iter__(self):
        return iter(self._locations)

    def ids(self) -> list[str]:
        return [loc.id for loc in self._locations]

    def class_of(self, location_id: str) -> int:
        try:
            return self._class_of[location_id]
        except KeyError:
            raise KeyError(f"unknown location id: {location_id!r}") from None

    def location(self, location_id: str) -> Location:
        return self._locations[self.class_of(location_id)]

    def to_dict(self) -> dict:
        return {"locations": [{"id": loc.id, "centroid": [loc.centroid.x, loc.centroid.y]} for loc in self._locations]}

    @classmethod
    def from_dict(cls, d: dict) -> "LocationIndex":
        return cls([Location(id=entry["id"], centroid=GeoPoint(*entry["centroid"])) for entry in d["locations"]])

    def content_hash(self) -> str:
        return sha256_text(stable_json(self.to_dict()))


@dataclass(frozen=True)
class MobilitySequence:
    user: str
    visits: tuple[tuple[str, int], ...]  # (location id, UTC seconds), time-ascending
    target_location: str
    target_t: int

    def __post_init__(self):
        if not self.visits:
            raise ValueError("sequence needs a non-empty context")
        times = [t for _, t in self.visits]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("context visits must be time-ascending")
        if times[-1] >= self.target_t:
            raise ValueError("context visits must strictly precede the target")

    @cached_property
    def id(self) -> str:
        """Content-addressed id, so manifests can replay a split exactly."""
        body = stable_json([self.user, [[l, t] for l, t in self.visits], self.target_location, self.target_t])
        return sha256_text(body)[:16]

    def location_ids(self) -> set[str]:
        return {l for l, _ in self.visits} | {self.target_location}

    def to_dict(self) -> dict:
        return {
            "user": self.user,
            "visits": [[l, t] for l, t in self.visits],
            "target_location": self.target_location,
            "target_t": self.target_t,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MobilitySequence":
        return cls(
            user=d["user"],
            visits=tuple((l, int(t)) for l, t in d["visits"]),
            target_location=d["target_location"],
            target_t=int(d["target_t"]),
        )


@dataclass
class DatasetSplit:
    train: list[MobilitySequence]
    validation: list[MobilitySequence]
    test: list[MobilitySequence]
    mode: str  # "conventional" | "inductive"
    l_new: frozenset[str] = field(default_factory=frozenset)
    seed: int | None = None
    digest: str | None = None  # manifest digest of a split rebuilt from its manifest

    def __post_init__(self):
        if self.mode not in ("conventional", "inductive"):
            raise ValueError(f"unknown split mode: {self.mode!r}")
        if self.mode == "conventional" and self.l_new:
            raise ValueError("conventional split cannot carry removed locations")
