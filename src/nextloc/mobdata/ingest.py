"""Check-in file loading and popularity filtering.

Input format: CSV with header user,location,x,y,timestamp; other columns,
such as a description, are ignored. Timestamps are either numeric UTC
seconds or ISO-8601 (naive values are taken as UTC).
"""

from __future__ import annotations

import csv
from datetime import datetime, timezone

from nextloc.geoenc import GeoPoint
from nextloc.mobdata.model import Location, LocationIndex, VisitRecord


def _parse_timestamp(raw: str) -> int:
    """Seconds since the epoch; later stages hold them as int64, so values past its range are refused."""
    text = raw.strip()
    try:
        t = int(float(text))
    except (ValueError, OverflowError):
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            raise ValueError(f"unknown timestamp format: {raw!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        t = int(dt.timestamp())
    if not -(2**63) <= t < 2**63:
        raise ValueError(f"timestamp out of range: {raw!r}")
    return t


def load_checkins(path) -> tuple[list[VisitRecord], LocationIndex]:
    """Read visits and build the location index from a check-in file."""
    required = {"user", "location", "x", "y", "timestamp"}
    records: list[tuple[str, int, int, str]] = []
    coords: dict[str, GeoPoint] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"{path}: check-in file needs columns user,location,x,y,timestamp, got {reader.fieldnames}"
            )
        for lineno, row in enumerate(reader, start=2):
            if any(row.get(col) in (None, "") for col in required):
                raise ValueError(f"{path}:{lineno}: missing value in one of {sorted(required)}")
            try:
                point = GeoPoint(float(row["x"]), float(row["y"]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad coordinate ({exc})") from None
            try:
                t = _parse_timestamp(row["timestamp"])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            loc = row["location"]
            if coords.setdefault(loc, point) != point:
                raise ValueError(f"{path}:{lineno}: location {loc!r} has conflicting coordinates")
            records.append((row["user"], t, lineno, loc))
    if not records:
        raise ValueError(f"{path}: no check-in records")
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    visits = [VisitRecord(user=u, location=l, t=t) for u, t, _, l in records]
    return visits, LocationIndex([Location(id=loc, centroid=point) for loc, point in coords.items()])


def filter_min_counts(
    records: list[VisitRecord], min_loc_visits: int = 10, min_user_records: int = 10
) -> list[VisitRecord]:
    """Drop unpopular locations and sparse users, iterated to a fixed point.

    Removing a location can pull a user below the record threshold and vice
    versa, so the two filters repeat until nothing changes. Both thresholds
    are inclusive: exactly min counts survive.
    """
    current = list(records)
    while True:
        loc_counts: dict[str, int] = {}
        for r in current:
            loc_counts[r.location] = loc_counts.get(r.location, 0) + 1
        kept = [r for r in current if loc_counts[r.location] >= min_loc_visits]
        user_counts: dict[str, int] = {}
        for r in kept:
            user_counts[r.user] = user_counts.get(r.user, 0) + 1
        kept = [r for r in kept if user_counts[r.user] >= min_user_records]
        if len(kept) == len(current):
            if not kept:
                raise ValueError("filtering removed every record")
            return kept
        current = kept
