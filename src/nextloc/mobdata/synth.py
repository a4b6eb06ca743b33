"""Synthetic city generator for desk-scale experiments.

The city has categories anchored in spatial regions: every location belongs
to one category and sits near that category's regional center. Each user
follows a category-level Markov routine (the chain state carries across
days) and, within a category, visits a small personal pool of favorite
locations at fixed times of day. This yields data that is predictable
enough for a sequence model while exercising category/region structure.

Everything is a pure function of the seed: files regenerate byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nextloc.util import make_rng, sha256_file, stable_json, write_atomic

# Monday 2023-01-02 00:00:00 UTC; a Monday start keeps day-of-week patterns aligned
EPOCH0 = 1672617600

CATEGORY_WORDS = [
    "home", "office", "restaurant", "park", "gym", "market",
    "school", "clinic", "bar", "museum", "library", "cinema",
]
FLAVOR_WORDS = [
    "north", "south", "east", "west", "old", "new",
    "grand", "little", "upper", "lower", "royal", "corner",
]


def default_transition_matrix(n_categories: int) -> np.ndarray:
    """Circulant chain: sticky self, strong flow to the next category,
    the rest spread evenly. Doubly stochastic, so category visits are
    uniform in the long run and every transition row gets exercised.
    """
    c = n_categories
    if c < 1:
        raise ValueError("need at least one category")
    if c == 1:
        return np.ones((1, 1))
    if c == 2:
        return np.array([[0.6, 0.4], [0.4, 0.6]])
    t = np.full((c, c), 0.4 / (c - 2))
    for i in range(c):
        t[i, i] = 0.3
        t[i, (i + 1) % c] = 0.3
    return t


@dataclass
class SynthCity:
    checkins_path: Path
    pois_path: Path
    meta_path: Path
    categories: list[str]
    transition: np.ndarray
    location_category: dict[str, str]
    n_visits: int

    def hashes(self) -> dict[str, str]:
        return {
            "checkins": sha256_file(self.checkins_path),
            "pois": sha256_file(self.pois_path),
        }


def generate_synthetic_city(
    seed: int,
    n_users: int,
    n_locations: int,
    n_categories: int,
    days: int,
    visits_per_day: int = 2,
    out_dir="synth_city",
) -> SynthCity:
    if min(n_users, n_locations, n_categories, days, visits_per_day) < 1:
        raise ValueError("all sizes must be positive")
    if n_locations < n_categories:
        raise ValueError("need at least one location per category")
    if visits_per_day > 12:
        raise ValueError("at most 12 visits per day keeps time slots ordered")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = make_rng(seed, "synth-city")

    categories = [
        CATEGORY_WORDS[i] if i < len(CATEGORY_WORDS) else f"category{i}" for i in range(n_categories)
    ]
    transition = default_transition_matrix(n_categories)

    # locations: category regions on a circle, Gaussian scatter inside
    angles = 2.0 * np.pi * np.arange(n_categories) / n_categories
    centers = 6.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    loc_ids = [f"loc{i:04d}" for i in range(n_locations)]
    loc_category_idx = np.array([i % n_categories for i in range(n_locations)])
    coords = centers[loc_category_idx] + rng.normal(0.0, 0.8, size=(n_locations, 2))
    descriptions = [
        f"{FLAVOR_WORDS[int(rng.integers(len(FLAVOR_WORDS)))]} {categories[loc_category_idx[i]]} {i:03d}"
        for i in range(n_locations)
    ]

    by_category = [np.flatnonzero(loc_category_idx == c) for c in range(n_categories)]
    # popularity within a category decays by rank, so holdout sampling later
    # hits a mix of popular and rare places
    pool_weights = [1.0 / (np.arange(len(members)) + 1.0) ** 0.9 for members in by_category]

    rows: list[tuple[str, int, int]] = []  # user, location index, timestamp
    for u in range(n_users):
        user = f"u{u:03d}"
        favorites = []
        for c in range(n_categories):
            members = by_category[c]
            w = pool_weights[c] / pool_weights[c].sum()
            if len(members) == 1:
                favorites.append((members[0], members[0]))
            else:
                pick = rng.choice(members, size=2, replace=False, p=w)
                favorites.append((int(pick[0]), int(pick[1])))
        state = int(rng.integers(n_categories))
        for day in range(days):
            for v in range(visits_per_day):
                state = int(rng.choice(n_categories, p=transition[state]))
                primary, secondary = favorites[state]
                loc = primary if rng.random() < 0.8 else secondary
                hour = 8.0 + 12.0 * (v + 0.5) / visits_per_day + rng.uniform(-0.4, 0.4)
                t = EPOCH0 + day * 86400 + int(hour * 3600)
                rows.append((user, loc, t))

    xy = [f"{float(coords[i, 0])!r},{float(coords[i, 1])!r}" for i in range(n_locations)]
    checkins_path = out / "checkins.csv"
    write_atomic(checkins_path, "user,location,x,y,timestamp\n" + "".join(
        f"{user},{loc_ids[i]},{xy[i]},{t}\n" for user, i, t in rows
    ))
    pois_path = out / "pois.csv"
    write_atomic(pois_path, "id,x,y,description\n" + "".join(
        f"{loc},{xy[i]},{descriptions[i]}\n" for i, loc in enumerate(loc_ids)
    ))

    location_category = {loc_ids[i]: categories[loc_category_idx[i]] for i in range(n_locations)}
    meta = {
        "seed": seed,
        "n_users": n_users,
        "n_locations": n_locations,
        "n_categories": n_categories,
        "days": days,
        "visits_per_day": visits_per_day,
        "epoch0": EPOCH0,
        "categories": categories,
        "transition": [[float(x) for x in row] for row in transition],
        "location_category": location_category,
    }
    meta_path = out / "meta.json"
    write_atomic(meta_path, stable_json(meta))

    return SynthCity(
        checkins_path=checkins_path,
        pois_path=pois_path,
        meta_path=meta_path,
        categories=categories,
        transition=transition,
        location_category=location_category,
        n_visits=len(rows),
    )
