"""
Projecting the embedding space onto paper
=========================================

Pretrains the coordinate encoder on a synthetic city's POI corpus, then
flattens every location's embedding to two dimensions and writes an SVG
scatter colored by venue category. If the contrastive alignment worked,
same-category venues form visible clumps even though the encoder only
ever saw coordinates and text.
Run it with:  python3 demos/06_embedding_atlas.py
"""

import tempfile
from pathlib import Path

import numpy as np

from nextloc.calliper import (
    CaLLiPerModel,
    HashedNgramEmbedder,
    PretrainConfig,
    read_poi_file,
)
from nextloc.evaluation import project_2d, projection_svg
from nextloc.geoenc import GridSpec
from nextloc.mobdata import generate_synthetic_city

root = Path(tempfile.mkdtemp(prefix="atlas_demo_"))
city = generate_synthetic_city(
    seed=11, n_users=10, n_locations=60, n_categories=5, days=30, out_dir=root / "city"
)
pois = read_poi_file(city.pois_path)
print(f"{len(pois)} POIs across categories {city.categories}")

grid = GridSpec(0.1, 20.0, 16)
cfg = PretrainConfig(batch_size=64, epochs=60, embed_dim=64, hidden_dim=128)
model = CaLLiPerModel(grid, HashedNgramEmbedder(dim=512), embed_dim=64, hidden_dim=128, seed=0)
history = model.pretrain(pois, cfg)
print(f"pretraining loss {history['epoch_losses'][0]:.3f} -> {history['epoch_losses'][-1]:.3f}")

# One embedding per location, labeled by the category the city assigned.
coords = np.array([[p.point.x, p.point.y] for p in pois])
embeddings = model.encode_location(coords)
labels = [city.location_category[p.id] for p in pois]

proj = project_2d(embeddings, labels)
share = proj.explained_variance.sum() / proj.total_variance
print(f"two components keep {share:.0%} of the embedding variance")

svg_path = root / "atlas.svg"
svg_path.write_text(projection_svg(proj), encoding="utf-8")
print(f"wrote {svg_path}")

# Quick numeric check that categories cluster: mean distance in the
# projected plane between same-category pairs versus different-category.
xy = proj.coords
same, diff = [], []
for i in range(len(labels)):
    for j in range(i + 1, len(labels)):
        d = np.linalg.norm(xy[i] - xy[j])
        (same if labels[i] == labels[j] else diff).append(d)
print(f"mean projected distance, same category:      {np.mean(same):.3f}")
print(f"mean projected distance, different category: {np.mean(diff):.3f}")
