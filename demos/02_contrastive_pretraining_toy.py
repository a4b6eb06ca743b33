"""
Contrastive pretraining on a toy POI map
========================================

Aligns coordinate embeddings with text embeddings of what sits at those
coordinates. After training, places that host similar venues end up
close in embedding space even when they are far apart on the map.
Run it with:  python3 demos/02_contrastive_pretraining_toy.py
"""

import numpy as np

from nextloc.calliper import CaLLiPerModel, PoiRecord, PretrainConfig
from nextloc.geoenc import GeoPoint, GridSpec
from nextloc.util import make_rng

# A toy town: two coffee districts in opposite corners, a row of offices
# in the middle, parks scattered around. 40 POIs per group, jittered.
rng = make_rng(0, "toy-town")
groups = [
    ("coffee shop with espresso and pastries", (0.0, 0.0)),
    ("coffee shop with espresso and pastries", (10.0, 10.0)),
    ("office tower with corporate tenants", (5.0, 5.0)),
    ("public park with playground and trees", (0.0, 10.0)),
    ("public park with playground and trees", (10.0, 0.0)),
]
pois = []
for gi, (desc, (cx, cy)) in enumerate(groups):
    for j in range(40):
        x = cx + rng.normal(0.0, 0.4)
        y = cy + rng.normal(0.0, 0.4)
        pois.append(PoiRecord(id=f"g{gi}_p{j}", point=GeoPoint(x, y), description=desc))

grid = GridSpec(r_min=0.1, r_max=20.0, n_scales=12)
model = CaLLiPerModel(grid, PretrainConfig(batch_size=64, epochs=120, embed_dim=32, hidden_dim=64), seed=0)
history = model.pretrain(pois)
losses = history["epoch_losses"]
print(f"loss: {losses[0]:.4f} -> {losses[-1]:.4f} over {len(losses)} epochs")

# Measure cosine similarity between the two coffee districts versus
# coffee and park. Same-category corners should be the closer pair
# despite the larger map distance.
def unit(v):
    return v / np.linalg.norm(v)

coffee_a = unit(model.encode_location(GeoPoint(0.0, 0.0)))
coffee_b = unit(model.encode_location(GeoPoint(10.0, 10.0)))
park = unit(model.encode_location(GeoPoint(0.0, 10.0)))
office = unit(model.encode_location(GeoPoint(5.0, 5.0)))

print(f"cos(coffee A, coffee B) = {coffee_a @ coffee_b:.3f}   (map distance 14.1)")
print(f"cos(coffee A, park)     = {coffee_a @ park:.3f}   (map distance 10.0)")
print(f"cos(coffee A, office)   = {coffee_a @ office:.3f}   (map distance  7.1)")

# Text queries work too: the projection head maps a description into the
# same space, so "where is coffee" becomes a nearest-neighbour lookup.
query = unit(model.embed_text("coffee shop with espresso and pastries"))
probes = {
    "coffee corner (0,0)": coffee_a,
    "coffee corner (10,10)": coffee_b,
    "office block (5,5)": office,
    "park (0,10)": park,
}
print("\nsimilarity of the coffee query against probe coordinates:")
for name, vec in sorted(probes.items(), key=lambda kv: -(query @ kv[1])):
    print(f"  {query @ vec:6.3f}  {name}")
