"""Mobility data: ingestion, preprocessing, sequences, splits, synthesis."""

from nextloc.mobdata.model import (
    DatasetSplit,
    Location,
    LocationIndex,
    MobilitySequence,
    VisitRecord,
)
from nextloc.mobdata.ingest import filter_min_counts, load_checkins
from nextloc.mobdata.sequences import (
    apply_split_manifest,
    build_sequences,
    read_sequences,
    split_conventional,
    split_inductive,
    write_sequences,
    write_split_manifest,
    read_split_manifest,
)
from nextloc.mobdata.synth import SynthCity, default_transition_matrix, generate_synthetic_city

__all__ = [
    "DatasetSplit",
    "Location",
    "LocationIndex",
    "MobilitySequence",
    "SynthCity",
    "VisitRecord",
    "apply_split_manifest",
    "build_sequences",
    "default_transition_matrix",
    "filter_min_counts",
    "generate_synthetic_city",
    "load_checkins",
    "read_sequences",
    "read_split_manifest",
    "split_conventional",
    "split_inductive",
    "write_sequences",
    "write_split_manifest",
]
