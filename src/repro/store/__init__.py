"""Persistence layer: reduction artifacts and the content-addressed
model store.

This package is the disk half of the paper's offline/online split —
reduce once (:meth:`ModelStore.reduce` computes on a miss, serves from
disk on a hit), then answer distortion/response queries on the reloaded
ROM in any later process.  See :mod:`repro.pipeline` for the one-call
API that routes through it and ``python -m repro`` for the CLI.
"""

from .artifact import (
    SCHEMA_VERSION,
    ReductionArtifact,
    SchemaMismatchError,
    reducer_provenance,
)
from .modelstore import (
    ModelStore,
    artifact_key,
    fingerprint_system,
    parse_budget,
    parse_ttl,
    reducer_fingerprint,
)

__all__ = [
    "SCHEMA_VERSION",
    "ReductionArtifact",
    "SchemaMismatchError",
    "reducer_provenance",
    "ModelStore",
    "artifact_key",
    "fingerprint_system",
    "parse_budget",
    "parse_ttl",
    "reducer_fingerprint",
]
