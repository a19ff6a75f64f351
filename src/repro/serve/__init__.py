"""Tuned-decision serving: sharded decision store + high-traffic queries.

The HAN economics (paper III-C) only pay off when the expensive offline
search is amortized: tune once per hardware band, answer every runtime
``(collective, nbytes, commsize)`` query from a table.  This package is
that production story:

- :mod:`repro.serve.store` -- :class:`DecisionStore`, a sharded,
  mergeable, content-addressed store of tuned decisions (one shard per
  (machine band, collective); append-only JSONL segments with
  merge/compaction, reusing the
  :mod:`repro.tuning.cache` digest contract);
- :mod:`repro.serve.service` -- :class:`DecisionService`, the batched
  query API: O(1) exact point hits, log-scale nearest/interpolated
  fallback for never-measured points, provenance stamps on every answer
  and a guideline verdict (:func:`validate_decision`, judged by the
  :mod:`repro.obs.insights` guideline catalog) before anything is
  served;
- :mod:`repro.serve.warm` -- pre-populate shards from
  :class:`~repro.tuning.autotuner.Autotuner` sweeps over a fleet of
  machine presets;
- ``python -m repro.serve.cli`` -- ``warm`` / ``serve`` / ``merge``
  front end.
"""

from repro.serve.service import (
    Decision,
    DecisionService,
    Query,
    Verdict,
    validate_decision,
)
from repro.serve.store import (
    SERVE_SCHEMA_VERSION,
    DecisionStore,
    band_digest,
    decision_record,
    point_key,
)
from repro.serve.warm import parse_fleet, warm_store

__all__ = [
    "Decision",
    "DecisionService",
    "DecisionStore",
    "Query",
    "SERVE_SCHEMA_VERSION",
    "Verdict",
    "band_digest",
    "decision_record",
    "parse_fleet",
    "point_key",
    "validate_decision",
    "warm_store",
]
