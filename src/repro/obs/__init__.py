"""repro.obs — observability for the simulated HAN stack.

- :mod:`repro.obs.core`: the :class:`ObsRecorder` (spans, counters,
  message records, metrics registry) that attaches to an engine as
  ``engine.obs``;
- :mod:`repro.obs.metrics`: the aggregate metrics plane (counters,
  gauges, fixed-bucket histograms with span-id exemplars);
- :mod:`repro.obs.store`: the cross-run observatory — a sharded,
  compactable append-only store of run summaries under
  ``results/store/`` with a ``tail()`` change feed;
- :mod:`repro.obs.insights`: automated performance-insight checks
  (guidelines, straggler skew, MAD-band regressions) and the
  incremental :class:`InsightEngine` behind them;
- :mod:`repro.obs.severity`: PICO-style severity grading (cost in
  seconds/bytes, warn/error by relative excess);
- :mod:`repro.obs.fleet`: cross-machine rollup report over one or
  several run stores;
- :mod:`repro.obs.export`: Chrome ``trace_event`` (Perfetto) export,
  JSONL run records, resource timelines;
- :mod:`repro.obs.critpath`: critical-path extraction, phase overlap,
  run diffing;
- :mod:`repro.obs.record`: one-call observed collective runs;
- :mod:`repro.obs.cli`: ``python -m repro.obs.cli record|insights|...``.
"""

from repro.obs.core import (
    CounterSample,
    MessageRecord,
    ObsRecorder,
    RunRecord,
    Span,
)
from repro.obs.critpath import (
    CriticalPath,
    CritSegment,
    critical_path,
    diff_runs,
    phase_overlap,
    phase_totals,
)
from repro.obs.export import (
    chrome_trace,
    load_jsonl,
    resource_timeline,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.fleet import fleet_report, format_fleet
from repro.obs.insights import (
    Insight,
    InsightEngine,
    check_regressions,
    format_insights,
    guideline_insights,
    interference_insight,
    quick_workload,
    run_insights,
    straggler_insight,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from repro.obs.severity import Severity, grade_excess, severity
from repro.obs.store import (
    RunStore,
    band_digest,
    config_digest,
    run_key,
    summarize_measurement,
    summarize_point,
    traffic_digest,
)

__all__ = [
    "Counter",
    "CounterSample",
    "CriticalPath",
    "CritSegment",
    "Gauge",
    "Histogram",
    "Insight",
    "InsightEngine",
    "MessageRecord",
    "MetricsRegistry",
    "ObsRecorder",
    "RunRecord",
    "RunStore",
    "Severity",
    "Span",
    "band_digest",
    "check_regressions",
    "chrome_trace",
    "config_digest",
    "critical_path",
    "diff_runs",
    "fleet_report",
    "format_fleet",
    "format_insights",
    "grade_excess",
    "guideline_insights",
    "interference_insight",
    "load_jsonl",
    "merge_registries",
    "phase_overlap",
    "phase_totals",
    "quick_workload",
    "resource_timeline",
    "run_insights",
    "run_key",
    "severity",
    "summarize_measurement",
    "summarize_point",
    "traffic_digest",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
