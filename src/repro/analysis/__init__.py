"""Analysis: metrics aggregation and paper-figure reporting."""

from repro.analysis.comparison import GainStatistics, gain_statistics, seed_sweep
from repro.analysis.metrics import geometric_mean, summarize_gains
from repro.analysis.plotting import sparkline, timeline
from repro.analysis.reporting import format_series, format_table
from repro.analysis.sustainability import SustainabilityReport, sustainability_report

__all__ = [
    "GainStatistics",
    "SustainabilityReport",
    "format_series",
    "format_table",
    "gain_statistics",
    "geometric_mean",
    "seed_sweep",
    "sparkline",
    "summarize_gains",
    "sustainability_report",
    "timeline",
]
