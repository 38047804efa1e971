"""Table and figure rendering for experiments and benchmarks."""

from .tables import (
    PaperComparison,
    Table,
    bar_chart,
    comparison_report,
    percent,
)

from .figures import Series, heatmap, line_plot, sparkline

__all__ = [
    "Series",
    "heatmap",
    "line_plot",
    "sparkline",

    "PaperComparison",
    "Table",
    "bar_chart",
    "comparison_report",
    "percent",
]
