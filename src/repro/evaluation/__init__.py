"""Evaluation harness: metrics, experiment runner, tables and figure series.

Each artifact of the paper's evaluation section maps to a function here:

* Figure 4(a)-(c) / Table 4 — :func:`search_space_percentiles`
* Figure 4(d)-(f)           — :func:`synthesis_rate_distribution`
* Figure 4(g)-(i) / Table 3 — :func:`time_percentiles`
* Table 2                   — :class:`AblationRunner`
* Figure 5                  — :func:`singleton_vs_list_breakdown`
* Figure 6                  — :func:`per_function_synthesis_rate`
* Figure 7                  — :func:`confusion_matrix`, training histories
"""

from repro.evaluation.metrics import (
    RunRecord,
    MethodSummary,
    percentile_curve,
    search_space_percentiles,
    synthesis_percentage,
    synthesis_rate_by_task,
    synthesis_rate_distribution,
    time_percentiles,
)
from repro.evaluation.confusion import confusion_matrix, confusion_from_model
from repro.evaluation.runner import (
    AblationRow,
    AblationRunner,
    EvaluationReport,
    EvaluationRunner,
)
from repro.evaluation.tables import format_percentile_table, format_ablation_table
from repro.evaluation.figures import (
    fig4_search_space_series,
    fig4_synthesis_rate_series,
    fig4_time_series,
    fig5_singleton_vs_list,
    fig6_function_breakdown,
    fig7_model_quality,
)

__all__ = [
    "RunRecord",
    "MethodSummary",
    "percentile_curve",
    "search_space_percentiles",
    "synthesis_percentage",
    "synthesis_rate_by_task",
    "synthesis_rate_distribution",
    "time_percentiles",
    "confusion_matrix",
    "confusion_from_model",
    "EvaluationRunner",
    "EvaluationReport",
    "AblationRunner",
    "AblationRow",
    "format_percentile_table",
    "format_ablation_table",
    "fig4_search_space_series",
    "fig4_synthesis_rate_series",
    "fig4_time_series",
    "fig5_singleton_vs_list",
    "fig6_function_breakdown",
    "fig7_model_quality",
]
