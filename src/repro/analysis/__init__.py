"""Analysis helpers: statistics and plain-text reporting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.stats": (
            "mean",
            "population_std",
            "coefficient_of_variation",
            "percentile",
            "windowed_mean",
        ),
        "repro.analysis.reporting": (
            "format_table",
            "format_comparison_rows",
            "format_campaign_summary",
        ),
    },
)
