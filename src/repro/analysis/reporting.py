"""Plain-text table formatting for experiment output.

The experiment drivers print their results as ASCII tables shaped like the
paper's tables, so a user can eyeball paper-vs-reproduction side by side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover — annotations only: rendering needs no import
    from repro.campaign.results import CampaignResult
    from repro.sim.comparison import ComparisonRow


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render ``rows`` under ``headers`` as a fixed-width ASCII table."""
    rendered_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for column, cell in enumerate(row):
            if column < len(widths):
                widths[column] = max(widths[column], len(cell))
            else:
                widths.append(len(cell))

    def render_line(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[i]) for i, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(separator)
    lines.append(render_line(list(headers)))
    lines.append(separator)
    for row in rendered_rows:
        lines.append(render_line(row))
    lines.append(separator)
    return "\n".join(lines)


def format_comparison_rows(rows: Sequence[ComparisonRow], title: str = "") -> str:
    """Render Table-I-style comparison rows as an ASCII table."""
    return format_table(
        headers=["Methodology", "Normalized energy", "Normalized performance"],
        rows=[
            (row.methodology, f"{row.normalized_energy:.2f}", f"{row.normalized_performance:.2f}")
            for row in rows
        ],
        title=title,
    )


def format_campaign_summary(
    store: "CampaignResult", title: str = "", cache_stats: Optional[dict] = None
) -> str:
    """Render a campaign result store as a failure-aware ASCII table.

    ``done`` scenarios show their headline metrics and the engine backend
    that produced them (``result.engine_used``); ``failed`` ones show the
    captured error (first line, truncated) in place of numbers, plus the
    attempt count — so a partially failed campaign reads at a glance.
    A done/failed tally follows the table.

    ``cache_stats`` (the executor's ``table_cache_stats()`` dict, keys
    ``hits``/``misses``/``evictions``) appends a physics-table cache line:
    the hit rate is a direct readout of how well the campaign grid's
    scenario order lines up with the shared precomputed tables.
    """
    rows: List[Sequence[str]] = []
    for outcome in store:
        if outcome.ok and outcome.result is not None:
            result = outcome.result
            # Summaries without materialising per-frame records: the
            # metrics cached by the columnar store when present (no frame
            # access at all — a lazily loaded store stays on metadata),
            # the result's own summary, computed once, otherwise.
            summary = outcome.metrics_summary()
            normalized_performance = (
                summary.average_frame_time_s / result.reference_time_s
            )
            rows.append(
                (
                    outcome.label,
                    outcome.status,
                    result.engine_used or "-",
                    f"{summary.total_energy_j:.2f}",
                    f"{normalized_performance:.2f}",
                    f"{summary.deadline_miss_ratio:.1%}",
                    str(outcome.attempts),
                    "",
                )
            )
        else:
            error = (outcome.error or "unknown error").splitlines()[0]
            if len(error) > 60:
                error = error[:57] + "..."
            rows.append(
                (
                    outcome.label,
                    outcome.status,
                    "-",
                    "-",
                    "-",
                    "-",
                    str(outcome.attempts),
                    error,
                )
            )
    table = format_table(
        headers=[
            "Scenario",
            "Status",
            "Engine",
            "Energy (J)",
            "Norm. perf",
            "Miss",
            "Attempts",
            "Error",
        ],
        rows=rows,
        title=title or f"campaign {store.campaign_name!r}",
    )
    done, failed = len(store.done()), len(store.failed())
    tally = f"{done} done, {failed} failed of {len(store)} scenarios"
    if cache_stats is not None:
        hits = cache_stats.get("hits", 0)
        misses = cache_stats.get("misses", 0)
        evictions = cache_stats.get("evictions", 0)
        lookups = hits + misses
        rate = f" ({hits / lookups:.0%} hit rate)" if lookups else ""
        tally += (
            f"\nphysics-table cache: {hits} hits, {misses} misses, "
            f"{evictions} evictions{rate}"
        )
    return f"{table}\n{tally}"
