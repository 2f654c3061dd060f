"""Post-run analyses (load balance, run reports)."""

from repro.analysis.loadbalance import (
    LoadBalanceReport,
    analyze_block_balance,
    balance_improvement,
)
from repro.analysis.report import (
    render_run_report,
    sparkline,
    warp_activity_timeline,
)

__all__ = [
    "LoadBalanceReport",
    "analyze_block_balance",
    "balance_improvement",
    "warp_activity_timeline",
    "render_run_report",
    "sparkline",
]
