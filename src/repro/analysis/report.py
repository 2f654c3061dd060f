"""One-shot text dashboard for a single DiggerBees run.

``render_run_report`` collects what one traversal recorded — throughput,
steal traffic at both levels, block balance, and, for a traced run, an
ASCII timeline of its visit events — into a single printable report.
Every figure is a counter or a trace event of the run; nothing is
estimated.  Used by examples and handy in a REPL::

    print(render_run_report(run_diggerbees(g, 0, config=cfg)))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.loadbalance import analyze_block_balance
from repro.core.diggerbees import DiggerBeesResult
from repro.utils.tables import format_kv

__all__ = ["render_run_report", "sparkline", "warp_activity_timeline"]

_BARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 50) -> str:
    """Render a value series as a unicode sparkline of ``width`` chars.

    Values are re-bucketed to ``width`` columns (sums preserved) and
    scaled to eight bar heights; an empty series renders empty.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if not values:
        return ""
    buckets = [0.0] * min(width, len(values))
    for i, v in enumerate(values):
        buckets[i * len(buckets) // len(values)] += float(v)
    top = max(buckets)
    if top <= 0:
        return _BARS[0] * len(buckets)
    return "".join(_BARS[min(8, int(9 * b / top))] for b in buckets)


def warp_activity_timeline(result: DiggerBeesResult,
                           bucket_cycles: Optional[int] = None) -> Dict[int, int]:
    """Histogram of *visit* events over time (requires ``trace=True``).

    Returns ``{bucket_start_cycle: visits}``; the ramp-up / drain shape
    of the traversal.  Raises ``ValueError`` when the run kept no trace.
    """
    if result.trace is None:
        raise ValueError("run with DiggerBeesConfig(trace=True) to get a timeline")
    visits = result.trace.filter(kind="visit")
    if not visits:
        return {}
    if bucket_cycles is None:
        bucket_cycles = max(1, result.cycles // 50)
    hist: Dict[int, int] = {}
    for ev in visits:
        bucket = (ev.time // bucket_cycles) * bucket_cycles
        hist[bucket] = hist.get(bucket, 0) + 1
    return dict(sorted(hist.items()))


def render_run_report(result: DiggerBeesResult) -> str:
    """Full text report for one run (see module docstring)."""
    c = result.counters
    cfg = result.config
    lines: List[str] = []
    lines.append(f"=== DiggerBees run report ({result.device.name}, "
                 f"{cfg.n_blocks} blocks x {cfg.warps_per_block} warps"
                 + (f" on {cfg.n_gpus} GPUs" if cfg.n_gpus > 1 else "")
                 + ") ===")
    lines.append(format_kv([
        ("throughput", f"{result.mteps:.1f} MTEPS"),
        ("simulated time", f"{result.seconds * 1e6:.1f} us"
                           f" ({result.cycles} cycles)"),
        ("visited / edges", f"{result.n_visited} / "
                            f"{result.traversal.edges_traversed}"),
    ]))

    lines.append("\nstealing:")
    lines.append(format_kv([
        ("intra-block", f"{c.intra_steal_successes} ok / "
                        f"{c.intra_steal_attempts} attempts "
                        f"({c.intra_steal_entries} entries)"),
        ("inter-block", f"{c.inter_steal_successes} ok / "
                        f"{c.inter_steal_attempts} attempts "
                        f"({c.inter_steal_entries} entries)"),
        ("remote (NVLink)", f"{c.remote_steal_successes} ok "
                            f"({c.remote_steal_entries} entries)"),
        ("flush / refill", f"{c.flushes} / {c.refills} batches"),
    ]))

    balance = analyze_block_balance(c, cfg.n_blocks, include_idle=True)
    lines.append("\nblock balance (tasks/block):")
    lines.append(format_kv([
        ("min / median / max", f"{balance.min:.0f} / {balance.median:.0f} "
                               f"/ {balance.max:.0f}"),
        ("coefficient of variation", f"{balance.variation:.2f}"),
        ("active blocks", f"{balance.active_blocks}/{cfg.n_blocks}"),
    ]))

    if result.trace is not None:
        hist = warp_activity_timeline(result)
        if hist:
            lines.append("\nvisit activity over time:")
            lines.append("  " + sparkline(list(hist.values())))
    return "\n".join(lines)
