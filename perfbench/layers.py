"""Per-layer metrics from a traced run's spans.

Every workload reports every metric in :data:`PER_LAYER`; a layer the
workload bypasses reads 0.  Spans are restricted to the measured window
except for set-up layers (corpus, shm export, regime profiling, the
sweep's pool start), which run before it.  A layer's self time is its
span minus the part its child spans cover.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

TIERS = ("dfs_scalar", "hive", "swarm", "frontier")
REASONS = ("forced", "config-pinned", "degenerate", "calibrated", "regime")
BACKENDS = ("dfs", "frontier", "swarm")
METHODS = ("CKL-PDFS", "ACR-PDFS", "NVG-DFS", "DiggerBees", "Gunrock",
           "BerryBees")
END_TO_END = ("setup_s", "p50_ms", "p99_ms", "throughput_qps",
              "cpu_ms_per_op", "peak_rss_mb")

#: The shared 2-vCPU host runs everything up to half again slower for
#: minutes at a time (a code-independent loop, ``daemon.host_ref_ms``,
#: slows with it), which would swamp the regression bounds.  Each run
#: times that loop between its cycles or passes, and the end-to-end
#: times are reported as if the loop had taken HOST_REF_NOMINAL_MS: times
#: scale by nominal/measured, rates by its inverse, memory not at all.
#: The raw values are printed beside them.
HOST_REF_NOMINAL_MS = 20.0
_SPEED_POWER = {"setup_s": 1, "p50_ms": 1, "p99_ms": 1, "cpu_ms_per_op": 1,
                "throughput_qps": -1, "peak_rss_mb": 0}


def at_reference_speed(metrics: Dict[str, float],
                       host_ref_ms: float) -> Dict[str, float]:
    f = HOST_REF_NOMINAL_MS / host_ref_ms
    return {k: v * f ** _SPEED_POWER[k] for k, v in metrics.items()}


#: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "protocol.decode_us": "us", "protocol.encode_us": "us",
    "protocol.resp_kb": "KB",
    "server.outside_ms.p50": "ms", "server.outside_ms.p99": "ms",
    "server.write_us": "us", "server.loop_lag_ms.p99": "ms",
    "cache.hit_ratio": "ratio", "cache.get_us": "us",
    "cache.put_us": "us", "cache.spill_ms": "ms", "cache.spills": "count",
    "cache.spill_mb": "MB",
    "admission.wait_ms.p50": "ms", "admission.wait_ms.p99": "ms",
    "admission.width_mean": "queries", "admission.full_frac": "ratio",
    "exec.queue_ms.p50": "ms", "exec.queue_ms.p99": "ms",
    "dispatch.route_us": "us", "dispatch.regime_ms": "ms",
    **{f"dispatch.reason.{r}": "ratio" for r in REASONS},
    **{f"dispatch.backend.{b}": "ratio" for b in BACKENDS},
    **{f"engine.{t}.{m}": u for t in TIERS
       for m, u in (("ms_per_query", "ms"), ("width_mean", "queries"),
                    ("calls", "count"))},
    "payload.build_ms": "ms",
    "corpus.load_s": "s", "corpus.build_s": "s", "shm.export_ms": "ms",
    "harness.pool_start_s": "s", "harness.shm_export_ms": "ms",
    "harness.idle_frac": "ratio",
    **{f"method.{m}.ms_per_sample": "ms" for m in METHODS},
    "sim.steps_per_s": "1/s",
    "loadgen.late_p99_ms": "ms",
    "trace.accounted_frac": "ratio", "trace.within_tol_frac": "ratio",
    **{f"overhead.{m}": u for m, u in (
        ("setup_s", "s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
        ("throughput_qps", "1/s"), ("cpu_ms_per_op", "ms"),
        ("peak_rss_mb", "MB"))},
}

#: A query's spans account for its daemon-side ``elapsed_ms`` when they
#: cover it to within this share or this many milliseconds; a traced
#: serve-interactive or serve-burst run fails unless at least
#: ACCOUNT_MIN_SHARE of its queries are accounted for.
ACCOUNT_TOL_FRAC = 0.10
ACCOUNT_TOL_MS = 0.5
ACCOUNT_MIN_SHARE = 0.90

#: Spans that lie on a query's path inside the daemon, in order.
QUERY_PATH = ("dispatch.route", "cache.get", "admission.wait", "exec.queue",
              "exec.run", "exec.resume", "server.settle")


def pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class Spans:
    """Index over span rows ``[sid, parent, name, rid, t0, t1, attrs]``."""

    def __init__(self, rows: List[list], window: Optional[tuple] = None):
        self.rows = rows
        self.window = window
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        self.children: Dict[int, List[list]] = defaultdict(list)
        self.by_id: Dict[int, list] = {}
        for r in rows:
            self.by_name[r[2]].append(r)
            self.children[r[1]].append(r)
            self.by_id[r[0]] = r

    def get(self, name: str, windowed: bool = True) -> List[list]:
        rows = self.by_name.get(name, [])
        if windowed and self.window is not None:
            lo, hi = self.window
            rows = [r for r in rows if lo <= r[4] <= hi]
        return rows

    def under(self, row: list, name: str) -> bool:
        """True when ``row`` has an ancestor called ``name``."""
        parent = self.by_id.get(row[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def self_ns(self, row: list) -> int:
        covered = sum(min(c[5], row[5]) - max(c[4], row[4])
                      for c in self.children.get(row[0], ())
                      if c[5] > row[4] and c[4] < row[5])
        return row[5] - row[4] - covered


def _dur_ms(rows) -> List[float]:
    return [(r[5] - r[4]) / 1e6 for r in rows]


def _attr(row, key, default=0):
    return (row[6] or {}).get(key, default)


def daemon_metrics(sp: Spans, samples: Dict[str, list]) -> Dict[str, float]:
    m: Dict[str, float] = {}
    m["protocol.decode_us"] = median(_dur_ms(sp.get("protocol.decode"))) * 1e3
    enc = sp.get("protocol.encode")
    m["protocol.encode_us"] = median(_dur_ms(enc)) * 1e3
    m["protocol.resp_kb"] = mean(_attr(r, "bytes") for r in enc) / 1024.0
    m["server.write_us"] = median(_dur_ms(sp.get("server.write"))) * 1e3
    lo, hi = sp.window or (float("-inf"), float("inf"))
    lag = [v for t, v in samples.get("loop_lag_ms", []) if lo <= t <= hi]
    m["server.loop_lag_ms.p99"] = pct(lag, 99)

    gets = sp.get("cache.get")
    hits = sum(1 for r in gets if _attr(r, "hit", False))
    m["cache.hit_ratio"] = hits / len(gets) if gets else 0.0
    m["cache.get_us"] = median(_dur_ms(gets)) * 1e3
    m["cache.put_us"] = median(sp.self_ns(r) / 1e3
                               for r in sp.get("cache.put"))
    spills = sp.get("cache.spill")
    m["cache.spill_ms"] = median(_dur_ms(spills))
    m["cache.spills"] = float(len(spills))
    m["cache.spill_mb"] = sum(_attr(r, "bytes") for r in spills) / 1e6

    waits = _dur_ms(sp.get("admission.wait"))
    m["admission.wait_ms.p50"] = median(waits)
    m["admission.wait_ms.p99"] = pct(waits, 99)
    flushes = sp.get("admission.flush")
    m["admission.width_mean"] = mean(_attr(r, "width") for r in flushes)
    m["admission.full_frac"] = (
        sum(1 for r in flushes if _attr(r, "reason") == "full")
        / len(flushes) if flushes else 0.0)
    queue = _dur_ms(sp.get("exec.queue"))
    m["exec.queue_ms.p50"] = median(queue)
    m["exec.queue_ms.p99"] = pct(queue, 99)
    m["payload.build_ms"] = mean(_dur_ms(sp.get("payload.build")))
    return m


def common_metrics(sp: Spans) -> Dict[str, float]:
    m: Dict[str, float] = {}
    routes = sp.get("dispatch.route")
    m["dispatch.route_us"] = median(_dur_ms(routes)) * 1e3
    m["dispatch.regime_ms"] = mean(_dur_ms(sp.get("dispatch.regime", False)))
    for reason in REASONS:
        m[f"dispatch.reason.{reason}"] = (
            sum(1 for r in routes if _attr(r, "reason") == reason)
            / len(routes) if routes else 0.0)
    for backend in BACKENDS:
        m[f"dispatch.backend.{backend}"] = (
            sum(1 for r in routes if _attr(r, "backend") == backend)
            / len(routes) if routes else 0.0)
    for tier in TIERS:
        rows = sp.get(f"engine.{tier}")
        width = sum(_attr(r, "width", 1) for r in rows)
        m[f"engine.{tier}.calls"] = float(len(rows))
        m[f"engine.{tier}.width_mean"] = width / len(rows) if rows else 0.0
        m[f"engine.{tier}.ms_per_query"] = (
            sum(_dur_ms(rows)) / width if width else 0.0)
    dfs = sp.get("engine.dfs_scalar")
    busy = sum(_dur_ms(dfs)) / 1e3
    m["sim.steps_per_s"] = (sum(_attr(r, "steps") for r in dfs) / busy
                            if busy else 0.0)

    loads = sp.get("corpus.load", False)
    m["corpus.load_s"] = median(_dur_ms(loads)) / 1e3
    builds = sp.get("corpus.build", False)
    m["corpus.build_s"] = (sum(_dur_ms(builds)) / 1e3 / max(1, len(loads)))
    exports = sp.get("shm.export", False)
    setup = [r for r in exports if not sp.under(r, "harness.fan_out")]
    m["shm.export_ms"] = sum(_dur_ms(setup)) / max(1, len(loads))
    return m


def harness_metrics(sp: Spans, owner_pid: int) -> Dict[str, float]:
    m: Dict[str, float] = {}
    fans = sp.get("harness.fan_out")
    exports = [r for r in sp.get("shm.export", False)
               if sp.under(r, "harness.fan_out")]
    m["harness.shm_export_ms"] = (sum(_dur_ms(exports)) / len(fans)
                                  if fans else 0.0)
    # The pool starts in the sweep's untimed first pass: a set-up layer.
    tasks = [r for r in sp.get("harness.task", False)
             if r[0] >> 24 != owner_pid]
    starts = []
    for lease in sp.get("harness.lease", False):
        if _attr(lease, "fresh", False):
            after = [t[4] for t in tasks if t[4] >= lease[4]]
            if after:
                starts.append((min(after) - lease[4]) / 1e9)
    m["harness.pool_start_s"] = median(starts)
    capacity = sum((r[5] - r[4]) * _attr(r, "jobs", 1) for r in fans)
    busy = sum(r[5] - r[4] for name in
               (f"method.{x}" for x in METHODS)
               for r in sp.get(name) if r[0] >> 24 != owner_pid)
    m["harness.idle_frac"] = 1.0 - busy / capacity if capacity else 0.0
    for method in METHODS:
        m[f"method.{method}.ms_per_sample"] = mean(
            _dur_ms(sp.get(f"method.{method}")))
    return m


def accounting(sp: Spans, elapsed_ms: Dict, rids: Iterable) -> tuple:
    """(median covered share, share within tolerance) of queries' daemon
    time ``elapsed_ms`` covered by their :data:`QUERY_PATH` spans."""
    per_rid: Dict = defaultdict(float)
    for name in QUERY_PATH:
        for r in sp.get(name, False):
            ids = r[3] if isinstance(r[3], list) else [r[3]]
            for rid in ids:
                per_rid[rid] += (r[5] - r[4]) / 1e6
    fracs, within = [], 0
    for rid in rids:
        el = elapsed_ms.get(rid)
        if not el:
            continue
        got = per_rid.get(rid, 0.0)
        fracs.append(got / el)
        if abs(el - got) <= max(ACCOUNT_TOL_FRAC * el, ACCOUNT_TOL_MS):
            within += 1
    return median(fracs), (within / len(fracs) if fracs else 0.0)


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}
