"""The four workloads: three against a spawned daemon, one offline sweep.

Each ``run_*`` function takes the seed, the measured length and whether
the run is traced, and returns a :class:`Outcome`: the end-to-end
metrics, the extra figures printed beside them, the per-request daemon
times the trace accounting needs, and every correctness failure.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from daemon import (Daemon, STATUS_COUNTERS, bench_env, host_ref_ms,
                    shm_segments)
from layers import mean, median, pct
import loadgen

HERE = Path(__file__).resolve().parent

# --- serve-hot --------------------------------------------------------------
#: Open-loop ladder (queries/s).  The first rung is the reference rung:
#: every end-to-end metric (and the traced window) is taken there; the
#: rest of the ladder only finds ``slo_qps``.
HOT_RUNGS = (1000, 2000, 3000, 3500, 4000, 4500, 5000)
HOT_REF_SHARE = 2 / 3         # of ``seconds``; the other rungs split the rest
#: Open-loop windows of intended send time: a rung's p99_ms and generator
#: lateness are medians over its windows' p99s.
HOT_WINDOW_S = 1.0
HOT_POOL_ROOTS = 4            # roots per graph; x 8 graphs x 2 kinds
#: p99 limit of the SLO ladder, and the completion share a rung needs.
SLO_P99_MS = 10.0
SLO_MIN_COMPLETION = 0.95
#: The generator may run at most this late on a rung it passes (p99,
#: taken like p99_ms: the median over the rung's windows).
LATE_BOUND_MS = 2.0

# --- serve-interactive / serve-burst ----------------------------------------
#: Both run a fixed number of whole cycles sized from ``--seconds``, so
#: every run does the same work.
INTERACTIVE_PERIOD_S = 15.0   # one period = 8 cycles, a pair per graph
BURST_CYCLE_S = 3.0
BURST_WIDTH = 64              # the daemon's default max_batch
#: Per cycle, one burst with the micro config (hive) on each of
#: HIVE_BURST_GRAPHS and one without overrides (swarm) on each of
#: SWARM_BURST_GRAPHS: swarm queries are the majority, so p50 falls among
#: swarm bursts and p99 among hive bursts, not on the boundary.
HIVE_BURST_GRAPHS = ("road1000", "mesh1500")
SWARM_BURST_GRAPHS = ("road1000", "mesh1500", "pa2000", "starmesh2400")
COLD_VERIFY = 24              # seeded sample of cold queries checked

#: Daemon spawns per untraced run; setup_s is their median.  The host's
#: speed shifts by up to half within seconds, so on the closed loops the
#: extra spawns are spread between cycles, while the served daemon idles,
#: rather than made back to back.
SETUP_REPS = 9
KINDS = ("config", "auto")    # micro-sweep engine config | no overrides

# --- sweep ------------------------------------------------------------------
SWEEP_WINDOW = 3              # consecutive timed passes per p99 window


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0               # operations wrong, refused or missing
    failures: List[str] = field(default_factory=list)
    elapsed_ms: Dict[int, float] = field(default_factory=dict)
    window: Optional[Tuple[int, int]] = None      # perf_counter_ns
    spans_path: Optional[Path] = None
    owner_pid: int = 0
    trace: Optional[dict] = None                  # spans of a traced run
    host_ref: List[float] = field(default_factory=list)  # host_ref_ms()

    def mismatches(self, bad: List[str]) -> None:
        self.failed += len(bad)
        self.failures.extend(bad)


class Corpus:
    """The micro corpus, built here too, for plans and direct execution."""

    def __init__(self) -> None:
        from repro.bench.micro import MICRO_CASES
        from repro.core.config import DiggerBeesConfig
        from repro.serve.corpus import load_corpus

        corpus = load_corpus("micro", share=False)
        self.graphs = {n: corpus.get(n).graph for n in corpus.names()}
        default = asdict(DiggerBeesConfig())
        self.configs = {
            name: {k: v for k, v in asdict(cfg).items() if v != default[k]}
            for name, _, cfg in MICRO_CASES}
        self._expected: Dict[tuple, dict] = {}

    def names(self) -> List[str]:
        return sorted(self.graphs)

    def overrides(self, graph: str, kind: str) -> Optional[dict]:
        return self.configs[graph] if kind == "config" else None

    def expected(self, graph: str, root: int, kind: str,
                 batch_hint: int) -> dict:
        """Direct ``repro.serve.exec`` answer, routed like the daemon."""
        key = (graph, root, kind)
        if key not in self._expected:
            from repro.core.dispatch import choose_backend
            from repro.serve.exec import execute_query

            g, ov = self.graphs[graph], self.overrides(graph, kind)
            backend = choose_backend(g, requested="auto", overrides=ov,
                                     batch_hint=batch_hint).backend
            self._expected[key] = execute_query(g, "dfs", root, ov,
                                                backend=backend)
        return self._expected[key]


def encode(rid: int, graph: str, root: int, overrides) -> bytes:
    d = {"op": "dfs", "id": rid, "graph": graph, "root": root}
    if overrides:
        d["config"] = overrides
    return (json.dumps(d, separators=(",", ":")) + "\n").encode()


def verify(corpus: Corpus, kept: Dict[int, bytes], plan: Dict[int, tuple],
           batch_hint: int) -> List[str]:
    """Served payloads that differ from direct execution."""
    bad = []
    for rid, line in sorted(kept.items()):
        graph, root, kind = plan[rid]
        resp = json.loads(line)
        if resp.get("result") != corpus.expected(graph, root, kind,
                                                 batch_hint):
            bad.append(f"payload mismatch: id {rid} {graph} root {root} "
                       f"{kind}")
    return bad


# ---------------------------------------------------------------------------
# Serve workloads.
# ---------------------------------------------------------------------------

class ServeRun:
    """Spawns (and on exit stops) the daemon of one serve run."""

    def __init__(self, run_dir: Path, corpus_cache: Path, traced: bool,
                 out: Outcome):
        self.out = out
        self.run_dir, self.corpus_cache = run_dir, corpus_cache
        self.shm_before = shm_segments()
        self.daemon = d = Daemon(run_dir, corpus_cache, traced=traced)
        self.setups = [d.setup_s]
        # A traced run's set-up only feeds overhead.setup_s.
        self.setup_reps = 1 if traced else SETUP_REPS
        if traced:
            out.spans_path = d.spans_path
            out.owner_pid = d.proc.pid
        self.batch_hint = int(d.status()["config"]["max_batch"])

    def probe_setup(self) -> None:
        """Spawn and stop one more daemon for another ``setup_s`` sample,
        until the run has ``setup_reps`` of them."""
        if len(self.setups) < self.setup_reps:
            d = Daemon(self.run_dir, self.corpus_cache,
                       tag=f"p{len(self.setups)}")
            self.setups.append(d.setup_s)
            self._stop(d)

    def _stop(self, d: Daemon) -> None:
        code = d.shutdown()
        if code != 0:
            self.out.failures.append(f"daemon exited with code {code}")

    def begin(self) -> None:
        self.c0 = self.daemon.counters()
        self.cpu0 = self.daemon.cpu_s()
        self.t0 = time.perf_counter_ns()

    def end(self, completed: int) -> None:
        t1 = time.perf_counter_ns()
        d = self.daemon
        cpu = d.cpu_s() - self.cpu0
        c1 = d.counters()
        self.out.window = (self.t0, t1)
        self.out.metrics["cpu_ms_per_op"] = cpu * 1e3 / max(1, completed)
        self.out.metrics["peak_rss_mb"] = d.peak_rss_mb()
        delta = {k: c1[k] - self.c0[k] for k in STATUS_COUNTERS}
        for k, v in delta.items():
            self.out.extras[f"status.{k}"] = (float(v), "count")
        looked = delta["cache_hits"] + delta["cache_misses"]
        self.out.extras["cache.hit_ratio"] = (
            delta["cache_hits"] / looked if looked else 0.0, "ratio")
        self.out.extras["admission.width_mean"] = (
            delta["batched_queries"] / delta["batches"]
            if delta["batches"] else 0.0, "queries")
        if delta["errors"] or delta["dropped_responses"]:
            self.out.failures.append(
                f"daemon counted {delta['errors']} errors, "
                f"{delta['dropped_responses']} dropped responses")

    def close(self) -> None:
        while len(self.setups) < self.setup_reps:
            self.probe_setup()
        self.out.metrics["setup_s"] = median(self.setups)
        self._stop(self.daemon)
        leaked = set(shm_segments()) - set(self.shm_before)
        if leaked:
            self.out.failures.append(
                f"{len(leaked)} shm segment(s) leaked: {sorted(leaked)}")


def _latency_stats(out: Outcome, lat: Dict[int, float],
                   replies: Dict[int, loadgen.Reply],
                   windows: List[List[float]]) -> None:
    """p50 over every query; p99 as the median of the windows' p99s, so a
    stall of the host, which lands in one window, does not decide it
    while a tail the daemon causes shows in every window."""
    out.metrics["p50_ms"] = median(lat.values())
    out.metrics["p99_ms"] = median(pct(w, 99) for w in windows)
    outside = [lat[r] - replies[r].elapsed_ms for r in lat]
    out.extras["server.outside_ms.p50"] = (median(outside), "ms")
    out.extras["server.outside_ms.p99"] = (pct(outside, 99), "ms")
    elapsed = [replies[r].elapsed_ms for r in lat]
    out.extras["response.elapsed_ms.p50"] = (median(elapsed), "ms")
    out.extras["response.elapsed_ms.p99"] = (pct(elapsed, 99), "ms")
    out.extras["response.batch_mean"] = (
        mean(replies[r].batch for r in lat), "queries")
    out.elapsed_ms.update({r: replies[r].elapsed_ms for r in lat})


def _windows(values: Dict[int, float], r: dict) -> List[List[float]]:
    """Per-request ``values`` grouped into open-loop windows of intended
    send time."""
    windows: Dict[int, List[float]] = {}
    for i, v in values.items():
        slot = int((r["due"][i] - r["t0"]) / HOT_WINDOW_S)
        windows.setdefault(slot, []).append(v)
    return list(windows.values())


def _check_replies(out: Outcome, rids, replies) -> int:
    missing = [r for r in rids if r not in replies]
    errors = [r for r in rids if r in replies and not replies[r].ok]
    if missing:
        out.failures.append(f"{len(missing)} queries never answered")
    if errors:
        out.failures.append(f"{len(errors)} queries answered with errors")
    out.failed += len(missing) + len(errors)
    return len(missing) + len(errors)


def run_hot(corpus: Corpus, seed: int, seconds: float, sr: ServeRun,
            out: Outcome) -> None:
    rng = random.Random(seed)
    pool = [(g, root, kind) for g in corpus.names()
            for root in rng.sample(range(corpus.graphs[g].n_vertices),
                                   HOT_POOL_ROOTS)
            for kind in KINDS]
    plan: Dict[int, tuple] = {}
    lines: List[bytes] = []

    def make(q) -> int:
        rid = len(plan) + 1
        plan[rid] = q
        lines.append(encode(rid, q[0], q[1], corpus.overrides(q[0], q[2])))
        return rid

    with loadgen.LoadGen(sr.daemon.socket) as gen:
        warm = [make(q) for q in pool]
        res = loadgen.bursts(gen, [lines[-len(warm):]], [warm])
        out.attempted += len(warm)
        _check_replies(out, warm, res["replies"])
        out.host_ref += host_ref_ms(reps=9)    # the ladder leaves no gaps
        passing: Optional[float] = None
        for k, rate in enumerate(HOT_RUNGS):
            rung_s = (seconds * HOT_REF_SHARE if k == 0 else
                      seconds * (1 - HOT_REF_SHARE) / (len(HOT_RUNGS) - 1))
            n = max(len(pool), int(rate * rung_s))
            seq = rng.sample(pool, len(pool)) + [
                rng.choice(pool) for _ in range(n - len(pool))]
            start = len(lines)
            rids = [make(q) for q in seq]
            if k == 0:
                gen.keep = set(rids[:len(pool)])   # every pool query once
                sr.begin()
            with loadgen.no_gc():
                r = loadgen.open_loop(gen, lines[start:], rids, rate)
            replies = r["replies"]
            if k == 0:
                sr.end(len(replies))
            bad = _check_replies(out, rids, replies)
            out.attempted += len(rids)
            lat = {i: (replies[i].t_recv - r["due"][i]) * 1e3
                   for i in rids if i in replies}
            late = median(pct(w, 99) for w in _windows(
                {i: x * 1e3 for i, x in zip(rids, r["late"])}, r))
            achieved = len(replies) / (r["t_end"] - r["t0"])
            p99 = pct(list(lat.values()), 99)
            ok = (not bad and p99 <= SLO_P99_MS and
                  len(replies) >= SLO_MIN_COMPLETION * len(rids) and
                  r["t_end"] - r["t_sent"] < 0.5)
            print(f"  rung {rate:>5} q/s: p50 {median(lat.values()):.2f} "
                  f"p99 {p99:.2f} ms, late p99 {late:.2f} ms, "
                  f"{achieved:.0f} q/s {'ok' if ok else 'over SLO'}",
                  file=sys.stderr)
            if k == 0:
                _latency_stats(out, lat, replies, _windows(lat, r))
                out.metrics["throughput_qps"] = achieved
                out.extras["loadgen.late_p99_ms"] = (late, "ms")
                hits = sum(1 for i in lat if replies[i].cached)
                out.extras["ref.cached_frac"] = (hits / max(1, len(lat)),
                                                 "ratio")
            if ok and late > LATE_BOUND_MS:
                if k == 0:
                    out.failures.append(
                        f"void: generator ran {late:.2f} ms late (p99) at "
                        f"{rate} q/s, bound {LATE_BOUND_MS} ms")
                else:
                    # The generator, not the daemon, ran out of room: the
                    # rung is void and does not count toward slo_qps.
                    print(f"  rung {rate:>5} q/s void: generator late",
                          file=sys.stderr)
                    break
            if not ok:
                break
            passing = achieved
        out.host_ref += host_ref_ms(reps=9)
        out.extras["slo_qps"] = (passing or 0.0, "1/s")
        kept = dict(gen.kept)
    out.mismatches(verify(corpus, kept, plan, sr.batch_hint))
    if len(kept) != len(pool):
        out.failures.append(f"only {len(kept)}/{len(pool)} pool queries "
                            f"were captured for verification")


def _interactive_cycle(corpus: Corpus, rng: random.Random, fresh: dict,
                       pair_graph: str) -> List[List[tuple]]:
    """One cycle of rounds; a round is the two queries, one per connection,
    that are in flight together.

    Sixteen single rounds pair every (graph, kind) with a different one
    (a seeded order against a rotation of itself), so admission flushes
    them at width 1; two more rounds send the same graph and kind twice,
    which admission coalesces to width 2 - once with the micro config
    (a hive pair) and once without overrides.  Every query takes a fresh
    root of its graph.
    """
    combos = [(g, kind) for g in corpus.names() for kind in KINDS]
    order = rng.sample(combos, len(combos))
    shift = rng.randrange(1, len(combos))
    partner = order[shift:] + order[:shift]
    rounds = [[a, b] for a, b in zip(order, partner)]
    for kind in KINDS:
        rounds.insert(rng.randrange(len(rounds) + 1),
                      [(pair_graph, kind), (pair_graph, kind)])
    return [[(g, fresh[g].pop(), kind) for g, kind in rnd]
            for rnd in rounds]


def _run_cycles(corpus: Corpus, seed: int, n_cycles: int, sr: ServeRun,
                out: Outcome, make_cycle) -> None:
    """Closed loop of groups: each group is pipelined over both
    connections and the next starts once all of it has answered.

    ``make_cycle(rng, i)`` returns cycle ``i`` as a list of groups of
    ``(graph, root, kind)``.  One untimed cycle warms the daemon up; then
    ``n_cycles`` whole cycles run, so every run does the same mix of
    graphs, kinds and widths.  The set-up probes run between cycles, off
    the clock.
    """
    rng = random.Random(seed)
    plan: Dict[int, tuple] = {}

    def build(groups):
        lines, rids = [], []
        for group in groups:
            ids = list(range(len(plan) + 1, len(plan) + 1 + len(group)))
            plan.update(zip(ids, group))
            lines.append([encode(i, *_wire(corpus, plan[i])) for i in ids])
            rids.append(ids)
        return lines, rids

    with loadgen.LoadGen(sr.daemon.socket) as gen:
        lines, rids = build(make_cycle(rng, -1))
        r = loadgen.bursts(gen, lines, rids)
        warm = [i for ids in rids for i in ids]
        out.attempted += len(warm)
        _check_replies(out, warm, r["replies"])
        sr.begin()
        wall = 0.0
        sent: Dict[int, float] = {}
        replies: Dict[int, loadgen.Reply] = {}
        cycles: List[List[int]] = []
        keep = -(-COLD_VERIFY // n_cycles)   # the sample spans every cycle
        probe_every = max(1, n_cycles // (SETUP_REPS - 1))
        for cycle in range(n_cycles):
            lines, rids = build(make_cycle(rng, cycle))
            cycles.append([i for ids in rids for i in ids])
            gen.keep.update(rng.sample(cycles[-1], keep))
            t0 = time.perf_counter()
            with loadgen.no_gc():
                r = loadgen.bursts(gen, lines, rids)
            wall += time.perf_counter() - t0
            sent.update(r["sent"])
            replies.update(r["replies"])
            if (cycle + 1) % probe_every == 0:
                sr.probe_setup()
            out.host_ref += host_ref_ms()
        sr.end(len(replies))
        out.attempted += len(sent)
        _check_replies(out, list(sent), replies)
        lat = {i: (replies[i].t_recv - sent[i]) * 1e3
               for i in sent if i in replies}
        _latency_stats(out, lat, replies,       # one window per cycle
                       [[lat[i] for i in c if i in lat] for c in cycles])
        out.metrics["throughput_qps"] = len(replies) / wall
        out.extras["cycles"] = (float(n_cycles), "count")
        kept = dict(gen.kept)
    sample = dict(rng.sample(sorted(kept.items()),
                             min(COLD_VERIFY, len(kept))))
    out.mismatches(verify(corpus, sample, plan, sr.batch_hint))


def _fresh_roots(corpus: Corpus, rng: random.Random, keys) -> dict:
    """Per key (a graph, or a (graph, kind) pair), all roots of the graph
    in seeded order, each to be popped once."""
    out = {}
    for key in keys:
        n = corpus.graphs[key if isinstance(key, str) else key[0]].n_vertices
        out[key] = rng.sample(range(n), n)
    return out


def run_interactive(corpus: Corpus, seed: int, seconds: float,
                    sr: ServeRun, out: Outcome) -> None:
    rng = random.Random(seed + 1)
    fresh = _fresh_roots(corpus, rng, corpus.names())
    pair_graphs = rng.sample(corpus.names(), len(corpus.names()))
    periods = max(1, round(seconds / INTERACTIVE_PERIOD_S))
    _run_cycles(corpus, seed, periods * len(pair_graphs), sr, out,
                lambda r, i: _interactive_cycle(
                    corpus, r, fresh, pair_graphs[i % len(pair_graphs)]))


def _wire(corpus: Corpus, q: tuple) -> tuple:
    graph, root, kind = q
    return graph, root, corpus.overrides(graph, kind)


def run_burst(corpus: Corpus, seed: int, seconds: float, sr: ServeRun,
              out: Outcome) -> None:
    rng = random.Random(seed + 1)
    combos = ([(g, "config") for g in HIVE_BURST_GRAPHS]
              + [(g, "auto") for g in SWARM_BURST_GRAPHS])
    fresh = _fresh_roots(corpus, rng, combos)

    def cycle(r: random.Random, i: int):
        return [[(g, fresh[(g, kind)].pop(), kind)
                 for _ in range(BURST_WIDTH)]
                for g, kind in r.sample(combos, len(combos))]
    _run_cycles(corpus, seed, max(2, round(seconds / BURST_CYCLE_S)), sr,
                out, cycle)


SERVE = {"serve-hot": run_hot, "serve-interactive": run_interactive,
         "serve-burst": run_burst}


def run_serve(workload: str, seed: int, seconds: float, traced: bool,
              run_dir: Path, corpus_cache: Path, corpus: Corpus) -> Outcome:
    out = Outcome()
    sr = ServeRun(run_dir, corpus_cache, traced, out)
    try:
        SERVE[workload](corpus, seed, seconds, sr, out)
    except BaseException:
        sr.daemon.kill()
        raise
    sr.close()
    return out


# ---------------------------------------------------------------------------
# Sweep.
# ---------------------------------------------------------------------------

def run_sweep(seed: int, seconds: float, traced: bool, run_dir: Path,
              corpus_cache: Path, digest: Optional[Path] = None) -> Outcome:
    from repro.graphs import collections as col

    # Fill the disk cache here, so the first run in a checkout does not
    # build the corpus inside the measured process and swell its memory.
    col.representative_graphs()
    col.clear_cache()
    out = Outcome()
    before = shm_segments()
    result_path = run_dir / "sweep.json"
    spans = run_dir / "sweep-spans.json" if traced else None
    argv = [sys.executable, str(HERE / "sweep_run.py"), "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(result_path)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if digest is not None:
        argv += ["--digest", str(digest)]
    with open(run_dir / "sweep.log", "wb") as log:
        proc = subprocess.run(argv, env=bench_env(corpus_cache),
                              stdout=log, stderr=subprocess.STDOUT,
                              timeout=120 + 4 * seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep process failed: "
                           f"{(run_dir / 'sweep.log').read_text()[-2000:]}")
    res = json.loads(result_path.read_text())
    n = res["samples"]
    walls_ms = [w * 1e3 for w in res["pass_s"]]
    out.metrics["setup_s"] = median(res["setup_s"])
    out.metrics["p50_ms"] = median(walls_ms)
    # Like the serve side's windowed p99: each window's p99 is its slowest
    # pass, so one pass caught in a slow spell of the host does not decide.
    out.metrics["p99_ms"] = median(
        pct(walls_ms[i:i + SWEEP_WINDOW], 99)
        for i in range(0, len(walls_ms), SWEEP_WINDOW))
    out.metrics["throughput_qps"] = n / res["wall_s"]
    out.metrics["cpu_ms_per_op"] = res["cpu_s"] * 1e3 / max(1, n)
    out.metrics["peak_rss_mb"] = res["peak_rss_mb"]
    out.extras["samples_per_s"] = (n / res["wall_s"], "1/s")
    out.extras["passes"] = (float(len(walls_ms)), "count")
    out.host_ref = res["host_ref_ms"]
    out.attempted = res["checked"]
    out.mismatches([f"digest mismatch: {k}" for k in res["mismatches"]])
    leaked = set(shm_segments()) - set(before)
    if leaked:
        out.failures.append(f"{len(leaked)} shm segment(s) leaked")
    lo, hi = res["window"]
    out.window = (int(lo * 1e9), int(hi * 1e9))
    out.spans_path = spans
    out.owner_pid = res.get("pid", 0)
    return out
