"""Daemon lifecycle for the serve workloads: spawn, probe, measure, stop.

The daemon is ``python -m repro.serve start --corpus micro --backend
auto`` in its own process (or the benchmark's traced launcher, which
runs the same CLI after installing timing wrappers).  Every path it
touches lives in the run directory the benchmark owns: the Unix socket
(relative, so long checkout paths stay under the ``AF_UNIX`` limit), a
fresh result-cache spill directory, and the span file of a traced run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.errors import ServeError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Daemon flags every serve workload uses (recorded as provenance).
DAEMON_FLAGS = ["--corpus", "micro", "--backend", "auto"]

#: Counters read from ``status`` before and after each measured phase.
STATUS_COUNTERS = (
    "cache_hits", "cache_misses", "batches", "batched_queries",
    "hive_batches", "backend_dfs", "backend_frontier", "backend_swarm",
    "backend_shard", "coalesced", "inline_fallbacks", "dropped_responses",
    "errors",
)

_TICK = os.sysconf("SC_CLK_TCK")


def bench_env(corpus_cache: Path) -> Dict[str, str]:
    """Child environment: repo sources, benchmark-owned corpus cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CORPUS_CACHE"] = str(corpus_cache)
    env.pop("REPRO_SERVE_CACHE", None)
    env.pop("REPRO_SERVE_SOCKET", None)
    return env


def shm_segments() -> List[str]:
    """Python shared-memory segment names currently in ``/dev/shm``."""
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith("psm_"))
    except OSError:
        return []


def host_ref_ms(reps: int = 3, n: int = 500_000) -> List[float]:
    """``reps`` timings, in ms, of a fixed pure-Python loop: how fast the
    shared host runs right now (see ``layers.at_reference_speed``)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(n):
            s += i
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process."""
    with open(f"/proc/{pid}/stat", "rb") as f:
        fields = f.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """One spawned daemon process owned by the benchmark."""

    def __init__(self, run_dir: Path, corpus_cache: Path, *,
                 traced: bool = False, tag: str = "d"):
        self.run_dir = run_dir
        self.socket = os.path.relpath(run_dir / f"{tag}.sock")
        self.cache_dir = run_dir / f"{tag}-cache"
        self.spans_path = run_dir / f"{tag}-spans.json"
        self.log_path = run_dir / f"{tag}.log"
        cli = ["start", "--socket", self.socket, "--cache-dir",
               str(self.cache_dir)] + DAEMON_FLAGS
        if traced:
            argv = [sys.executable, str(HERE / "traced_daemon.py"),
                    str(self.spans_path)] + cli
        else:
            argv = [sys.executable, "-m", "repro.serve"] + cli
        self._log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=bench_env(corpus_cache),
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        try:
            self.setup_s = self._wait_ready(t0)
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self, t0: float, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first answered ``ping``."""
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early: {self.log_path.read_text()}")
            try:
                with self.client() as c:
                    c.ping()
                return time.perf_counter() - t0
            except ServeError:
                if time.perf_counter() - t0 > timeout:
                    raise TimeoutError("daemon never answered ping")
                time.sleep(0.002)

    def client(self):
        # Imported here so the sweep process, which only needs the /proc
        # readers above, never loads the serve package.
        from repro.serve.client import SyncServeClient

        return SyncServeClient(self.socket)

    def status(self) -> dict:
        with self.client() as c:
            return c.status()

    def counters(self) -> Dict[str, int]:
        stats = self.status()["stats"]
        return {k: int(stats.get(k, 0)) for k in STATUS_COUNTERS}

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def shutdown(self, timeout: float = 30.0) -> int:
        """Stop through the protocol's ``shutdown`` op; returns exit code.

        SIGTERM would skip the drain and leave the shm segments to
        Python's resource tracker, so it is only the fallback for a
        daemon that does not exit in time (and then counts as a failure
        through the non-zero return code).
        """
        try:
            if self.proc.poll() is None:
                with self.client() as c:
                    c.shutdown()
            return self.proc.wait(timeout=timeout)
        except (subprocess.TimeoutExpired, ServeError):
            self.proc.kill()
            self.proc.wait()
            return -1
        finally:
            self._log.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()
