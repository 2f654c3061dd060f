"""``python -m repro.serve`` — daemon lifecycle and ad-hoc queries.

Subcommands
-----------
``start``   run the daemon in the foreground until ``stop``/SIGINT
``stop``    ask a running daemon to drain and exit
``status``  print a running daemon's status JSON
``query``   run one query against a running daemon and print the result

The socket path defaults to ``$REPRO_SERVE_SOCKET`` or a per-user
tempdir path; every subcommand takes ``--socket`` to override.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.errors import ReproError, ServeError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persistent traversal query daemon over a resident "
                    "graph corpus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("start", help="run the daemon (foreground)")
    p.add_argument("--socket", default=None,
                   help="unix socket path (default: $REPRO_SERVE_SOCKET "
                        "or a tempdir path)")
    p.add_argument("--corpus", default="micro",
                   help="corpus selector: micro | representative | demo "
                        "| comma-separated collection names")
    p.add_argument("--max-batch", type=int, default=None,
                   help="max queries coalesced into one lockstep batch")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (0 = in-daemon threads); "
                        "graphs are exported to /dev/shm only for "
                        "workers")
    p.add_argument("--cache-entries", type=int, default=None,
                   help="per-graph result-cache capacity (0 disables)")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache spill directory ('off' = memory "
                        "only)")
    p.add_argument("--backend", default=None,
                   choices=("auto", "dfs", "frontier"),
                   help="engine family for dfs queries (auto routes "
                        "graphs with many BFS levels per vertex to dfs, "
                        "others to frontier)")

    for name, help_ in (("stop", "drain and stop a running daemon"),
                        ("status", "print daemon status JSON"),
                        ("ping", "round-trip check")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--socket", default=None)

    p = sub.add_parser("query", help="run one query and print the result")
    p.add_argument("op", help="dfs | scc | toposort | cycles | "
                              "biconnectivity | spanning")
    p.add_argument("graph", help="resident graph name")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--config", default=None,
                   help="JSON object of DiggerBeesConfig overrides")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--socket", default=None)
    return parser


async def _run_daemon(args: argparse.Namespace) -> int:
    import os

    from repro.core.config import ServeConfig
    from repro.serve.client import default_socket_path
    from repro.serve.corpus import load_corpus
    from repro.serve.server import ServeServer
    from repro.utils.malloc import retain_large_blocks

    # The daemon runs lockstep batches back to back; retaining the malloc
    # arena keeps their transient state resident instead of re-faulting
    # it from the kernel on every batch.
    retain_large_blocks()

    config = ServeConfig()
    overrides = {}
    if args.max_batch is not None:
        overrides["max_batch"] = args.max_batch
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.cache_entries is not None:
        overrides["cache_entries"] = args.cache_entries
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    if args.backend is not None:
        overrides["backend"] = args.backend
    if overrides:
        config = config.with_(**overrides)

    socket_path = args.socket or default_socket_path()
    if os.path.exists(socket_path):
        # A live daemon refuses to be shadowed; a stale socket is removed.
        try:
            from repro.serve.client import SyncServeClient

            with SyncServeClient(socket_path, timeout=2.0) as probe:
                probe.ping()
            print(f"error: a daemon is already serving {socket_path}",
                  file=sys.stderr)
            return 1
        except ServeError:
            os.unlink(socket_path)

    corpus = load_corpus(args.corpus, share=config.jobs >= 1)
    server = ServeServer(corpus, config)
    await server.start(socket_path)
    print(f"serving {len(corpus)} graph(s) "
          f"[{', '.join(corpus.names())}] on {socket_path}", flush=True)
    try:
        await server.serve_until_shutdown()
    except (KeyboardInterrupt, asyncio.CancelledError):
        await server.stop()
    finally:
        corpus.close()
        if os.path.exists(socket_path):
            try:
                os.unlink(socket_path)
            except OSError:
                pass
    print("daemon stopped", flush=True)
    return 0


def _client(args: argparse.Namespace):
    from repro.serve.client import SyncServeClient

    return SyncServeClient(args.socket)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "start":
            try:
                return asyncio.run(_run_daemon(args))
            except KeyboardInterrupt:
                return 0
        if args.command == "stop":
            with _client(args) as client:
                client.shutdown()
            print("daemon stopping")
            return 0
        if args.command == "status":
            with _client(args) as client:
                print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.command == "ping":
            with _client(args) as client:
                resp = client.ping()
            print(json.dumps(resp.result))
            return 0
        if args.command == "query":
            config = json.loads(args.config) if args.config else None
            with _client(args) as client:
                resp = client.query(args.op, args.graph, root=args.root,
                                    config=config,
                                    no_cache=args.no_cache)
            print(json.dumps({"result": resp.result,
                              "cached": resp.cached,
                              "batch": resp.batch,
                              "elapsed_ms": resp.elapsed_ms},
                             sort_keys=True))
            return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: bad --config JSON: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")
