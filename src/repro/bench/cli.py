"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench all                 # everything (slow)
    python -m repro.bench fig6 fig8           # selected experiments
    python -m repro.bench table2 --out out/   # archive to a directory
    python -m repro.bench fig5 --quick        # shrunken corpus
    python -m repro.bench fig5 --jobs 4       # parallel sweep workers
    python -m repro.bench micro --quick       # engine perf-smoke gate
    python -m repro.bench fig7 --profile p.out  # cProfile the run

Each experiment prints its paper-shaped table to stdout and, with
``--out``, writes it to ``<out>/<name>.txt``.  ``micro`` is special: it
runs the fixed engine micro-sweep and fails when the run regresses >2x
against the recorded baseline (see :mod:`repro.bench.micro`; it takes
its own flags, such as ``--json PATH`` to write the result and
``--update-baseline``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Callable, Dict

from repro.bench import experiments as E
from repro.bench.harness import BenchConfig
from repro.graphs import collections as col

__all__ = ["main"]


def _fig5(cfg: BenchConfig, quick: bool, csv_dir=None) -> str:
    sizes = [1200, 3600] if quick else None
    corpus = col.build_corpus(sizes=sizes) if sizes else None
    result = E.fig5(cfg, corpus=corpus)
    if csv_dir:
        from repro.bench.csvout import write_dfs_perf_csv

        write_dfs_perf_csv(result, csv_dir / "merged_dfs_perf.csv")
    return result.render()


def _fig6(cfg: BenchConfig, quick: bool, csv_dir=None) -> str:
    result = E.fig6(cfg)
    if csv_dir:
        from repro.bench.csvout import write_bfs_perf_csv, write_rep_perf_csv

        write_bfs_perf_csv(result, csv_dir / "merged_bfs_perf.csv")
        write_rep_perf_csv(result, csv_dir / "merged_perf_rep.csv")
    return result.render()


def _fig7(cfg: BenchConfig, quick: bool) -> str:
    sizes = [1200] if quick else [1200, 3600, 9000]
    return E.fig7(cfg, corpus=col.build_corpus(sizes=sizes)).render()


def _fig8(cfg: BenchConfig, quick: bool) -> str:
    return E.fig8(cfg, scale=1 if quick else 2).render()


def _fig9(cfg: BenchConfig, quick: bool, csv_dir=None) -> str:
    result = E.fig9(cfg, repeats=2 if quick else 3, scale=1 if quick else 2)
    if csv_dir:
        from repro.bench.csvout import write_balance_csvs

        write_balance_csvs(result, csv_dir)
    return result.render()


def _fig10(cfg: BenchConfig, quick: bool) -> str:
    graphs = list(col.BREAKDOWN_NAMES[:2]) if quick else None
    return E.fig10(cfg, graphs=graphs).render()


#: Experiments taking (cfg, quick) and optionally csv_dir (kw-only here).
EXPERIMENTS: Dict[str, Callable] = {
    "table1": lambda cfg, q: E.table1(),
    "table2": lambda cfg, q: E.table2(),
    "table3": lambda cfg, q: E.table3(),
    "table4": lambda cfg, q: E.table4(seed=cfg.seed),
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
}

#: Experiments that also emit artifact-compatible CSVs (Appendix A.4).
CSV_CAPABLE = {"fig5", "fig6", "fig9"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the DiggerBees paper's tables and figures "
                    "on the simulated devices.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help=f"experiment names ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to archive rendered tables into")
    parser.add_argument("--csv", type=pathlib.Path, default=None,
                        help="directory for artifact-compatible CSVs "
                             "(merged_dfs_perf.csv etc.; fig5/fig6/fig9)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink corpora/repeats for a fast smoke run")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sim-scale", type=float, default=0.125,
                        help="fraction of the real machines to simulate")
    parser.add_argument("--roots", type=int, default=2,
                        help="source vertices per graph (paper uses 64)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep fan-out: fig5-fig7 "
                             "fan out, fig8-fig10 stay serial because each "
                             "cell has its own engine config (results are "
                             "identical for any value)")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="dump cProfile stats of the experiment run "
                             "to PATH (inspect with python -m pstats)")
    return parser


def main(argv=None) -> int:
    from repro.utils.malloc import retain_large_blocks

    # Benchmarks time batch engines whose transient state dwarfs the
    # default mmap threshold; retain the arena so repeat calls measure
    # the engine, not page re-faulting.
    retain_large_blocks()

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "micro":
        # The micro-sweep has its own flags (baseline gating); delegate.
        from repro.bench.micro import main as micro_main

        return micro_main(argv[1:])

    args = build_parser().parse_args(argv)
    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"available: {', '.join(EXPERIMENTS)}, micro", file=sys.stderr)
        return 2

    cfg = BenchConfig(sim_scale=args.sim_scale, n_roots=args.roots,
                      seed=args.seed, jobs=args.jobs)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.csv:
        args.csv.mkdir(parents=True, exist_ok=True)
    from repro.utils.profiling import profile_to

    with profile_to(args.profile):
        for name in names:
            start = time.time()
            if name in CSV_CAPABLE:
                text = EXPERIMENTS[name](cfg, args.quick, csv_dir=args.csv)
            else:
                text = EXPERIMENTS[name](cfg, args.quick)
            elapsed = time.time() - start
            print(text)
            print(f"[{name} regenerated in {elapsed:.1f}s]\n")
            if args.out:
                (args.out / f"{name}.txt").write_text(text + "\n")
    if args.profile:
        print(f"[cProfile stats written to {args.profile}]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
