"""Command-line driver for ``repro.check``.

Subcommands::

    python -m repro.check fuzz [--cases N] [--seconds S] [--start-seed K]
                               [--stress] [--no-shrink]
    python -m repro.check repro <seed> [--stress] [--mutation NAME]
    python -m repro.check repro --case '<json>' [--mutation NAME]
    python -m repro.check mutants [--names a,b] [--budget N]

``fuzz`` samples seed-derived cases and runs each through every stage
of the oracle ladder, shrinking the first failure and exiting non-zero
with a one-line repro command.  ``repro`` replays exactly one case.
``mutants`` runs the mutation sanity suite: every registered
hand-injected protocol bug must be caught within the per-mutation case
budget — this is the check that the checker itself works.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.check.cases import case_from_seed
from repro.check.differential import CheckFailure, case_from_json, check_case
from repro.check.mutations import MUTATIONS
from repro.check.shrink import shrink_case

__all__ = ["main"]

#: Per-mutation case budget for the sanity suite (stress cases are built
#: to trigger steal traffic fast; most mutations die on the first case).
MUTANT_CASE_BUDGET = 12


def _echo(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def cmd_fuzz(args) -> int:
    deadline = time.monotonic() + args.seconds if args.seconds else None
    seed = args.start_seed
    ran = 0
    t0 = time.monotonic()
    while ran < args.cases:
        if deadline is not None and time.monotonic() >= deadline:
            break
        case = case_from_seed(seed, stress=args.stress)
        failure = check_case(case, stress=args.stress)
        ran += 1
        if failure is not None:
            _echo(failure.report())
            if not args.no_shrink:
                _echo("shrinking...")
                failure = shrink_case(failure, log=_echo)
                _echo(failure.report())
            _echo(f"repro: {failure.repro_command}")
            return 1
        if args.verbose:
            _echo(f"ok    {case.describe()}")
        seed += 1
    dt = time.monotonic() - t0
    _echo(f"fuzz: {ran} cases passed in {dt:.1f}s "
          f"(seeds {args.start_seed}..{seed - 1})")
    return 0


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

def cmd_repro(args) -> int:
    if args.case:
        case = case_from_json(args.case)
    elif args.seed is not None:
        case = case_from_seed(args.seed, stress=args.stress)
    else:
        _echo("repro: need a <seed> or --case '<json>'")
        return 2
    _echo(f"case: {case.describe()}")
    failure = check_case(case, mutation=args.mutation, stress=args.stress)
    if failure is None:
        _echo("PASS: all oracle stages agree")
        return 0
    _echo(failure.report())
    return 1


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------

def run_mutant(name: str, *,
               budget: int = MUTANT_CASE_BUDGET) -> Optional[CheckFailure]:
    """Fuzz one mutation with stress cases; return its first detection."""
    for seed in range(budget):
        case = case_from_seed(seed, stress=True)
        failure = check_case(case, mutation=name, stress=True)
        if failure is not None:
            return failure
    return None


def cmd_mutants(args) -> int:
    names: List[str] = (args.names.split(",") if args.names
                        else sorted(MUTATIONS))
    missed = []
    for name in names:
        if name not in MUTATIONS:
            _echo(f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}")
            return 2
        t0 = time.monotonic()
        failure = run_mutant(name, budget=args.budget)
        dt = time.monotonic() - t0
        if failure is None:
            missed.append(name)
            _echo(f"MISSED {name}: not caught within {args.budget} cases "
                  f"({dt:.1f}s) — the checker has a blind spot")
        else:
            _echo(f"caught {name} [{failure.stage}] seed={failure.case.seed} "
                  f"({dt:.1f}s): {failure.message.splitlines()[0]}")
            if args.verbose:
                _echo(f"  repro: {failure.repro_command}")
    if missed:
        _echo(f"mutation suite FAILED: {len(missed)}/{len(names)} "
              f"undetected: {missed}")
        return 1
    _echo(f"mutation suite passed: {len(names)}/{len(names)} injected "
          f"bugs detected")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Differential fuzzing + steal-protocol invariant checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run the differential fuzz loop")
    fuzz.add_argument("--cases", type=int, default=200,
                      help="number of cases (default 200)")
    fuzz.add_argument("--seconds", type=float, default=None,
                      help="wall-clock budget; stops sampling when exceeded")
    fuzz.add_argument("--start-seed", type=int, default=0)
    fuzz.add_argument("--stress", action="store_true",
                      help="bias cases toward maximum steal contention")
    fuzz.add_argument("--no-shrink", action="store_true")
    fuzz.add_argument("--verbose", action="store_true")
    fuzz.set_defaults(func=cmd_fuzz)

    repro = sub.add_parser("repro", help="replay one case by seed or spec")
    repro.add_argument("seed", type=int, nargs="?", default=None)
    repro.add_argument("--case", type=str, default=None,
                       help="full JSON case spec (for shrunk cases)")
    repro.add_argument("--stress", action="store_true")
    repro.add_argument("--mutation", type=str, default=None,
                       choices=sorted(MUTATIONS))
    repro.set_defaults(func=cmd_repro)

    mutants = sub.add_parser(
        "mutants", help="verify every injected protocol bug is caught")
    mutants.add_argument("--names", type=str, default=None,
                         help="comma-separated subset (default: all)")
    mutants.add_argument("--budget", type=int, default=MUTANT_CASE_BUDGET)
    mutants.add_argument("--verbose", action="store_true")
    mutants.set_defaults(func=cmd_mutants)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
