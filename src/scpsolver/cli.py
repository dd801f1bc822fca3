"""The ``scpsolver`` command line: ``solve``, ``oracle``, ``check``, ``gen``
and ``accept``.

Run it as the installed ``scpsolver`` script, as ``python -m scpsolver`` or
as ``python -m scpsolver.cli``.  The package root does not import this
module, so importing the library loads neither ``argparse`` nor the
acceptance harness.
"""

from __future__ import annotations

import argparse
import os
import sys

from .acceptance import run_acceptance
from .cli_io import InstanceFormatError, _cost_text, emit_report, format_instance, parse_instance, parse_report, solve
from .oracle import brute_force_tour, random_instance, verify_tour

OK = 0
FAIL = 1
BAD_INPUT = 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scpsolver", description="Exact stacker crane solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--json", action="store_true", help="emit the canonical JSON report")

    p_oracle = sub.add_parser("oracle", help="brute-force an instance and compare with the solver")
    p_oracle.add_argument("file")

    p_check = sub.add_parser("check", help="re-validate a JSON report against an instance")
    p_check.add_argument("file")
    p_check.add_argument("report")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--n", type=int, default=8, help="max vertex count")
    p_gen.add_argument("--r", type=int, default=2, help="max cycle rank")
    p_gen.add_argument("--p", type=int, default=3, help="max request draws")
    p_gen.add_argument("--cost-max", type=int, default=10)

    p_accept = sub.add_parser("accept", help="run the randomized acceptance properties")
    p_accept.add_argument("--seed", type=int, default=1)
    p_accept.add_argument("--count", type=int, default=500)

    args = parser.parse_args(argv)
    env_seed = os.environ.get("SCP_SEED")
    if "seed" in args and env_seed is not None:  # the environment wins over --seed
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"malformed input: SCP_SEED is not an integer: {env_seed!r}", file=sys.stderr)
            return BAD_INPUT
    try:
        if args.command == "solve":
            instance = parse_instance(_read(args.file))
            report = solve(instance)
            sys.stdout.write(emit_report(report, "json" if args.json else "text"))
            return OK

        if args.command == "oracle":
            instance = parse_instance(_read(args.file))
            try:
                oracle = brute_force_tour(instance)
            except ValueError as exc:
                print(f"oracle refused: {exc}", file=sys.stderr)
                return FAIL
            report = solve(instance)
            print(f"oracle cost {_cost_text(oracle.cost)} ({oracle.nodes_explored} orders)")
            print(f"solver cost {_cost_text(report.cost)}")
            if report.cost == oracle.cost:
                print("match")
                return OK
            print("MISMATCH")
            return FAIL

        if args.command == "check":
            instance = parse_instance(_read(args.file))
            text = _read(args.report)
            try:
                cost, tour = parse_report(text)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"malformed report: {exc}", file=sys.stderr)
                return BAD_INPUT
            check = verify_tour(instance, tour)
            if check.valid and check.cost == cost:
                print(f"valid tour, cost {_cost_text(cost)}")
                return OK
            print(f"invalid tour: {check.reason or 'cost mismatch'}")
            return FAIL

        if args.command == "gen":
            if args.n < 2 or args.r < 0 or args.p < 0 or args.cost_max < 1:
                print("malformed input: gen needs --n >= 2, --r >= 0, --p >= 0 and --cost-max >= 1", file=sys.stderr)
                return BAD_INPUT
            instance = random_instance(args.seed, args.n, args.r, args.p, args.cost_max)
            comments = (
                f"seed {args.seed} n_max {args.n} r_max {args.r} p_max {args.p} cost_max {args.cost_max}",
            )
            sys.stdout.write(format_instance(instance, comments))
            return OK

        if args.command == "accept":
            if args.count < 1:
                print("malformed input: accept needs --count >= 1", file=sys.stderr)
                return BAD_INPUT
            summary = run_acceptance(args.seed, args.count)
            for name, outcome in summary.results.items():
                status = "PASS" if outcome.failed == 0 else "FAIL"
                line = f"{status} {name} {outcome.passed}/{summary.count}"
                if outcome.failing_seeds:
                    line += " failing seeds: " + " ".join(str(s) for s in outcome.failing_seeds[:5])
                print(line)
            return OK if summary.ok else FAIL

    except InstanceFormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return BAD_INPUT
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return BAD_INPUT
    except UnicodeDecodeError as exc:  # only _read decodes bytes
        print(f"cannot read input: not UTF-8: {exc}", file=sys.stderr)
        return BAD_INPUT
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return FAIL
    except MemoryError:  # a demand too large for its tour to fit in memory
        print("solver error: out of memory", file=sys.stderr)
        return FAIL
    except OverflowError as exc:  # a copy count too large even to index a list
        print(f"solver error: number too large: {exc}", file=sys.stderr)
        return FAIL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
