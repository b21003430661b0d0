"""Command-line front end: solve, reduce, count, verify, gen.

Exit codes: 0 = YES/true, 1 = NO/false, 2 = input error, 3 = cap exceeded
without a decision, 4 = internal error (a failed self-check or an
unexpected exception; never a decision). Output is deterministic for
identical inputs and flags, regardless of --threads.

Plain argv is read in one pass from the parser's own actions; help, errors,
abbreviations and ``=`` forms go through argparse, so their output is argparse's.

Start-up: importing this module loads every module that solve, count, reduce
and verify run, so none waits for a first call, and no module they do not use.
``gen`` alone imports ``random`` and :mod:`trackset.generate`, and a crash
alone imports ``traceback``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys as _sys

from . import dagtrack, oracle, setsystem, shortest
from .errors import CapExceeded, InternalError
from .instance_io import (ParseError, format_digraph, format_graph,
                          format_instance, parse_instance)
from .report import SolveReport

DEFAULT_MODE = {"graph": "shortest", "dag": "dag", "setsystem": "setsystem"}


def _load(path: str):
    with open(path) as f:
        return parse_instance(f.read())


def _emit(report: SolveReport, as_json: bool) -> int:
    print(report.to_json() if as_json else report.to_text())
    return 0 if report.result == "YES" else 1


def _oracle_check(report: SolveReport, kind: str, inst, k: int, cap: int | None):
    """Cross-check a solve decision, and the witness's size, against the brute-force oracle."""
    universe = inst.universe_size if kind == "setsystem" else inst.n
    oracle.check_universe(universe)  # before listing paths, which may be exponentially many
    family = _oracle_family(kind, inst, cap)
    best = oracle.brute_min_tracking(family, universe, max_k=k)
    agree = (best is not None) == (report.result == "YES")
    if report.result == "YES":
        agree = agree and len(report.witness) == best
        agree = agree and oracle.brute_is_tracking(family, report.witness)
    if not agree:
        raise InternalError("oracle disagrees with solver decision")
    print("oracle: agree")


def _oracle_family(kind: str, inst, cap: int | None):
    """What the oracle checks, in input ids: a family, a DAG's s-t paths or shortest paths."""
    if kind == "setsystem":
        return inst.family
    lister = oracle.enumerate_all_paths if kind == "dag" else oracle.enumerate_shortest_paths
    return lister(inst, cap=cap)


def _cmd_solve(args) -> int:
    kind, inst = _load(args.input)
    mode = args.mode or DEFAULT_MODE[kind]
    # looked up per call, so a solver replaced on its module is the one called
    solvers = {
        ("shortest", "graph"): lambda: shortest.solve_shortest_paths(inst, args.k),
        ("dag", "dag"): lambda: dagtrack.solve_dag(inst, args.k),
        ("setsystem", "graph"): lambda: shortest.solve_via_set_system(inst, args.k, args.cap),
        ("setsystem", "setsystem"): lambda: setsystem.solve_set_system(inst, args.k),
    }
    if (mode, kind) not in solvers:
        needs = {"shortest": "a graph", "dag": "a dag", "setsystem": "a setsystem or graph"}
        print(f"mode {mode} requires {needs[mode]} instance", file=_sys.stderr)
        return 2
    report = solvers[mode, kind]()
    code = _emit(report, args.json)
    if args.oracle:
        _oracle_check(report, kind, inst, args.k, args.cap)
    return code


def _relabel_lines(relab) -> str:
    return "".join(f"# relabel {new} {old}\n"
                   for new, old in enumerate(relab.to_original))


def _cmd_reduce(args) -> int:
    kind, inst = _load(args.input)
    # each route lets go of the parsed instance before it builds and formats its result
    if kind == "graph":
        pruned, inst = shortest.reduce_rule_1(inst), None
        if pruned is None:
            print("# no s-t path: zero paths, trivially YES")
            return 0
        _sys.stdout.write(format_graph(pruned[0].base) + _relabel_lines(pruned[1]))
        return 0
    if kind == "dag":
        reduced, inst = dagtrack.reduce_dag(inst)[0], None
        if reduced is None:
            print("# singleton after reduction: trivially YES")
            return 0
        _sys.stdout.write(format_digraph(reduced.base))
        _sys.stdout.write(_relabel_lines(reduced.relabeling))
        return 0
    print("reduce supports graph and dag instances only", file=_sys.stderr)
    return 2


def _cmd_count(args) -> int:
    kind, inst = _load(args.input)
    if kind == "graph":
        if (pruned := shortest.reduce_rule_1(inst)) is None:
            print(0)
            return 0
        paths = dagtrack.count_paths(shortest.to_dag(pruned[0]), cap=args.cap)
    elif kind == "dag":
        paths = dagtrack.count_paths(inst, cap=args.cap)
    else:
        print("count supports graph and dag instances only", file=_sys.stderr)
        return 2
    if args.cap is not None and paths > args.cap:
        print(f"{args.cap}+")
        return 3
    print(paths)
    return 0


def _violating_paths(kind: str, inst, trackers: frozenset[int]):
    """A graph's or DAG's violating pair of s-t paths, or None, and its stdout lines."""
    if kind == "graph":
        if (rule_1 := shortest.reduce_rule_1(inst)) is None:
            return None, ["# no s-t path: vacuously tracked"]
        pruned, relab = shortest.to_dag(rule_1[0]), rule_1[1]
    else:
        pruned, relab = dagtrack.reduce_rule_2(inst)
    pair = dagtrack.violating_pair(pruned, relab.from_original(trackers))
    shown = ["violating paths:", *("  " + " ".join(str(v) for v in sorted(relab.map_set(p)))
                                   for p in pair)] if pair else []
    return pair, shown


def _cmd_verify(args) -> int:
    kind, inst = _load(args.input)
    trackers = frozenset(args.trackers)
    universe = inst.universe_size if kind == "setsystem" else inst.n
    for v in trackers:
        if not (0 <= v < universe):
            print(f"tracker id out of range: {v}", file=_sys.stderr)
            return 2
    if kind == "setsystem":
        pair = setsystem.violating_sets(inst.family, trackers)
        shown = [f"violating sets: {pair[0]} {pair[1]}"] if pair else []
    else:
        # the tracking condition decides and builds the pair; only the oracle lists paths
        pair, shown = _violating_paths(kind, inst, trackers)
    ok = pair is None
    if args.oracle:
        if oracle.brute_is_tracking(_oracle_family(kind, inst, args.cap), trackers) != ok:
            raise InternalError("oracle disagrees with the verifier")
        print("oracle: agree")
    print(f"tracking: {'true' if ok else 'false'}")
    for line in shown:
        print(line)
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    import random  # only gen needs these two, so no other command loads them
    from . import generate

    rng = random.Random(args.seed)
    if args.kind == "graph":
        inst = generate.random_connected_graph(rng, args.n)
    elif args.kind == "layered":
        inst = generate.random_layered_graph(rng, args.layers, args.width)
    elif args.kind == "dag":
        inst = generate.random_dag(rng, args.n)
    else:
        inst = generate.random_set_system(rng, args.n, args.sets, d=args.d)
    _sys.stdout.write(format_instance(inst))
    return 0


# built on the first call, not at import; calls share its defaults, so never mutate args
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackset",
        description="Minimum tracking sets for shortest s-t paths, DAG s-t paths, "
                    "and set systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide whether a size-k tracking set exists")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["shortest", "dag", "setsystem"])
    p.add_argument("--cap", type=int,
                   help="bound on the paths --oracle lists (graphs and DAGs) and, in "
                        "setsystem mode on a graph, on the paths counted (default 2^k + 1)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the decision against the brute-force oracle")
    p.add_argument("--threads", type=int, default=1,
                   help="worker hint; output is identical for any value")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="emit the reduced instance plus a relabeling map")
    p.add_argument("input")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("count", help="count shortest s-t paths (graph) or s-t paths (dag)")
    p.add_argument("input")
    p.add_argument("--cap", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="check whether a given set is a tracking set")
    p.add_argument("input")
    p.add_argument("--trackers", type=int, nargs="*", default=[])
    p.add_argument("--cap", type=int, help="path enumeration cap for --oracle (graphs and DAGs)")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=["graph", "dag", "setsystem", "layered"],
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--sets", type=int, default=6)
    p.add_argument("--d", type=int)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--width", type=int, default=3)
    p.set_defaults(func=_cmd_gen)
    return parser


@functools.lru_cache(maxsize=None)
def _argv_tables(parser: argparse.ArgumentParser) -> dict:
    """Per command, read once and shared by every call, so never mutated: the positionals (each
    takes one token, or None where declined), required dests, defaults, option table, function."""
    commands = next(a for a in parser._actions if a.nargs == argparse.PARSER).choices
    return {name: ([a if a.nargs is None else None for a in sub._actions if not a.option_strings],
                   [a.dest for a in sub._actions if a.required or not a.option_strings],
                   {a.dest: a.default for a in sub._actions if a.default is not argparse.SUPPRESS},
                   sub._option_string_actions, sub.get_default("func"))
            for name, sub in commands.items()}


def _plain_args(parser: argparse.ArgumentParser, argv: list[str]
                ) -> argparse.Namespace | None:
    """``parser.parse_args(argv)``, read in one pass from the command's table, or None where
    argparse must read ``argv``: help, errors, ``--``, abbreviations, ``=`` forms, repeats
    and values starting with "-". ``*`` takes the tokens up to the next "-" one."""
    if not argv or (table := _argv_tables(parser).get(argv[0])) is None:
        return None
    positionals, required, defaults, options, func = table
    positionals, seen, i = iter(positionals), {}, 1
    dash = [token.startswith("-") for token in argv] + [True]  # True ends every run
    while i < len(argv):
        if dash[i]:
            act, run, i = options.get(argv[i]), dash.index(True, i + 1) - i - 1, i + 1
        else:
            act, run = next(positionals, None), 1
        take = act and {0: 0, None: 1, "*": run}.get(act.nargs)
        if take is None or take > run or act.dest in seen or act.default is argparse.SUPPRESS:
            return None
        try:
            values = list(map(act.type, argv[i:i + take])) if act.type else argv[i:i + take]
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if act.choices is not None and any(v not in act.choices for v in values):
            return None
        seen[act.dest], i = values if act.nargs == "*" else (values or [act.const])[0], i + take
    if any(dest not in seen for dest in required):
        return None
    args = argparse.Namespace()  # filled by one update, not one setattr per dest
    vars(args).update(defaults, **seen, command=argv[0], func=func)
    return args


def main(argv: list[str] | None = None) -> int:
    # A large instance allocates tens of thousands of tuples and lists, which
    # set off cyclic-collector passes; no route builds a reference cycle, so
    # reference counting frees everything and the collector pauses for the call.
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = (_plain_args(parser, _sys.argv[1:] if argv is None else argv)
                or parser.parse_args(argv))
        if getattr(args, "k", 0) < 0:
            print("k must be nonnegative", file=_sys.stderr)
            return 2
        if getattr(args, "cap", None) is not None and args.cap < 0:
            print("cap must be nonnegative", file=_sys.stderr)
            return 2
        if getattr(args, "threads", 1) < 1:
            print("threads must be at least 1", file=_sys.stderr)
            return 2
        try:
            return args.func(args)
        except (ParseError, OSError, ValueError) as exc:
            print(str(exc), file=_sys.stderr)
            return 2
        except CapExceeded as exc:
            print(f"cap exceeded without decision ({exc.count} paths)", file=_sys.stderr)
            return 3
        except Exception:  # a crash must never read as a decision
            import traceback  # loaded only on a crash
            traceback.print_exc(file=_sys.stderr)
            return 4
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
