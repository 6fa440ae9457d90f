"""Command-line surface: tables, strategies, matrices, simulations, verification.

Every command is a thin wrapper over library calls; no domain result is
computed here.  Machine output is json-lines (one object per line, stable
key order) with a csv projection; the human format makes no stability
promises.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

from . import adaptive, adversary, codec, nonadaptive, oracle, verify
from .errors import BudgetExceededError, RegimeError
from .nonadaptive import TestMatrix
from .spaces import cycle, path

OUTDIR_ENV = "MOVINGSEARCH_OUTDIR"
MAX_RANGE = 100_000  # the most values one ``lo..hi`` range may list


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        if lo > hi:
            raise SystemExit2(f"range {text} runs backwards")
        if hi - lo >= MAX_RANGE:
            raise SystemExit2(f"range {text} lists more than {MAX_RANGE} values")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_walk(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _resolve_out(filename: Optional[str]) -> Optional[str]:
    if filename is None:
        return None
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(filename):
        return os.path.join(base, filename)
    return filename


def _emit(rows: list[dict], fmt: str, out):
    if not rows:
        return
    if fmt == "json-lines":
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    elif fmt == "csv":
        keys = list(rows[0])
        writer = csv.DictWriter(out, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in keys})
    else:
        keys = list(rows[0])
        widths = {k: max(len(k), *(len(_csv_cell(r.get(k))) for r in rows)) for k in keys}
        out.write("  ".join(k.ljust(widths[k]) for k in keys) + "\n")
        for row in rows:
            out.write("  ".join(_csv_cell(row.get(k)).ljust(widths[k]) for k in keys) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _make_space(args, flag_attr: str = "restricted"):
    moves = not getattr(args, flag_attr, False)
    maker = cycle if args.topology == "cycle" else path
    return maker(args.N, args.k, moves_after_last_test=moves)


def _load_matrix(path_: str) -> TestMatrix:
    with open(path_, encoding="ascii") as fh:
        return TestMatrix.parse(fh.read())


def _build_strategy(args) -> adaptive.AdaptiveStrategy:
    kind = getattr(args, "kind", "auto")
    if args.topology == "cycle":
        if args.s is None:
            raise SystemExit2("cycle strategies need --s")
        return adaptive.cycle_strategy(args.N, args.s, args.k)
    if kind == "shifting" or (kind == "auto" and args.s is None and args.span is None):
        return adaptive.path_shifting_strategy(args.N, args.k)
    if kind == "sliding" or (kind == "auto" and args.span is not None):
        span = args.span if args.span is not None else 1
        return adaptive.path_sliding_window_strategy(args.N, args.k, span)
    if args.s is None:
        raise SystemExit2("this strategy kind needs --s")
    return adaptive.path_strategy(args.N, args.s, args.k)


class SystemExit2(Exception):
    """Usage error that should exit with code 2."""


# -- commands -----------------------------------------------------------------


def cmd_table(args, out) -> int:
    rows = []
    if args.s_star:
        if args.N is None:
            raise SystemExit2("accuracy tables need --N")
        if args.nonadaptive and args.topology == "cycle":
            raise SystemExit2("the non-adaptive accuracy floor is known for paths only")
        for n_vertices in _parse_range(args.N):
            if args.nonadaptive:
                value = nonadaptive.nonadaptive_min_accuracy(n_vertices, args.k)
                tag = "nonadaptive-min-accuracy"
            elif args.topology == "cycle":
                value = adaptive.cycle_min_accuracy(n_vertices, args.k)
                tag = "cycle-min-accuracy"
            else:
                value = adaptive.path_min_accuracy(n_vertices, args.k)
                tag = "path-min-accuracy"
            rows.append(
                {"topology": args.topology, "n": None, "s": value, "k": args.k,
                 "N": n_vertices, "source": tag}
            )
    else:
        if args.nonadaptive:
            raise SystemExit2("non-adaptive capacity tables are not implemented; use --s-star")
        if args.s is None or args.n is None:
            raise SystemExit2("capacity tables need --s and --n (or use --s-star with --N)")
        fn = adaptive.cycle_capacity if args.topology == "cycle" else adaptive.path_capacity
        tag = f"{args.topology}-capacity"
        for n in _parse_range(args.n):
            row = {"topology": args.topology, "n": n, "s": args.s, "k": args.k,
                   "N": None, "source": tag}
            try:
                row["N"] = fn(n, args.s, args.k)
            except RegimeError as exc:
                row["source"] = f"regime-error: {exc}"
            rows.append(row)
    _emit(rows, args.format, out)
    return 0


def cmd_strategy(args, out) -> int:
    strategy = _build_strategy(args)
    text = strategy.serialize()
    target = _resolve_out(args.out)
    if target:
        with open(target, "w", encoding="ascii") as fh:
            fh.write(text)
        out.write(f"wrote {strategy.num_nodes()} nodes (depth {strategy.depth()}) to {target}\n")
    else:
        out.write(text)
    return 0


def cmd_matrix(args, out) -> int:
    m = nonadaptive.general_k_matrix(args.N, args.k)
    target = _resolve_out(args.out)
    if target:
        with open(target, "w", encoding="ascii") as fh:
            fh.write(m.to_text())
        out.write(f"wrote {m.rows}x{m.cols} matrix to {target}\n")
    else:
        out.write(m.to_text())
    return 0


def cmd_simulate(args, out) -> int:
    space = _make_space(args)
    source = _load_matrix(args.matrix_file) if args.matrix_file else _build_strategy(args)
    kwargs = {}
    if args.walk:
        kwargs["walk"] = _parse_walk(args.walk)
    elif args.adversarial:
        kwargs["adversarial"] = True
    else:
        kwargs["seed"] = args.seed if args.seed is not None else 0
    tr = codec.simulate_session(space, source, accuracy=args.s, **kwargs)
    out.write(tr.serialize())
    out.write(f"bits={codec.bits_to_text(tr.answers())} announced={tr.announced}\n")
    return 0


def cmd_adversary(args, out) -> int:
    space = _make_space(args)
    victim = None
    if args.matrix_file:
        victim = _load_matrix(args.matrix_file)
    if args.mode == "greedy":
        if victim is None and args.n is not None:
            forced = adversary.greedy_forced_size(space, args.n, args.test_class)
            verdict = (
                f"every {args.test_class} strategy with {args.n} tests ends with "
                f"|D_{args.n}| >= {forced}"
            )
            if args.s is not None and forced > args.s:
                verdict += f": accuracy {args.s} refuted"
            out.write(verdict + "\n")
            return 0
        tr = adversary.greedy_adversary(space, victim if victim is not None else _build_strategy(args))
    elif args.mode == "window":
        tr = adversary.window_adversary(space, victim if victim is not None else _build_strategy(args))
    elif args.mode == "margin":
        if args.s is None or args.n is None:
            raise SystemExit2("margin mode needs --s and --n")
        if victim is None and not _has_strategy_params(args):
            forced = adversary.margin_forced_size(space, args.n, args.s, args.test_class)
            verdict = f"every {args.test_class} strategy with {args.n} tests ends with |D_{args.n}| >= {forced}"
            if forced > args.s:
                verdict += f": accuracy {args.s} refuted"
            out.write(verdict + "\n")
            return 0
        tr = adversary.margin_adversary(
            space, victim if victim is not None else _build_strategy(args), args.n, args.s
        )
    else:  # counter
        if victim is None:
            raise SystemExit2("counter mode needs --matrix-file")
        cert = adversary.matrix_counter(space, victim)
        out.write(f"forced_accuracy={cert.forced_accuracy}\n")
        out.write("answers=" + codec.bits_to_text(cert.answers) + "\n")
        for walk in cert.walks:
            out.write("walk=" + ",".join(str(p) for p in walk) + "\n")
        out.write(f"final={cert.final_candidates}\n")
        return 0
    out.write(tr.serialize())
    final = tr.final_candidates
    out.write(f"final |D_{len(tr.rounds)}| = {len(final)}\n")
    return 0


def _has_strategy_params(args) -> bool:
    return getattr(args, "kind", "auto") != "auto" or getattr(args, "span", None) is not None


def cmd_oracle(args, out) -> int:
    space = _make_space(args)
    override = {"auto": None, "before": False, "after": True}[args.check]
    gv = oracle.exact_min_tests(
        space, args.s, test_class=args.test_class, budget=args.budget, check_expanded=override
    )
    _emit([gv.record()], args.format, out)
    if args.emit_strategy and gv.status == "solved":
        out.write(oracle.extract_strategy(gv).serialize())
    return 0


def cmd_codec(args, out) -> int:
    space = path(args.N, args.k)
    source = _load_matrix(args.matrix_file) if args.matrix_file else nonadaptive.general_k_matrix(args.N, args.k)
    if args.bits is not None:
        decoded = codec.decode(space, source, codec.text_to_bits(args.bits))
        out.write(f"decoded={decoded}\n")
        return 0
    if args.walk is None:
        raise SystemExit2("codec needs --walk to encode or --bits to decode")
    walk = _parse_walk(args.walk)
    session = codec.CodecSession(space, source)
    for pos in walk[:-1] if len(walk) > 1 else walk:
        if session.done:
            break
        session.encode_step(pos)
    out.write(f"bits={codec.bits_to_text(session.bits)}\n")
    out.write(f"decoded={session.decoded}\n")
    return 0


def cmd_verify(args, out) -> int:
    names = args.check if args.check else None
    try:
        results = verify.run_checks(names, scale=args.scale)
    except KeyError as exc:
        raise SystemExit2(str(exc)) from None
    rows = [r.record() for r in results]
    if args.format == "human":
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            out.write(f"{status} criterion {r.criterion} [{r.name}] "
                      f"({r.checked} checks, {r.seconds:.1f}s)\n")
            for line in r.notes:
                out.write(f"     note: {line}\n")
            for line in r.findings:
                out.write(f"     finding: {line}\n")
            if r.error:
                out.write(f"     error: {r.error}\n")
    else:
        _emit(rows, args.format, out)
    return 0 if all(r.passed for r in results) else 1


# -- parser ----------------------------------------------------------------------


def _add_common(p, topology=True, s=False, n=False):
    if topology:
        p.add_argument("--topology", choices=["path", "cycle"], default="path")
    p.add_argument("--N", type=int, required=True, help="number of vertices")
    p.add_argument("--k", type=int, required=True, help="target speed")
    if s:
        p.add_argument("--s", type=int, default=None, help="accuracy target")
    if n:
        p.add_argument("--n", type=int, default=None, help="test budget")


def _add_strategy_params(p):
    p.add_argument("--kind", choices=["auto", "split", "shifting", "sliding"], default="auto",
                   help="path construction to use (cycle arenas always halve arcs)")
    p.add_argument("--span", type=int, default=None, help="window slide per miss (sliding kind)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingsearch",
        description="Worst-case search for a target moving up to k steps per round "
        "on path and cycle graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="capacity and accuracy tables")
    p.add_argument("--topology", choices=["path", "cycle"], default="path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--n", type=str, default=None, help="test budget or range, e.g. 0..6")
    p.add_argument("--N", type=str, default=None, help="vertex count or range, e.g. 1..13")
    p.add_argument("--s-star", dest="s_star", action="store_true",
                   help="tabulate the best accuracy instead of capacities")
    p.add_argument("--nonadaptive", action="store_true",
                   help="with --s-star: the non-adaptive accuracy floor")
    p.add_argument("--format", choices=["human", "json-lines", "csv"], default="human")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("strategy", help="construct and print a strategy tree")
    _add_common(p, s=True)
    _add_strategy_params(p)
    p.add_argument("--out", default=None, help="write the tree here instead of stdout")
    p.set_defaults(fn=cmd_strategy)

    p = sub.add_parser("matrix", help="construct and print a non-adaptive matrix")
    _add_common(p, topology=False)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("simulate", help="run the codec harness against a walk source")
    _add_common(p, s=True)
    _add_strategy_params(p)
    p.add_argument("--matrix-file", default=None)
    p.add_argument("--walk", default=None, help="comma-separated positions")
    p.add_argument("--adversarial", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restricted", action="store_true",
                   help="the target does not move after the last test")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("adversary", help="run a counter-strategy or a class sweep")
    p.add_argument("--mode", choices=["greedy", "window", "margin", "counter"], required=True)
    _add_common(p, s=True, n=True)
    _add_strategy_params(p)
    p.add_argument("--matrix-file", default=None)
    p.add_argument("--test-class", choices=["intervals", "all_subsets"], default="intervals")
    p.add_argument("--restricted", action="store_true")
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("oracle", help="exact minimax ground truth at desk scale")
    _add_common(p, s=True)
    p.add_argument("--test-class", choices=["intervals", "all_subsets"], default="intervals")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--check", choices=["auto", "before", "after"], default="auto",
                   help="where the accuracy check applies relative to the trailing move")
    p.add_argument("--emit-strategy", action="store_true")
    p.add_argument("--format", choices=["human", "json-lines", "csv"], default="json-lines")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("codec", help="encode a walk to bits / decode bits to a set")
    _add_common(p, topology=False)
    p.add_argument("--walk", default=None)
    p.add_argument("--bits", default=None)
    p.add_argument("--matrix-file", default=None)
    p.set_defaults(fn=cmd_codec)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--scale", choices=["tiny", "default"], default="default")
    p.add_argument("--check", action="append", default=None,
                   help="run only this check (repeatable)")
    p.add_argument("--format", choices=["human", "json-lines", "csv"], default="human")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, out)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return 3
    except (RegimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
