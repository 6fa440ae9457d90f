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
from .errors import BudgetExceededError, RegimeError, WindowInvariantError
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


def _make_space(args):
    # only ``oracle`` and ``simulate`` take --restricted: nothing else reads the flag
    moves = not getattr(args, "restricted", False)
    maker = cycle if args.topology == "cycle" else path
    return maker(args.N, args.k, moves_after_last_test=moves)


def _load_matrix(path_: str, n: int) -> TestMatrix:
    with open(path_, encoding="ascii") as fh:
        matrix = TestMatrix.parse(fh.read())
    if matrix.cols != n:
        raise SystemExit2(f"matrix has {matrix.cols} columns but the arena has {n} vertices")
    return matrix


def _reject(args, where: str, *options: str):
    """Exit 2 naming the first of ``options`` given: the path chosen does not read it."""
    for option in options:
        if getattr(args, option[2:].replace("-", "_")) not in (None, "auto"):
            raise SystemExit2(f"{option} does not apply to {where}")


def _build_strategy(args) -> adaptive.AdaptiveStrategy:
    if args.topology == "cycle":
        _reject(args, "cycle strategies: they always halve arcs", "--kind", "--span")
        if args.s is None:
            raise SystemExit2("cycle strategies need --s")
        return adaptive.cycle_strategy(args.N, args.s, args.k)
    kind = args.kind
    if kind == "auto":
        kind = "sliding" if args.span is not None else "split" if args.s is not None else "shifting"
    if kind != "sliding":
        _reject(args, f"the {kind} strategy", "--span")
    if kind == "split":
        if args.s is None:
            raise SystemExit2("this strategy kind needs --s")
        return adaptive.path_strategy(args.N, args.s, args.k)
    span = args.span if args.span is not None else 1
    if args.s is not None and getattr(args, "mode", None) != "margin":  # margin's --s is its own target
        raise SystemExit2(f"--s does not apply to the {kind} strategy: it reaches accuracy {3 * args.k + span}")
    if kind == "shifting":
        return adaptive.path_shifting_strategy(args.N, args.k)
    return adaptive.path_sliding_window_strategy(args.N, args.k, span)


def _source(args):
    """The tests that ``simulate`` and the adversary transcripts play: the
    ``--matrix-file`` matrix, else the strategy the kind options build."""
    if args.matrix_file:
        _reject(args, "a --matrix-file source", "--kind", "--span")
        return _load_matrix(args.matrix_file, args.N)
    return _build_strategy(args)


class SystemExit2(Exception):
    """Usage error that should exit with code 2."""


# -- commands -----------------------------------------------------------------


def cmd_table(args, out) -> int:
    rows = []
    if args.N is not None:
        if args.s is not None or args.n is not None:
            raise SystemExit2(
                "--N asks for accuracy floors, --s with --n for capacities: give one or the other"
            )
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
            raise SystemExit2("non-adaptive capacity tables are not implemented; accuracy floors need --N")
        if args.s is None or args.n is None:
            raise SystemExit2("capacity tables need --s and --n, accuracy floors --N")
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
    source = _source(args)
    kwargs = {}
    if args.walk:
        kwargs["walk"] = _parse_walk(args.walk)
    elif args.adversarial:
        kwargs["adversarial"] = True
    else:
        kwargs["seed"] = args.seed if args.seed is not None else 0
    try:
        tr = codec.simulate_session(space, source, accuracy=args.s, **kwargs)
    except AssertionError as exc:  # the decoded set misses the object or is wider than --s
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    out.write(tr.serialize())
    out.write(f"bits={codec.bits_to_text(tr.answers())} announced={tr.announced}\n")
    return 0


def cmd_adversary(args, out) -> int:
    space = _make_space(args)
    if args.mode == "counter":
        _reject(args, "counter mode", "--kind", "--span", "--s", "--n", "--test-class")
        if not args.matrix_file:
            raise SystemExit2("counter mode needs --matrix-file")
        cert = adversary.matrix_counter(space, _load_matrix(args.matrix_file, args.N))
        out.write(f"forced_accuracy={cert.forced_accuracy}\n")
        out.write("answers=" + codec.bits_to_text(cert.answers) + "\n")
        for walk in cert.walks:
            out.write("walk=" + ",".join(str(p) for p in walk) + "\n")
        out.write(f"final={cert.final_candidates}\n")
        return 0
    if args.mode == "margin" and (args.s is None or args.n is None):
        raise SystemExit2("margin mode needs --s and --n")
    named = args.matrix_file or args.kind != "auto" or args.span is not None
    if args.mode != "window" and args.n is not None and not named:  # sweep the whole class
        test_class = args.test_class or "intervals"
        if args.mode == "greedy":
            forced = adversary.greedy_forced_size(space, args.n, test_class)
        else:
            forced = adversary.margin_forced_size(space, args.n, args.s, test_class)
        verdict = f"every {test_class} strategy with {args.n} tests ends with |D_{args.n}| >= {forced}"
        if args.s is not None and forced > args.s:
            verdict += f": accuracy {args.s} refuted"
        out.write(verdict + "\n")
        return 0
    # the margin transcript reads --n and --s as its budget and target
    unread = () if args.mode == "margin" else ("--n", "--s") if args.matrix_file else ("--n",)
    _reject(args, f"the {args.mode} transcript", "--test-class", *unread)
    source = _source(args)
    if args.mode == "greedy":
        tr = adversary.greedy_adversary(space, source)
    elif args.mode == "window":
        try:
            tr = adversary.window_adversary(space, source)
        except WindowInvariantError as exc:  # a test meeting the block in two runs
            raise SystemExit2(f"the window adversary cannot answer: {exc}") from None
    else:
        tr = adversary.margin_adversary(space, source, args.n, args.s)
    out.write(tr.serialize())
    final = tr.final_candidates
    out.write(f"final |D_{len(tr.rounds)}| = {len(final)}\n")
    return 0


def cmd_oracle(args, out) -> int:
    space = _make_space(args)
    gv = oracle.exact_min_tests(space, args.s, test_class=args.test_class, budget=args.budget)
    _emit([gv.record()], args.format, out)
    if args.emit_strategy and gv.status == "solved":
        out.write(oracle.extract_strategy(gv).serialize())
    return 0


def cmd_codec(args, out) -> int:
    space = path(args.N, args.k)
    source = _load_matrix(args.matrix_file, args.N) if args.matrix_file else nonadaptive.general_k_matrix(args.N, args.k)
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
        results = verify.run_checks(names)
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
    p.add_argument("--N", type=str, default=None,
                   help="vertex count or range, e.g. 1..13: tabulate the best accuracy instead of capacities")
    p.add_argument("--nonadaptive", action="store_true", help="with --N: the non-adaptive accuracy floor")
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
    walk_source = p.add_mutually_exclusive_group()  # one source of target walks
    walk_source.add_argument("--walk", default=None, help="comma-separated positions")
    walk_source.add_argument("--adversarial", action="store_true")
    walk_source.add_argument("--seed", type=int, default=None)
    p.add_argument("--restricted", action="store_true",
                   help="the target does not move after the last test")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("adversary", help="run a counter-strategy or a class sweep")
    p.add_argument("--mode", choices=["greedy", "window", "margin", "counter"], required=True)
    _add_common(p, s=True, n=True)
    _add_strategy_params(p)
    p.add_argument("--matrix-file", default=None)
    p.add_argument("--test-class", choices=["intervals", "all_subsets"], default=None,
                   help="class sweeps only (default intervals)")
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("oracle", help="exact minimax ground truth at desk scale")
    _add_common(p)
    p.add_argument("--s", type=int, required=True, help="accuracy target")
    p.add_argument("--test-class", choices=["intervals", "all_subsets"], default="intervals")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--restricted", action="store_true",
                   help="the target does not move after the last test")
    p.add_argument("--emit-strategy", action="store_true")
    p.add_argument("--format", choices=["human", "json-lines", "csv"], default="json-lines")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("codec", help="encode a walk to bits / decode bits to a set")
    _add_common(p, topology=False)
    direction = p.add_mutually_exclusive_group()  # encode a walk or decode bits
    direction.add_argument("--walk", default=None)
    direction.add_argument("--bits", default=None)
    p.add_argument("--matrix-file", default=None)
    p.set_defaults(fn=cmd_codec)

    p = sub.add_parser("verify", help="run the acceptance checks")
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
        # argparse reads "--opt=--" as an empty list; only --check takes a list, of names
        for name, value in vars(args).items():
            if isinstance(value, list) and (not value or [] in value):
                raise SystemExit2(f"--{name.replace('_', '-')} needs a value, got '--'")
        return args.fn(args, out)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:
        print(f"resource cap exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (RegimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
