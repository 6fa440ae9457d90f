"""Command-line surface: tables, strategies, matrices, simulations, verification.

Every command is a thin wrapper over library calls; no domain result is
computed here.  Each leaf of the command tree (``table capacity``,
``adversary margin split``, ``sweep greedy``, ...) declares exactly the
options its handler reads, so argparse rejects any other as a usage error.
``strategy``, ``simulate`` and the adversary transcripts take their test
source as the last word of the command: one of ``SOURCES``, which fixes the
options the source reads, its topology and what it builds.  Machine output
is json-lines (one object per line, stable key order) with a csv
projection; the human format makes no stability promises.  Exit codes: 0
success, 1 verification failure, 2 usage error, 3 resource cap exceeded.
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
from .nonadaptive import TestMatrix, check_width
from .spaces import cycle, path

OUTDIR_ENV = "MOVINGSEARCH_OUTDIR"
MAX_RANGE = 100_000  # the most values one ``lo..hi`` range may list


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        if lo > hi:
            raise ValueError(f"range {text} runs backwards")
        if hi - lo >= MAX_RANGE:
            raise ValueError(f"range {text} lists more than {MAX_RANGE} values")
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
    check_width(matrix, n)
    return matrix


# test source -> (its topology, None where --topology picks it; the options
# it reads besides --N and --k; what it builds from the parsed arguments)
SOURCES = {
    "split": ("path", ("--s",), lambda a: adaptive.path_strategy(a.N, a.s, a.k)),
    "shifting": ("path", (), lambda a: adaptive.path_shifting_strategy(a.N, a.k)),
    "sliding": ("path", ("--span",), lambda a: adaptive.path_sliding_window_strategy(a.N, a.k, a.span)),
    "cycle": ("cycle", ("--s",), lambda a: adaptive.cycle_strategy(a.N, a.s, a.k)),
    "matrix": (None, ("--topology", "--matrix-file"), lambda a: _load_matrix(a.matrix_file, a.N)),
}


# -- commands -----------------------------------------------------------------


def cmd_table(args, out) -> int:
    rows = []
    if args.table == "capacity":
        fn = adaptive.cycle_capacity if args.topology == "cycle" else adaptive.path_capacity
        for n in _parse_range(args.n):
            row = {"topology": args.topology, "n": n, "s": args.s, "k": args.k,
                   "N": None, "source": f"{args.topology}-capacity"}
            try:
                row["N"] = fn(n, args.s, args.k)
            except RegimeError as exc:
                row["source"] = f"regime-error: {exc}"
            rows.append(row)
    else:
        floor = "nonadaptive" if args.table == "nonadaptive" else args.topology
        fn = {"nonadaptive": nonadaptive.nonadaptive_min_accuracy, "path": adaptive.path_min_accuracy,
              "cycle": adaptive.cycle_min_accuracy}[floor]
        for n_vertices in _parse_range(args.N):
            rows.append(
                {"topology": args.topology, "n": None, "s": fn(n_vertices, args.k), "k": args.k,
                 "N": n_vertices, "source": f"{floor}-min-accuracy"}
            )
    _emit(rows, args.format, out)
    return 0


def cmd_strategy(args, out) -> int:
    strategy = args.build(args)
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
    source = args.build(args)
    if args.walk:
        kwargs = {"walk": _parse_walk(args.walk)}
    elif args.adversarial:
        kwargs = {"adversarial": True}
    else:
        kwargs = {"seed": args.seed if args.seed is not None else 0}
    # a shifting or sliding strategy reaches its own accuracy, 3k+span: it takes no --s
    accuracy = getattr(args, "s", None)
    try:
        tr = codec.simulate_session(space, source, accuracy=accuracy, **kwargs)
    except AssertionError as exc:  # the decoded set misses the object or is wider than --s
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    out.write(tr.serialize())
    out.write(f"bits={codec.bits_to_text(tr.answers())} announced={tr.announced}\n")
    return 0


def cmd_adversary(args, out) -> int:
    space = _make_space(args)
    source = args.build(args)
    if args.rule == "greedy":
        tr = adversary.greedy_adversary(space, source)
    elif args.rule == "window":
        tr = adversary.window_adversary(space, source)
    else:
        tr = adversary.margin_adversary(space, source, args.n, args.s)
    out.write(tr.serialize())
    final = tr.final_candidates
    out.write(f"final |D_{len(tr.rounds)}| = {len(final)}\n")
    return 0


def cmd_counter(args, out) -> int:
    space = _make_space(args)
    cert = adversary.matrix_counter(space, _load_matrix(args.matrix_file, args.N))
    out.write(f"forced_accuracy={cert.forced_accuracy}\n")
    out.write("answers=" + codec.bits_to_text(cert.answers) + "\n")
    for walk in cert.walks:
        out.write("walk=" + ",".join(str(p) for p in walk) + "\n")
    out.write(f"final={cert.final_candidates}\n")
    return 0


def cmd_sweep(args, out) -> int:
    space = _make_space(args)
    if args.rule == "greedy":
        forced = adversary.greedy_forced_size(space, args.n, args.test_class)
    else:
        forced = adversary.margin_forced_size(space, args.n, args.s, args.test_class)
    verdict = f"every {args.test_class} strategy with {args.n} tests ends with |D_{args.n}| >= {forced}"
    if args.s is not None and forced > args.s:
        verdict += f": accuracy {args.s} refuted"
    out.write(verdict + "\n")
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
    walk = _parse_walk(args.walk)
    codec.check_walk(space, walk)
    session = codec.CodecSession(space, source)
    for pos in walk[:-1] if len(walk) > 1 else walk:
        if session.done:
            break
        session.encode_step(pos)
    # as simulate prints it: the positions the tests read, then the one after
    out.write("walk=" + ",".join(map(str, walk[:len(session.bits) + 1])) + "\n")
    out.write(f"bits={codec.bits_to_text(session.bits)}\n")
    out.write(f"decoded={session.decoded}\n")
    return 0


def cmd_verify(args, out) -> int:
    names = args.check if args.check else None
    try:
        results = verify.run_checks(names)
    except KeyError as exc:
        raise ValueError(str(exc)) from None
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

# the options that more than one leaf reads, as each of them declares it
OPTIONS = {
    "--topology": dict(choices=["path", "cycle"], default="path"),
    "--N": dict(type=int, required=True, help="number of vertices"),
    "--k": dict(type=int, required=True, help="target speed"),
    "--s": dict(type=int, required=True, help="accuracy target"),
    "--n": dict(type=int, required=True, help="test budget"),
    "--span": dict(type=int, default=1, help="window slide per miss"),
    "--matrix-file": dict(required=True),
    "--test-class": dict(choices=["intervals", "all_subsets"], default="intervals"),
    "--restricted": dict(action="store_true", help="the target does not move after the last test"),
    "--out": dict(default=None, help="write here instead of stdout"),
    "--format": dict(choices=["human", "json-lines", "csv"], default="human"),
}


def _branch(sub, name: str, help: str, dest: str):
    """Command ``name`` under ``sub``, whose next word names one of its subcommands."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    return p.add_subparsers(dest=dest, required=True)


def _leaf(sub, name: str, fn, *options: str, help: Optional[str] = None, **defaults):
    """Command ``name`` under ``sub``: it reads ``options`` as ``OPTIONS``
    declares them, runs ``fn`` and finds ``defaults`` in its arguments."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for option in options:
        p.add_argument(option, **OPTIONS[option])
    p.set_defaults(fn=fn, **defaults)
    return p


def _kind_leaves(sub, name: str, help: str, fn, *options: str, kinds=tuple(SOURCES)) -> dict:
    """Command ``name`` under ``sub`` with a leaf per test source in ``kinds``,
    each reading the source's own options and ``options``.  Without a
    ``cycle`` source the command plays on paths, and a matrix takes no
    ``--topology``."""
    branch = _branch(sub, name, help, dest="source")
    leaves = {}
    for kind in kinds:
        topology, reads, build = SOURCES[kind]
        if topology is None and "cycle" not in kinds:
            topology, reads = "path", tuple(o for o in reads if o != "--topology")
        fixed = {"topology": topology} if topology else {}
        leaves[kind] = _leaf(branch, kind, fn, "--N", "--k", *reads, *(o for o in options if o not in reads),
                             build=build, **fixed)
    return leaves


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingsearch",
        description="Worst-case search for a target moving up to k steps per round "
        "on path and cycle graphs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = _branch(sub, "table", "capacity and accuracy tables", dest="table")
    p = _leaf(tables, "capacity", cmd_table, "--topology", "--k", "--s", "--format",
              help="the most vertices on which n tests reach accuracy s")
    p.add_argument("--n", required=True, help="test budget or range, e.g. 0..6")
    vertices = dict(required=True, help="vertex count or range, e.g. 1..13")
    p = _leaf(tables, "accuracy", cmd_table, "--topology", "--k", "--format",
              help="the best adaptive accuracy per arena size")
    p.add_argument("--N", **vertices)
    p = _leaf(tables, "nonadaptive", cmd_table, "--k", "--format", topology="path",
              help="the non-adaptive accuracy floor per path size")
    p.add_argument("--N", **vertices)

    _kind_leaves(sub, "strategy", "construct and print a strategy tree", cmd_strategy, "--out",
                 kinds=("split", "shifting", "sliding", "cycle"))

    _leaf(sub, "matrix", cmd_matrix, "--N", "--k", "--out", help="construct and print a non-adaptive matrix")

    leaves = _kind_leaves(sub, "simulate", "run the codec harness against a walk source", cmd_simulate,
                          "--restricted")
    leaves["matrix"].add_argument("--s", type=int, default=None, help="the widest decoded set that passes")
    for p in leaves.values():
        walks = p.add_mutually_exclusive_group()  # one source of target walks
        walks.add_argument("--walk", default=None, help="comma-separated positions")
        walks.add_argument("--adversarial", action="store_true")
        # None, not 0: argparse counts a value that is the default object (int("0") is) as not given
        walks.add_argument("--seed", type=int, default=None)

    rules = _branch(sub, "adversary", "play an adversary against one test source", dest="rule")
    _kind_leaves(rules, "greedy", "keep the larger moved part", cmd_adversary)
    on_paths = ("split", "shifting", "sliding", "matrix")  # the window and margin rules need a path
    _kind_leaves(rules, "window", "keep a 3k+1 block", cmd_adversary, kinds=on_paths)
    _kind_leaves(rules, "margin", "keep a boundary-free tracked set", cmd_adversary, "--n", "--s", kinds=on_paths)
    _leaf(rules, "counter", cmd_counter, "--topology", "--N", "--k", "--matrix-file",
          help="certify the accuracy a matrix is held to")

    rules = _branch(sub, "sweep", "bound every strategy of a test class against an adversary", dest="rule")
    p = _leaf(rules, "greedy", cmd_sweep, "--topology", "--N", "--k", "--n", "--test-class")
    p.add_argument("--s", type=int, default=None, help="accuracy to refute")
    _leaf(rules, "margin", cmd_sweep, "--topology", "--N", "--k", "--n", "--s", "--test-class")

    p = _leaf(sub, "oracle", cmd_oracle, "--topology", "--N", "--k", "--s", "--test-class", "--restricted",
              "--format", format="json-lines", help="exact minimax ground truth at desk scale")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--emit-strategy", action="store_true")

    p = _leaf(sub, "codec", cmd_codec, "--N", "--k", help="encode a walk to bits / decode bits to a set")
    direction = p.add_mutually_exclusive_group(required=True)  # encode a walk or decode bits
    direction.add_argument("--walk", default=None)
    direction.add_argument("--bits", default=None)
    p.add_argument("--matrix-file", default=None)

    p = _leaf(sub, "verify", cmd_verify, "--format", help="run the acceptance checks")
    p.add_argument("--check", action="append", default=None,
                   help="run only this check (repeatable)")

    return parser


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse reads "--opt=--" as an empty list; only --check takes a list, of names
        for name, value in vars(args).items():
            if isinstance(value, list) and (not value or [] in value):
                raise ValueError(f"--{name.replace('_', '-')} needs a value, got '--'")
        return args.fn(args, out)
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
