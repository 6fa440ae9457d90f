"""Acceptance checks: reproduce every headline result at desk scale.

Each check is a plain function over one fixed grid, the full stated
ranges; ``run_check`` wraps it in a ``CheckResult``, and the CLI's
``verify`` command and the test suite both run them.  Where a check
compares the exact oracle against a formula that has no accompanying
proof, disagreements are reported in ``findings`` rather than failing the
check; everything else must match exactly.

The walk-level reference here checks every strategy tree, the test suite's
too, under either end-of-game rule.  It avoids the library's candidate-set
machinery: it walks positions one step at a time with its own distance
rule, so the two implementations can check each other.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from typing import Callable, Iterable, Optional

from . import adaptive, adversary, codec, nonadaptive, oracle
from .spaces import (
    PositionSet,
    SearchSpace,
    consistent_walk_exists,
    cycle,
    full_set,
    is_valid_walk,
    path,
    split,
    update,
)

REFERENCE_MATRIX_16 = (
    "0000000011111111",
    "0000000110000000",
    "0000001100111111",
    "0000011001100000",
    "0000110011001111",
    "0001100110011000",
)


class CheckResult(namedtuple("CheckResult", "name criterion passed seconds checked findings notes error",
                             defaults=(None,))):
    # findings and notes are lists of strings, error a message or None
    __slots__ = ()

    def record(self) -> dict:
        return {
            "check": self.name,
            "criterion": self.criterion,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "checked": self.checked,
            "findings": self.findings,
            "notes": self.notes,
            **({"error": self.error} if self.error else {}),
        }


class _Tally:
    """Counts assertions and collects non-fatal findings."""

    def __init__(self):
        self.checked = 0
        self.findings: list[str] = []
        self.notes: list[str] = []

    def ok(self, condition: bool, message: str):
        self.checked += 1
        if not condition:
            raise AssertionError(message)

    def note(self, message: str):
        self.findings.append(message)

    def info(self, message: str):
        self.notes.append(message)


# ---------------------------------------------------------------------------
# independent walk-level reference


def _steps(space: SearchSpace, pos: int) -> Iterable[int]:
    n, k = space.num_vertices, space.speed
    if space.topology.value == "cycle":
        return {(pos - 1 + d) % n + 1 for d in range(-k, k + 1)}
    return {q for q in range(max(1, pos - k), min(n, pos + k) + 1)}


def endpoints_by_answers(space: SearchSpace, tests: list[PositionSet]) -> dict:
    """Map each realizable answer sequence to its set of final positions."""
    out: dict[tuple[int, ...], set[int]] = {}

    def go(pos, i, answers):
        if i == len(tests):
            out.setdefault(answers, set()).add(pos)
            return
        y = 1 if pos in tests[i] else 0
        for q in _steps(space, pos):
            go(q, i + 1, answers + (y,))

    for start in range(1, space.num_vertices + 1):
        go(start, 0, ())
    return out


def _strategy_succeeds_everywhere(t: _Tally, strategy: adaptive.AdaptiveStrategy):
    """Leaf soundness on every branch, plus position-level success.  One
    depth-first walk carries the candidate set down each tree edge, the
    answer-0 side first; then every walk of the target, memoized on (node,
    position), so it costs O(nodes * N * (2k+1)).  With
    ``moves_after_last_test`` off the target makes no move after the last
    test, so a leaf holds that test's part."""
    space = strategy.space
    moves = space.moves_after_last_test
    stack = [(strategy.root, (), full_set(space))]
    while stack:
        node, bits, d = stack.pop()
        if node.is_leaf:
            t.ok(node.answer == d, f"leaf mismatch on {bits}")
            if d:
                t.ok(len(d) <= strategy.accuracy_target, f"leaf over target on {bits}: {len(d)}")
        else:
            for y, child in ((1, node.on1), (0, node.on0)):
                step = update if moves or not child.is_leaf else split
                stack.append((child, bits + (y,), step(space, d, node.test, y)))
    seen = set()

    def go(node, pos):
        if (id(node), pos) in seen:
            return
        seen.add((id(node), pos))
        if node.is_leaf:
            t.ok(pos in node.answer, f"walk escaped a leaf at {pos}")
            return
        child = node.child(1 if pos in node.test else 0)
        for q in _steps(space, pos) if moves or not child.is_leaf else (pos,):
            go(child, q)

    for start in range(1, space.num_vertices + 1):
        go(strategy.root, start)


# ---------------------------------------------------------------------------
# the nine checks


def check_example1(t: _Tally):
    m = nonadaptive.expanding_accuracy_matrix(16)
    t.ok(m.to_text().split() == list(REFERENCE_MATRIX_16), "matrix differs from the reference")
    t.ok(m.rows == 6 == -(-16 // 2) - 2, "row count is not ceil(N/2)-2")
    sp = path(16, 1)
    t.ok(nonadaptive.evaluate_matrix(sp, m, 4).success, "reference matrix fails at accuracy 4")
    t.ok(codec.decode(sp, m, (0,) * 6) == PositionSet.parse("1-4"), "all-miss branch decode")


def check_eq1(t: _Tally):
    for n_vertices in range(5, 15):
        want = -(-n_vertices // 2) - 2
        got = oracle.exact_min_tests(path(n_vertices, 1), 4, test_class="intervals")
        t.ok(got.min_tests == want, f"interval oracle at N={n_vertices}: {got.min_tests} != {want}")
        sub = oracle.exact_min_tests(path(n_vertices, 1), 4, test_class="all_subsets")
        t.ok(sub.min_tests == want, f"subset oracle at N={n_vertices}: {sub.min_tests}")


def check_cycle_capacity(t: _Tally):
    for n, s in itertools.product(range(5), (5, 6)):
        cap = adaptive.cycle_capacity(n, s, 1)
        st = adaptive.cycle_strategy(cap, s, 1)
        t.ok(st.depth() == n, f"strategy at capacity N={cap} uses {st.depth()} != {n} tests")
        _strategy_succeeds_everywhere(t, st)
        forced = adversary.greedy_forced_size(cycle(cap + 1, 1), n)
        t.ok(forced >= s + 1, f"greedy at N={cap + 1}, n={n}: forced {forced} < {s + 1}")
        gv = oracle.exact_min_tests(cycle(cap, 1), s, test_class="intervals")
        t.ok(gv.min_tests == n, f"oracle at capacity N={cap}: {gv.min_tests} != {n}")
        gv = oracle.exact_min_tests(cycle(cap + 1, 1), s, test_class="intervals")
        t.ok(
            gv.min_tests is None or gv.min_tests > n,
            f"oracle solves N={cap + 1} in {gv.min_tests} <= {n} tests",
        )


def check_path_capacity(t: _Tally):
    grids = [(n, s, 1) for n in range(4) for s in (4, 5)] + [(n, 8, 2) for n in range(3)]
    for n, s, k in grids:
        cap = adaptive.path_capacity(n, s, k)
        st = adaptive.path_strategy(cap, s, k)
        t.ok(st.depth() <= n, f"strategy at N={cap} k={k} uses {st.depth()} > {n} tests")
        _strategy_succeeds_everywhere(t, st)
        forced = adversary.margin_forced_size(path(cap + 1, k), n, s)
        t.ok(forced >= s + 1, f"margin sweep at N={cap + 1} k={k} n={n}: {forced} < {s + 1}")


def check_accuracy_thresholds(t: _Tally):
    for k in (1, 2):
        for n_vertices in range(1, 10):
            got = oracle.exact_min_accuracy(path(n_vertices, k), test_class="all_subsets")
            t.ok(
                got == adaptive.path_min_accuracy(n_vertices, k),
                f"path accuracy at N={n_vertices} k={k}: {got}",
            )
            got = oracle.exact_min_accuracy(cycle(n_vertices, k), test_class="all_subsets")
            t.ok(
                got == adaptive.cycle_min_accuracy(n_vertices, k),
                f"cycle accuracy at N={n_vertices} k={k}: {got}",
            )
    for n_vertices in range(10, 14):
        got = oracle.exact_min_accuracy(path(n_vertices, 1), test_class="intervals")
        t.ok(got == adaptive.path_min_accuracy(n_vertices, 1), f"path s* at N={n_vertices}")
        got = oracle.exact_min_accuracy(path(n_vertices, 2), test_class="intervals")
        t.ok(got == adaptive.path_min_accuracy(n_vertices, 2), f"path s* k=2 at N={n_vertices}")

    # non-adaptive thresholds by exhaustive matrix search
    for k, n_vertices in itertools.product((1, 2), range(3, 9)):
        want = nonadaptive.nonadaptive_min_accuracy(n_vertices, k)
        if n_vertices <= want:
            continue
        sp = path(n_vertices, k)
        rows_cap = 4
        found = any(
            oracle.exact_best_matrix(sp, want, rows) is not None
            for rows in range(1, rows_cap + 1)
        )
        t.ok(found, f"no matrix reaches accuracy {want} on N={n_vertices} k={k}")
        t.ok(
            oracle.exact_best_matrix(sp, want - 1, rows_cap) is None,
            f"matrix beats the accuracy floor on N={n_vertices} k={k}",
        )

    # counter-strategy refutes any below-4k claim on longer paths
    rng = random.Random(2024)
    for n_vertices, k in [(7, 1), (9, 1), (13, 2), (16, 2)]:
        sp = path(n_vertices, k)
        samples = [nonadaptive.general_k_matrix(n_vertices, k)]
        for _ in range(10):
            rows = rng.randint(1, 4)
            samples.append(
                nonadaptive.TestMatrix(
                    tuple(tuple(rng.randint(0, 1) for _ in range(n_vertices)) for _ in range(rows))
                )
            )
        for m in samples:
            cert = adversary.matrix_counter(sp, m)
            t.ok(cert.forced_accuracy >= 4 * k, f"counter too weak on N={n_vertices} k={k}")
            for walk in cert.walks:
                t.ok(is_valid_walk(sp, walk), "counter witness walk invalid")
                for pos, test, y in zip(walk, m.tests(), cert.answers):
                    t.ok((pos in test) == bool(y), "counter witness inconsistent")
                t.ok(walk[-1] in cert.final_candidates, "counter witness misses final set")


def check_nonadaptive_optimality(t: _Tally):
    grids = [(1, range(5, 25))] + [(k, range(6 * k + 1, 16 * k + 40)) for k in (2, 3)]
    for k, sizes in grids:
        for n_vertices in sizes:
            if k == 1:
                m = nonadaptive.expanding_accuracy_matrix(n_vertices)
                t.ok(m.rows == -(-n_vertices // 2) - 2, f"unexpected row count at N={n_vertices}")
            else:
                m = nonadaptive.general_k_matrix(n_vertices, k)
            sp = path(n_vertices, k)
            where = f"N={n_vertices} k={k}"
            t.ok(nonadaptive.evaluate_matrix(sp, m, 4 * k).success, f"matrix fails at {where}")
            t.ok(
                m.rows == adaptive.min_tests("path", n_vertices, 4 * k, k).n,
                f"row count differs from the adaptive optimum at {where}",
            )
            if m.rows > 1:
                shorter = nonadaptive.TestMatrix(m.bits[:-1])
                t.ok(
                    not nonadaptive.evaluate_matrix(sp, shorter, 4 * k).success,
                    f"dropping a row still succeeds at {where}",
                )
    for n_vertices in range(5, 13):
        rows = -(-n_vertices // 2) - 2
        if rows < 2:
            continue
        t.ok(
            oracle.exact_best_matrix(path(n_vertices, 1), 4, rows - 1) is None,
            f"a {rows - 1}-row matrix exists at N={n_vertices}",
        )


def check_restricted_formulas(t: _Tally):
    """The source's restricted-model capacities N* against the oracle at N*
    and N*+1.  On cycles with n >= 1, N* is
    ``adaptive.restricted_cycle_capacity`` and must hold; a source formula
    that differs from it is a finding.  Elsewhere N* is the source's formula,
    which comes without proof, so a miss is a finding."""
    t.info(
        "accuracy bookkeeping: the announced set follows the arena's "
        "moves_after_last_test flag; with the flag off the size check "
        "applies before the trailing move"
    )
    for k in (1, 2):
        for s in (4 * k, 4 * k + 1):
            for n in range(4):
                for topo, source in (
                    ("path", (s - 2 * k) * (1 << n) + k * (2 * n + 2)),
                    ("cycle", (s - 2 * k) * (1 << n) + 2 * k),
                ):
                    mk = path if topo == "path" else cycle
                    derived = topo == "cycle" and n >= 1
                    cap = adaptive.restricted_cycle_capacity(n, s, k) if derived else source
                    at, over = (
                        oracle.exact_min_tests(mk(m, k, moves_after_last_test=False), s).min_tests
                        for m in (cap, cap + 1)
                    )
                    holds = at == n and (over is None or over > n)
                    where = f"restricted {topo} k={k} s={s} n={n}"
                    if derived:
                        t.ok(holds, f"{where}: the arc-halving capacity {cap} needs {at} tests, {over} one above")
                        if source != cap:
                            t.note(f"{where}: the source's formula gives N*={source} but the capacity is {cap}")
                    else:
                        if not holds:
                            t.note(
                                f"{where}: the source's formula gives N*={source}, where the oracle "
                                f"needs {at} tests, and {over} one above"
                            )
                        t.checked += 1


def check_soundness_suite(t: _Tally):
    rng = random.Random(99)
    configs = [
        (topo, n_vertices, k, rounds)
        for topo in ("path", "cycle")
        for n_vertices, k, rounds in ((6, 1, 4), (8, 1, 4), (7, 2, 3), (8, 2, 4))
    ]
    for topo, n_vertices, k, rounds in configs:
        sp = path(n_vertices, k) if topo == "path" else cycle(n_vertices, k)
        for _ in range(3):
            tests = [
                PositionSet.from_members(
                    v for v in range(1, n_vertices + 1) if rng.random() < 0.45
                )
                for _ in range(rounds)
            ]
            reference = endpoints_by_answers(sp, tests)
            for answers in itertools.product((0, 1), repeat=rounds):
                d = full_set(sp)
                for test, y in zip(tests, answers):
                    d = update(sp, d, test, y)
                t.ok(
                    set(d) == reference.get(answers, set()),
                    f"chain endpoints differ for {topo} N={n_vertices} k={k} {answers}",
                )
                walk = consistent_walk_exists(sp, tests, list(answers))
                t.ok((walk is not None) == bool(d), "walk existence disagrees with the chain")
                if walk is not None:
                    t.ok(is_valid_walk(sp, walk) and walk[-1] in d, "reconstructed walk broken")
                if d:
                    t.ok(set(codec.decode(sp, tests, answers)) == set(d), "decode disagrees with the search chain")
        # adversary transcripts stay realizable round by round
        s_target = adaptive.path_min_accuracy(n_vertices, k) if topo == "path" else adaptive.cycle_min_accuracy(n_vertices, k)
        if topo == "path" and n_vertices >= 4 * k + 1:
            st = adaptive.path_shifting_strategy(n_vertices, k)
            for tr in (adversary.greedy_adversary(sp, st), adversary.window_adversary(sp, st)):
                for i in range(1, len(tr.rounds) + 1):
                    walk = consistent_walk_exists(sp, tr.tests()[:i], tr.answers()[:i])
                    t.ok(walk is not None, "adversary transcript prefix unrealizable")
        # codec containment for every walk is implied by the endpoint check above;
        # run the session harness on a few seeded walks as well
        if topo == "cycle" and n_vertices > s_target:
            st = adaptive.cycle_strategy(n_vertices, s_target, k)
            for seed in range(4):
                tr = codec.simulate_session(sp, st, seed=seed)
                t.ok(tr.witness[len(tr.rounds)] in tr.announced, "codec missed the target")

    # interval compression against a plain-set reference
    for _ in range(300):
        a = {rng.randint(1, 30) for _ in range(rng.randint(0, 12))}
        b = {rng.randint(1, 30) for _ in range(rng.randint(0, 12))}
        pa, pb = PositionSet.from_members(a), PositionSet.from_members(b)
        t.ok(set(pa | pb) == a | b, "union mismatch")
        t.ok(set(pa & pb) == a & b, "intersection mismatch")
        t.ok(set(pa - pb) == a - b, "difference mismatch")
        width = rng.randint(0, 3)
        t.ok(
            set(pa.widened(width)) == {v + d for v in a for d in range(-width, width + 1)},
            "widening mismatch",
        )


def check_sliding_window(t: _Tally):
    for k, span, n in [(2, 1, 3), (2, 2, 2), (1, 1, 4)]:
        n_vertices = 2 * n * span + 4 * k
        st = adaptive.path_sliding_window_strategy(n_vertices, k, span)
        t.ok(st.accuracy_target == 3 * k + span, "wrong accuracy target")
        t.ok(st.depth() <= n, f"needs {st.depth()} > {n} tests at N={n_vertices}")
        _strategy_succeeds_everywhere(t, st)


CHECKS: dict[str, tuple[int, Callable]] = {
    "example1": (1, check_example1),
    "eq1": (2, check_eq1),
    "cycle-capacity": (3, check_cycle_capacity),
    "path-capacity": (4, check_path_capacity),
    "accuracy-thresholds": (5, check_accuracy_thresholds),
    "nonadaptive-optimality": (6, check_nonadaptive_optimality),
    "restricted-formulas": (7, check_restricted_formulas),
    "soundness-suite": (8, check_soundness_suite),
    "sliding-window": (9, check_sliding_window),
}


def run_check(name: str) -> CheckResult:
    criterion, fn = CHECKS[name]
    t = _Tally()
    start = time.perf_counter()
    try:
        fn(t)
        passed, error = True, None
    except AssertionError as exc:
        passed, error = False, str(exc)
    return CheckResult(
        name, criterion, passed, time.perf_counter() - start, t.checked, t.findings, t.notes, error
    )


def run_checks(names: Optional[list[str]] = None) -> list[CheckResult]:
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {', '.join(unknown)}")
    return [run_check(n) for n in names]
