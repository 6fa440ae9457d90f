"""The three instance grids of the benchmark, each instance with a known verdict.

An instance is a zero-argument check that calls into movingsearch and
returns the contradictions between the library's output and the answer
derived here from the paper's closed forms -- never from the oracle under
test.  The grids are fixed; the seed only draws the random matrices, the
codec walks and the sampled leaf paths (run.py also derives the order of
instances from it).

Every library call goes through a module attribute (``ms.oracle.x(...)``)
so that a traced run, which swaps those attributes for wrappers, sees it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Instance:
    key: str
    check: Callable[[], list]  # returns contradiction messages, [] when the verdict holds


# ---------------------------------------------------------------------------
# closed forms, written out independently of movingsearch.adaptive


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def cycle_capacity(n: int, s: int, k: int) -> int:
    return (1 << n) * (s - 4 * k) + 4 * k


def path_capacity(n: int, s: int, k: int) -> int:
    return (s - 4 * k) * (1 << n) + k * (2 * n + 4)


def restricted_path_capacity(n: int, s: int, k: int) -> int:
    """Target frozen after the last test; the formula the acceptance suite checks."""
    return (s - 2 * k) * (1 << n) + k * (2 * n + 2)


def restricted_cycle_capacity(n: int, s: int, k: int) -> int:
    """Arc halving without the trailing move: C(1) = 2s, C(n) = 2(C(n-1) - 2k)."""
    return (s - 2 * k) * (1 << n) + 4 * k


def path_min_accuracy(n_vertices: int, k: int) -> int:
    if n_vertices <= 2 * k + 1:
        return n_vertices
    if n_vertices < 4 * k + 1:
        return ceil_div(n_vertices, 2) + k
    return 3 * k + 1


def cycle_min_accuracy(n_vertices: int, k: int) -> int:
    return n_vertices if n_vertices <= 4 * k else 4 * k + 1


def nonadaptive_min_accuracy(n_vertices: int, k: int) -> int:
    if n_vertices <= 2 * k:
        return n_vertices
    if n_vertices <= 6 * k:
        return ceil_div(n_vertices, 2) + k
    return 4 * k


def unit_speed_rows(n_vertices: int) -> int:
    """Optimal test count on a unit-speed path at accuracy 4, adaptive or not."""
    return ceil_div(n_vertices, 2) - 2


def _expect(problems: list, ok: bool, message: str):
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# oracle-exact


def _min_tests(ms, space, s: int, test_class: str, n: int, above: bool) -> Instance:
    """The oracle needs exactly n tests, or (above capacity) more than n."""
    name = f"min_tests {space.topology.value} N={space.num_vertices} k={space.speed} s={s} {test_class}"
    if not space.moves_after_last_test:
        name += " restricted"
    name += f" {'above' if above else 'at'} n={n}"

    def check():
        got = ms.oracle.exact_min_tests(space, s, test_class=test_class).min_tests
        ok = (got is None or got > n) if above else got == n
        return [] if ok else [f"{name}: min_tests {got}, want {'> ' if above else ''}{n}"]

    return Instance(name, check)


def _extract(ms, space, s: int, n: int) -> Instance:
    name = f"extract {space.topology.value} N={space.num_vertices} k={space.speed} s={s}"

    def check():
        problems: list = []
        gv = ms.oracle.exact_min_tests(space, s)
        _expect(problems, gv.min_tests == n, f"{name}: min_tests {gv.min_tests}, want {n}")
        if gv.status == "solved":
            depth = ms.oracle.extract_strategy(gv).depth()
            _expect(problems, depth == n, f"{name}: extracted depth {depth}, want {n}")
        return problems

    return Instance(name, check)


def _min_accuracy(ms, space, test_class: str, want: int) -> Instance:
    name = f"min_accuracy {space.topology.value} N={space.num_vertices} k={space.speed} {test_class}"

    def check():
        got = ms.oracle.exact_min_accuracy(space, test_class=test_class)
        return [] if got == want else [f"{name}: {got}, want {want}"]

    return Instance(name, check)


def _matrix_floor(ms, n_vertices: int, k: int, rows_cap: int) -> Instance:
    """Some matrix of at most rows_cap rows reaches the non-adaptive floor; none beats it."""
    want = nonadaptive_min_accuracy(n_vertices, k)
    name = f"best_matrix floor N={n_vertices} k={k}"

    def check():
        sp = ms.spaces.path(n_vertices, k)
        found = any(
            ms.oracle.exact_best_matrix(sp, want, rows) is not None for rows in range(1, rows_cap + 1)
        )
        problems: list = []
        _expect(problems, found, f"{name}: no matrix reaches accuracy {want}")
        beaten = ms.oracle.exact_best_matrix(sp, want - 1, rows_cap) is not None
        _expect(problems, not beaten, f"{name}: a matrix beats accuracy {want}")
        return problems

    return Instance(name, check)


def _matrix_rows(ms, n_vertices: int) -> Instance:
    """No matrix with one row fewer than ceil(N/2) - 2 reaches accuracy 4."""
    rows = unit_speed_rows(n_vertices)
    name = f"best_matrix rows N={n_vertices}"

    def check():
        got = ms.oracle.exact_best_matrix(ms.spaces.path(n_vertices, 1), 4, rows - 1)
        return [] if got is None else [f"{name}: a {rows - 1}-row matrix reaches accuracy 4"]

    return Instance(name, check)


def oracle_exact(ms, rng: random.Random) -> list[Instance]:
    sp = ms.spaces
    out = []
    # criterion 2: ceil(N/2) - 2 tests on the unit-speed path at accuracy 4
    for n_vertices in range(5, 16):
        out.append(_min_tests(ms, sp.path(n_vertices, 1), 4, "intervals", unit_speed_rows(n_vertices), False))
    for n_vertices in range(5, 11):
        out.append(_min_tests(ms, sp.path(n_vertices, 1), 4, "all_subsets", unit_speed_rows(n_vertices), False))
    # cycle capacities, at and one above
    for k, s_values in ((1, (5, 6)), (2, (9, 10))):
        for s in s_values:
            for n in range(4):
                cap = cycle_capacity(n, s, k)
                if cap + 1 > 14:
                    continue
                out.append(_min_tests(ms, sp.cycle(cap, k), s, "intervals", n, False))
                out.append(_min_tests(ms, sp.cycle(cap + 1, k), s, "intervals", n, True))
    # restricted model: the path formula and the arc-halving cycle form
    for k in (1, 2):
        for s in (4 * k, 4 * k + 1):
            for n in range(1, 4):
                for mk, formula in ((sp.path, restricted_path_capacity), (sp.cycle, restricted_cycle_capacity)):
                    cap = formula(n, s, k)
                    if cap + 1 > 13 + 2 * k:
                        continue
                    out.append(_min_tests(ms, mk(cap, k, moves_after_last_test=False), s, "intervals", n, False))
                    out.append(_min_tests(ms, mk(cap + 1, k, moves_after_last_test=False), s, "intervals", n, True))
    # accuracy floors
    for k in (1, 2):
        for n_vertices in range(1, 10):
            out.append(_min_accuracy(ms, sp.path(n_vertices, k), "all_subsets", path_min_accuracy(n_vertices, k)))
            out.append(_min_accuracy(ms, sp.cycle(n_vertices, k), "all_subsets", cycle_min_accuracy(n_vertices, k)))
        for n_vertices in range(10, 14):
            out.append(_min_accuracy(ms, sp.path(n_vertices, k), "intervals", path_min_accuracy(n_vertices, k)))
    # optimal strategies rebuilt from the labelled graph
    for n_vertices in range(7, 15):
        out.append(_extract(ms, sp.path(n_vertices, 1), 4, unit_speed_rows(n_vertices)))
    for s in (5, 6):
        for n in range(1, 3):
            out.append(_extract(ms, sp.cycle(cycle_capacity(n, s, 1), 1), s, n))
    # non-adaptive floors and row counts by exhaustive matrix search
    for k in (1, 2):
        for n_vertices in range(3, 8 if k == 1 else 9):
            if n_vertices > nonadaptive_min_accuracy(n_vertices, k):
                out.append(_matrix_floor(ms, n_vertices, k, 4))
    for n_vertices in range(7, 11):
        out.append(_matrix_rows(ms, n_vertices))
    return out


# ---------------------------------------------------------------------------
# sweep-refute


def _greedy(ms, space, n: int, s: int, cap: int, test_class: str = "intervals") -> Instance:
    """At or below the n-test capacity some strategy holds the greedy adversary to s;
    above it (cycles only) the greedy adversary forces s+1."""
    above = space.num_vertices > cap
    name = f"greedy {space.topology.value} N={space.num_vertices} k={space.speed} s={s} n={n} {test_class}"

    def check():
        forced = ms.adversary.greedy_forced_size(space, n, test_class)
        ok = forced >= s + 1 if above else forced <= s
        return [] if ok else [f"{name}: forced {forced}, want {'>= ' + str(s + 1) if above else '<= ' + str(s)}"]

    return Instance(name, check)


def _margin(ms, space, n: int, s: int, test_class: str = "intervals") -> Instance:
    """Above the n-test path capacity the margin adversary forces s+1 on every strategy."""
    name = f"margin path N={space.num_vertices} k={space.speed} s={s} n={n} {test_class}"

    def check():
        forced = ms.adversary.margin_forced_size(space, n, s, test_class)
        return [] if forced >= s + 1 else [f"{name}: forced {forced}, want >= {s + 1}"]

    return Instance(name, check)


def sweep_refute(ms, rng: random.Random) -> list[Instance]:
    sp = ms.spaces
    out = []
    # cycles: every size from s+1 up to one above the n-test capacity, and
    # criterion 3's rungs at and one above the 3-test capacity
    for k, s, n_max in ((1, 5, 2), (1, 6, 2), (1, 7, 1), (2, 9, 2), (2, 10, 1)):
        for n in range(1, n_max + 1):
            cap = cycle_capacity(n, s, k)
            for n_vertices in range(s + 1, min(cap + 1, 13) + 1):
                out.append(_greedy(ms, sp.cycle(n_vertices, k), n, s, cap))
    cap = cycle_capacity(3, 5, 1)
    for n_vertices in (cap, cap + 1):
        out.append(_greedy(ms, sp.cycle(n_vertices, 1), 3, 5, cap))
    # paths: greedy at or below capacity, margin one and two above it
    for k, s, n_max in ((1, 4, 3), (1, 5, 2), (1, 6, 1), (2, 8, 2), (2, 9, 2)):
        for n in range(1, n_max + 1):
            cap = path_capacity(n, s, k)
            for n_vertices in range(s + 1, min(cap, 13) + 1):
                out.append(_greedy(ms, sp.path(n_vertices, k), n, s, cap))
            for n_vertices in (cap + 1, cap + 2):
                out.append(_margin(ms, sp.path(n_vertices, k), n, s))
    # arbitrary test sets: greedy at and below capacity, margin above it
    for n in (1, 2):
        for n_vertices in range(6, cycle_capacity(n, 5, 1) + 1):
            out.append(_greedy(ms, sp.cycle(n_vertices, 1), n, 5, cycle_capacity(n, 5, 1), "all_subsets"))
        for n_vertices in range(5, path_capacity(n, 4, 1) + 1):
            out.append(_greedy(ms, sp.path(n_vertices, 1), n, 4, path_capacity(n, 4, 1), "all_subsets"))
        out.append(_margin(ms, sp.path(path_capacity(n, 4, 1) + 1, 1), n, 4, "all_subsets"))
    return out


# ---------------------------------------------------------------------------
# construct-replay


def replay_leaves(ms, strategy, rng: random.Random | None = None, samples: int = 64) -> list:
    """Every leaf -- or, given rng, a seeded sample of root-to-leaf paths --
    equals the candidate chain its answers produce and fits the target."""
    space = strategy.space
    problems: list = []
    paths = strategy.leaves() if rng is None else (_random_leaf(strategy, rng) for _ in range(samples))
    for bits, leaf in paths:
        d = ms.spaces.full_set(space)
        tests, _ = strategy.replay(bits)
        for test, y in zip(tests, bits):
            d = ms.spaces.update(space, d, test, y)
        _expect(problems, leaf.answer == d, f"leaf {bits} announces {leaf.answer}, chain gives {d}")
        _expect(problems, len(d) <= strategy.accuracy_target, f"leaf {bits} has {len(d)} candidates")
    return problems


def _random_leaf(strategy, rng: random.Random):
    node, bits = strategy.root, []
    while not node.is_leaf:
        bits.append(rng.randrange(2))
        node = node.child(bits[-1])
    return tuple(bits), node


def _strategy(ms, key: str, build: Callable, accuracy: int, depth: Callable, seed: int,
              sample_leaves: bool = False) -> Instance:
    """Build, check the accuracy target and the depth, round-trip the text
    form, replay the leaves, run the greedy transcript and three seeded codec
    sessions against the tree.  Trees with thousands of leaves on long paths
    replay a seeded sample: every leaf would cost time quadratic in the path
    length."""

    def check():
        problems: list = []
        st = build()
        _expect(problems, st.accuracy_target == accuracy, f"{key}: accuracy target {st.accuracy_target}")
        _expect(problems, depth(st.depth()), f"{key}: {st.depth()} tests is off the closed form")
        text = st.serialize()
        again = ms.adaptive.AdaptiveStrategy.parse(text, st.space, st.accuracy_target).serialize()
        _expect(problems, again == text, f"{key}: serialize/parse round trip changed the tree")
        rng = random.Random(seed)
        problems += [f"{key}: {p}" for p in replay_leaves(ms, st, rng if sample_leaves else None)]
        problems += _greedy_transcript(ms, key, st)
        for _ in range(3):
            problems += _session(ms, key, st, rng.randrange(1 << 30))
        return problems

    return Instance(key, check)


def _greedy_transcript(ms, key: str, st) -> list:
    problems: list = []
    tr = ms.adversary.greedy_adversary(st.space, st)
    final = tr.final_candidates
    _expect(problems, len(final) <= st.accuracy_target, f"{key}: greedy transcript ends with {len(final)}")
    walk = ms.spaces.consistent_walk_exists(st.space, tr.tests(), tr.answers())
    _expect(problems, walk is not None, f"{key}: greedy transcript is unrealizable")
    return problems


def _session(ms, key: str, st, seed: int) -> list:
    problems: list = []
    tr = ms.codec.simulate_session(st.space, st, seed=seed)
    _expect(problems, tr.witness[-1] in tr.announced, f"{key}: walk seed {seed} escapes the decoded set")
    _expect(problems, len(tr.announced) <= st.accuracy_target, f"{key}: walk seed {seed} decodes too wide")
    decoded = ms.codec.decode(st.space, st, tr.answers())
    _expect(problems, decoded == tr.announced, f"{key}: decode disagrees with the session for seed {seed}")
    return problems


def _window(ms, n_vertices: int, k: int) -> Instance:
    """The window adversary holds the shifting strategy at exactly 3k+1 candidates."""
    key = f"window transcript N={n_vertices} k={k}"

    def check():
        space = ms.spaces.path(n_vertices, k)
        st = ms.adaptive.path_shifting_strategy(n_vertices, k)
        tr = ms.adversary.window_adversary(space, st)
        problems: list = []
        size = len(tr.final_candidates)
        want = path_min_accuracy(n_vertices, k)
        _expect(problems, size == want, f"{key}: final size {size}, want {want}")
        walk = ms.spaces.consistent_walk_exists(space, tr.tests(), tr.answers())
        _expect(problems, walk is not None, f"{key}: transcript is unrealizable")
        return problems

    return Instance(key, check)


def _margin_transcript(ms, n: int, s: int, k: int) -> Instance:
    """One vertex above capacity the margin adversary keeps s+1 tracked candidates
    alive through n rounds of the optimal path strategy."""
    n_vertices = path_capacity(n, s, k) + 1
    key = f"margin transcript N={n_vertices} k={k} s={s} n={n}"

    def check():
        space = ms.spaces.path(n_vertices, k)
        st = ms.adaptive.path_strategy(n_vertices, s, k)
        tr = ms.adversary.margin_adversary(space, st, n, s)
        problems: list = []
        tracked = tr.rounds[-1].tracked
        _expect(problems, len(tracked) >= s + 1, f"{key}: tracked set shrank to {len(tracked)}")
        _expect(problems, tracked.issubset(tr.final_candidates), f"{key}: tracked set escaped")
        walk = ms.spaces.consistent_walk_exists(space, tr.tests(), tr.answers())
        _expect(problems, walk is not None, f"{key}: transcript is unrealizable")
        return problems

    return Instance(key, check)


def _matrix(ms, n_vertices: int, k: int, rng: random.Random) -> Instance:
    """The dilated expanding-accuracy matrix reaches 4k with the optimal row count
    at unit speed; a seeded random 4-row matrix cannot beat 4k; above 6k
    vertices the counter-strategy forces at least 4k on both, with walks
    consistent with its answers.  The row count is fixed: evaluation explores
    up to 2^rows answer branches, so a seeded row count would make the
    workload's size depend on the seed."""
    key = f"matrix N={n_vertices} k={k}"
    random_bits = tuple(tuple(rng.randint(0, 1) for _ in range(n_vertices)) for _ in range(4))

    def check():
        na = ms.nonadaptive
        space = ms.spaces.path(n_vertices, k)
        problems: list = []
        m = na.expanding_accuracy_matrix(n_vertices) if k == 1 else na.general_k_matrix(n_vertices, k)
        if k == 1:
            _expect(problems, m.rows == unit_speed_rows(n_vertices), f"{key}: {m.rows} rows")
        _expect(problems, na.evaluate_matrix(space, m, 4 * k).success, f"{key}: fails at accuracy {4 * k}")
        random_m = na.TestMatrix(random_bits)
        beaten = na.evaluate_matrix(space, random_m, 4 * k - 1).success
        _expect(problems, not beaten, f"{key}: a random matrix reaches accuracy {4 * k - 1}")
        for matrix in (m, random_m) if n_vertices > 6 * k else ():
            cert = ms.adversary.matrix_counter(space, matrix)
            _expect(problems, cert.forced_accuracy >= 4 * k, f"{key}: counter forces {cert.forced_accuracy}")
            for walk in cert.walks:
                ok = ms.spaces.is_valid_walk(space, walk) and all(
                    (pos in test) == bool(y) for pos, test, y in zip(walk, matrix.tests(), cert.answers)
                )
                _expect(problems, ok, f"{key}: counter walk {walk} disagrees with its answers")
        return problems

    return Instance(key, check)


def construct_replay(ms, rng: random.Random) -> list[Instance]:
    ad = ms.adaptive
    out = []

    def tree(key, build, accuracy, depth, **kw):
        out.append(_strategy(ms, key, build, accuracy, depth, rng.randrange(1 << 30), **kw))

    # arc halving at the cycle capacity: exactly n tests; the path recursion
    # at the path capacity: at most n tests.  The extra 9-test trees make
    # the verdict-time tail fall among trees of one size, not on the gap
    # between two sizes.
    rows = [
        ("cycle_strategy", cycle_capacity, s, k, n)
        for s, k, n_max in ((5, 1, 10), (6, 1, 9), (9, 2, 10), (13, 2, 8))
        for n in range(0, n_max + 1, 2 if k == 2 else 1)
    ]
    rows += [
        ("path_strategy", path_capacity, s, k, n)
        for s, k, n_max in ((4, 1, 10), (5, 1, 10), (12, 1, 9), (9, 2, 9))
        for n in range(0, n_max + 1, 2 if s == 4 else 1)
    ]
    rows += [("cycle_strategy", cycle_capacity, s, 1, 9) for s in (7, 8)]
    rows += [("path_strategy", path_capacity, s, 1, 9) for s in (6, 7)]
    for builder, capacity, s, k, n in rows:
        cap = capacity(n, s, k)
        exact = builder == "cycle_strategy"
        # the builder is looked up at call time, so that a traced run sees its wrapper
        tree(f"{builder} N={cap} k={k} s={s}", lambda b=builder, cap=cap, s=s, k=k: getattr(ad, b)(cap, s, k), s,
             lambda d, n=n, exact=exact: d == n if exact else d <= n)
    # edge probes: the shifting strategy at accuracy 3k+1 (2001 and 10001 exceed the
    # recursion limit today) and the sliding window at 2*n*span + 4k vertices
    for n_vertices, k in ((10, 1), (33, 1), (129, 1), (257, 1), (2001, 1), (10001, 1), (41, 2), (257, 2)):
        tree(f"path_shifting_strategy N={n_vertices} k={k}",
             lambda n_vertices=n_vertices, k=k: ad.path_shifting_strategy(n_vertices, k),
             path_min_accuracy(n_vertices, k), lambda d, n_vertices=n_vertices: d < n_vertices,
             sample_leaves=n_vertices > 1001)
    for k, span, n in ((1, 1, 4), (2, 1, 3), (2, 2, 2), (2, 2, 16), (3, 3, 24), (3, 2, 40)):
        n_vertices = 2 * n * span + 4 * k
        tree(f"path_sliding_window_strategy N={n_vertices} k={k} span={span}",
             lambda n_vertices=n_vertices, k=k, span=span: ad.path_sliding_window_strategy(n_vertices, k, span),
             3 * k + span, lambda d, n=n: d <= n)
    for n_vertices, k in ((9, 1), (33, 1), (129, 1), (41, 2), (129, 2)):
        out.append(_window(ms, n_vertices, k))
    for n, s, k in ((1, 4, 1), (2, 4, 1), (3, 5, 1), (6, 5, 1), (8, 6, 1), (4, 9, 2), (7, 9, 2)):
        out.append(_margin_transcript(ms, n, s, k))
    for n_vertices in range(5, 25):
        out.append(_matrix(ms, n_vertices, 1, rng))
    for n_vertices, k in ((13, 2), (17, 2), (24, 2), (31, 2), (19, 3), (28, 3)):
        out.append(_matrix(ms, n_vertices, k, rng))
    return out


GRIDS = {
    "oracle-exact": oracle_exact,
    "sweep-refute": sweep_refute,
    "construct-replay": construct_replay,
}
