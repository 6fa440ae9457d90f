"""Worst-case search for a target moving up to k steps per round.

The library covers both sides of the game on path and cycle graphs:
constructive strategies (adaptive trees and non-adaptive test matrices),
answer-choosing adversaries that certify lower bounds, an exact
brute-force oracle for desk-scale verification, and the equivalent
one-bit-per-tick position codec.
"""

from .adaptive import (
    AdaptiveStrategy,
    MinTests,
    StrategyNode,
    cycle_capacity,
    cycle_min_accuracy,
    cycle_strategy,
    min_tests,
    path_capacity,
    path_min_accuracy,
    path_shifting_strategy,
    path_sliding_window_strategy,
    path_strategy,
    restricted_cycle_capacity,
)
from .adversary import (
    CounterCertificate,
    Transcript,
    TranscriptRound,
    greedy_adversary,
    greedy_forced_size,
    margin_adversary,
    margin_forced_size,
    matrix_counter,
    window_adversary,
)
from .codec import CodecSession, decode, random_walk, simulate_session
from .errors import BudgetExceededError, RegimeError, WindowInvariantError
from .nonadaptive import (
    TestMatrix,
    evaluate_matrix,
    expanding_accuracy_matrix,
    general_k_matrix,
    nonadaptive_min_accuracy,
)
from .oracle import GameValue, exact_best_matrix, exact_min_accuracy, exact_min_tests, extract_strategy
from .spaces import (
    PositionSet,
    SearchSpace,
    Topology,
    consistent_walk_exists,
    cycle,
    final_expand,
    full_set,
    is_valid_walk,
    neighborhood,
    path,
    split,
    update,
)

__version__ = "0.1.0"
