import gc
import importlib
import sys
import weakref

PACKAGE_MODULES = ("movingsearch", "movingsearch.cli", "movingsearch.verify")


def _forget_package():
    for name in [n for n in sys.modules if n == "movingsearch" or n.startswith("movingsearch.")]:
        del sys.modules[name]


def _fresh_copy():
    _forget_package()
    return [importlib.import_module(name) for name in PACKAGE_MODULES]


def test_reimport_releases_the_previous_copy():
    """Re-importing the package must not leave the old copy pinned in a
    process-wide cache (a runtime typing alias once did)."""
    saved = {n: m for n, m in sys.modules.items() if n == "movingsearch" or n.startswith("movingsearch.")}
    try:
        ms = _fresh_copy()[0]
        space = ms.path(7, 1)
        ms.greedy_forced_size(space, 2)
        st = ms.path_shifting_strategy(7, 1)
        ms.greedy_adversary(space, st)
        # the round memo of update and the parsed nodes hold the old
        # copy's values; they must go with it
        ms.update(space, ms.full_set(space), ms.PositionSet.parse("1-3"), 1)
        ms.AdaptiveStrategy.parse(st.serialize(), space, st.accuracy_target)
        old = weakref.ref(ms.PositionSet)
        del ms, space, st
        _fresh_copy()
        gc.collect()
        assert old() is None
    finally:
        _forget_package()
        sys.modules.update(saved)
