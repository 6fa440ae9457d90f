"""Shared exception types."""


class RegimeError(ValueError):
    """A closed-form formula was evaluated outside its regime of validity."""


class BudgetExceededError(RuntimeError):
    """A configured resource cap (tree nodes, oracle states, ...) was hit."""

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value  # the engine's record at the cap, where it keeps one


class WindowInvariantError(ValueError):
    """The window adversary met a test it cannot answer: one that meets its
    block in more than one run, so that neither answer may leave a wide
    enough block.  The five-case rule answers every test that meets the
    block in at most one run, interval tests included.
    """
