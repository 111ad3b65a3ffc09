"""Exception types shared across the library."""


class MeandimError(Exception):
    """Base class for library-specific failures."""


class ResourceGuardError(MeandimError):
    """A computation would exceed its configured resource guard.

    Raised instead of silently truncating; the message says which guard
    fired.
    """


class EmptyLanguageError(MeandimError):
    """The subshift admits no bi-infinite point."""


class InvertedBoundsError(MeandimError):
    """A lower bound came out above the matching upper bound."""


class NotTotallyOrderedError(MeandimError):
    """A rectangle family handed to the greedy cover is not totally ordered."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(
            f"rectangles at indices {i} and {j} are incomparable "
            f"(neither fits inside the other's width/height box)"
        )


class NonConvergenceError(MeandimError):
    """Blahut-Arimoto did not reach the requested gap within max_iter."""

    def __init__(self, message: str, gap: float):
        self.gap = gap
        super().__init__(message)


class ParseError(MeandimError):
    """A textual input file violates its grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
