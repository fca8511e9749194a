"""Exception types shared across the package."""


class MfembedError(Exception):
    """Base class for all library errors."""


class InvariantViolation(MfembedError):
    """A structural invariant that must hold by construction was violated."""


class DisconnectedGraph(MfembedError):
    """Operation requires a connected graph."""


class NoEdges(MfembedError):
    """Operation requires at least one edge."""


class BadSize(MfembedError):
    """Generator size parameters, or a graph file's vertex count, out of range."""


class ParseError(MfembedError):
    """Malformed graph file. Carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PreconditionViolation(MfembedError):
    """Caller violated a documented precondition."""


class LevelOverflow(PreconditionViolation):
    """A diameter level above 1023, named with the eccentricity that needs
    it: 2.0**level overflows a float."""

    def __init__(self, eccentricity: float, level: int):
        super().__init__(
            f"eccentricity {eccentricity} needs level {level}, and 2**{level} overflows a float"
        )
        self.eccentricity = eccentricity
        self.level = level


class BadEpsilon(MfembedError):
    """Accuracy parameter outside (0, 1) or derived parameters degenerate."""


class PairOutOfRange(MfembedError):
    """Evaluation pair is out of range or degenerate."""


class BadEmbedding(MfembedError):
    """Embedding data is not one object with every field in range."""


class CyclicParentArray(MfembedError):
    """Parent array does not describe a forest."""


class EmptyPacking(MfembedError):
    """No usable balanced cut could be collected."""
