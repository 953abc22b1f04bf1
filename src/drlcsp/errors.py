"""Exception types shared across the package."""

from __future__ import annotations


class AlgebraError(Exception):
    """A structure violated the laws it was claimed to satisfy."""


class NotALattice(AlgebraError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"pair {pair} has no greatest lower / least upper bound")


class NotBounded(AlgebraError):
    def __init__(self, message: str = "order has no global top or bottom"):
        super().__init__(message)


class NotDistributive(AlgebraError):
    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        super().__init__(f"lattice is not distributive at {triple}")


class ResiduationFails(AlgebraError):
    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        super().__init__(
            f"derived residuum violates the adjunction at (x, y, z) = {triple}; "
            "the input tables do not admit a residuum"
        )


class SizeOverflow(AlgebraError):
    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"carrier of size {size} exceeds the cap {cap}")


class AxiomViolation(AlgebraError):
    """Raised by loaders when a structure fails its exhaustive law check."""

    def __init__(self, report):
        self.report = report
        failed = ", ".join(c.axiom for c in report.failures())
        super().__init__(f"axiom check failed: {failed}")


class FormatError(Exception):
    """A file or text payload does not match the expected schema."""


class ParseError(FormatError):
    pass


class ValueOutOfRange(ParseError):
    pass


class ScopeError(ParseError):
    pass


class ShapeMismatch(ValueError):
    """Two problems disagree on variables, domains, or algebra."""


class TooLarge(ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


class NotEnoughScopes(ValueError):
    """The requested constraint count exceeds the available distinct scopes."""
