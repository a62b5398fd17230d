"""Exception types shared across the package.

Everything user-facing derives from DomainError so the CLI can map the
whole family to one exit code (1); ResourceBoundError is separate because
it signals "gave up within budget", not "the input was wrong" (exit 2);
CertificateError is a prover bug, which the CLI reports as an internal
error (exit 4).
"""

__all__ = [
    "BraidforgeError",
    "DomainError",
    "BraidSyntaxError",
    "IndexRangeError",
    "NotPureError",
    "ResourceBoundError",
    "CertificateError",
]


class BraidforgeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BraidforgeError):
    """The input is outside the operation's domain."""


class BraidSyntaxError(DomainError):
    """A word, permutation, or normal form failed to parse."""


class IndexRangeError(DomainError):
    """A generator or strand index is out of range for the strand count."""


class NotPureError(DomainError):
    """A pure-subgroup operation was applied to a word with nontrivial
    permutation image.

    Carries the offending permutation so callers can report it without
    recomputing the image.
    """

    def __init__(self, message: str, permutation=None) -> None:
        super().__init__(message)
        self.permutation = permutation


class ResourceBoundError(BraidforgeError):
    """A search or rewriting loop exceeded its node or step budget."""


class CertificateError(BraidforgeError):
    """An internally produced certificate (a rewrite chain, or an
    Unequal certificate from a representation) failed validation.

    This always indicates a bug in a prover, never bad user input.  It
    is raised eagerly, by certificate construction and by the equivalence
    oracle alike, rather than hidden behind an Unknown verdict, so tests
    catch the prover.
    """
