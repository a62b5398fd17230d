"""Checkable Unequal certificates from a twisted virtual Burau representation.

Every letter of a crossing word maps to an n x n matrix over GF(p) that
differs from the identity only on rows and columns i, i+1, where it is
a 2 x 2 block:

    s<i>  [[1-t, t], [1, 0]]              the unreduced Burau block
    v<i>  [[0, q], [1/q, 0]]              a twisted transposition
    t<i>  (alpha*I + beta*s<i>) / (alpha+beta)

and inverse letters map to the inverse blocks.  Words act left to
right, so the image of a word is the product of its letters' matrices
in reading order; each letter is one column operation on columns i and
i+1 of the running product.  The twist q (q not in {0, 1, -1}) keeps
the image from satisfying the forbidden relation v1 s2 s1 = s2 s1 v2
that plain permutation matrices do.  Every relation involving t<i> is
one that s<i> satisfies too (twist, singular braid, virtual
conjugation, distant commuting), so any invertible polynomial in s<i>
is a valid image; dividing by alpha+beta keeps it the identity off its
block.

The map is a homomorphism of the group only if every defining relation
holds for the chosen numbers, so relations_hold(n, params) replays all
of standard_relation_instances(n) through it and raises CertificateError
on the first one that fails.  It runs once per strand count and
parameter set, on first use.  Two words whose images differ are then
different group elements, and an UnequalCertificate carrying the
parameters and both images says so checkably: validate_unequal trusts
only the numbers in the certificate, re-runs the relation check for
them and recomputes both images.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import CertificateError
from .relations import standard_relation_instances
from .words import BraidWord

__all__ = [
    "BurauParams",
    "PARAMS",
    "UnequalCertificate",
    "image",
    "relations_hold",
    "validate_unequal",
]

Matrix = tuple[tuple[int, ...], ...]


class BurauParams(NamedTuple):
    """The field GF(p) and the four numbers that fix the images.  (The
    records here are named tuples because they are cheaper than
    dataclasses to create when the package is imported.)"""

    p: int
    t: int
    q: int
    alpha: int
    beta: int


# Fixed constants: a prime just above 10^6 and four arbitrary residues
# (digits of pi, e, the golden ratio and sqrt 2) that meet the
# conditions above.
PARAMS = BurauParams(p=1_000_003, t=314_159, q=271_828,
                     alpha=161_803, beta=141_421)


def _reciprocal(x: int, p: int, what: str) -> int:
    try:
        return pow(x, -1, p)
    except ValueError:
        raise CertificateError(f"{what} is not invertible mod {p}") from None


def _inverse_block(block: tuple[int, int, int, int], p: int
                   ) -> tuple[int, int, int, int]:
    a, b, c, d = block
    k = _reciprocal(a * d - b * c, p, f"generator block {block}")
    return (d * k % p, -b * k % p, -c * k % p, a * k % p)


@functools.lru_cache(maxsize=None)
def _blocks(params: BurauParams) -> tuple[tuple[int, int, int, int], ...]:
    """The 2 x 2 block (a, b, c, d) = [[a, b], [c, d]] of each letter
    kind, indexed by the letter code's offset within its block of 8
    (s, S, t, T, v)."""
    p, t, q, alpha, beta = params
    if not all(type(x) is int for x in params) or p < 2:
        raise CertificateError(f"bad parameters {params}")
    k = _reciprocal(alpha + beta, p, "alpha + beta")
    sigma = ((1 - t) % p, t % p, 1, 0)
    tau = ((alpha + beta * (1 - t)) * k % p, beta * t * k % p,
           beta * k % p, alpha * k % p)
    virtual = (0, q % p, _reciprocal(q, p, "q"), 0)
    return (sigma, _inverse_block(sigma, p), tau, _inverse_block(tau, p),
            virtual)


def _product(codes: bytes, n: int, params: BurauParams) -> list[int]:
    """The image of a word as a flat row-major list of n * n entries."""
    p = params.p
    blocks = _blocks(params)
    m = [0] * (n * n)
    m[::n + 1] = [1] * n
    rows = range(0, n * n, n)
    for code in codes:
        i = code >> 3
        a, b, c, d = blocks[code & 7]
        for k in rows:
            k += i
            x, y = m[k], m[k + 1]
            m[k] = (a * x + c * y) % p
            m[k + 1] = (b * x + d * y) % p
    return m


def image(word: BraidWord, params: BurauParams = PARAMS) -> Matrix:
    """The matrix of a word, as a tuple of rows."""
    n = word.strands
    m = _product(word.codes, n, params)
    return tuple(tuple(m[k:k + n]) for k in range(0, n * n, n))


@functools.lru_cache(maxsize=None)
def relations_hold(n: int, params: BurauParams) -> bool:
    """Check that every defining relation on n strands maps to equal
    matrices; raise CertificateError naming the first one that does not."""
    for rel in standard_relation_instances(n):
        if (_product(rel.lhs.codes, n, params)
                != _product(rel.rhs.codes, n, params)):
            raise CertificateError(
                f"relation {rel.name!r} fails in the representation "
                f"with {params}")
    return True


class UnequalCertificate(NamedTuple):
    """Two words are different group elements: their images under the
    representation with these parameters differ."""

    params: BurauParams
    left: Matrix
    right: Matrix

    @property
    def strands(self) -> int:
        return len(self.left)

    def to_json(self) -> dict:
        return {
            "representation": "twisted virtual Burau",
            **self.params._asdict(),
            "left": [list(row) for row in self.left],
            "right": [list(row) for row in self.right],
        }


def validate_unequal(cert: UnequalCertificate, u: BraidWord,
                     v: BraidWord) -> None:
    """Check that cert proves u and v unequal; raise CertificateError if
    it does not.  Uses only the numbers in cert and the relation table:
    the relations must hold for cert's parameters, the images of u and v
    must be the ones recorded, and the two must differ."""
    n = u.strands
    if v.strands != n or cert.strands != n:
        raise CertificateError(
            f"certificate on {cert.strands} strands, words on {n} and "
            f"{v.strands}")
    relations_hold(n, cert.params)
    if image(u, cert.params) != cert.left:
        raise CertificateError("left image does not match the word")
    if image(v, cert.params) != cert.right:
        raise CertificateError("right image does not match the word")
    if cert.left == cert.right:
        raise CertificateError("the two images are equal")
