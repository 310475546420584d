"""Rank-one projector families on the two-qudit space.

For side length N the basis indices reflect through the mirror map
i -> N+1-i (1-based); for odd N the central index n+1 is its own mirror.
Every family built here lives on the N^2-dimensional product space and
consists of rank-one projectors onto two-component combinations

    (|i,j> + s |i~,j~>) / sqrt(2),

where i~, j~ are the mirrored indices and s is a sign or a phase, or
onto the single state |i,j> at the self-mirrored centre of odd N.  Every
member comes from one dyad builder; two kinds are provided:

* "unified" - sign combinations grouped by mirror orbit, real symmetric,
              for either parity (at even N this is the paper's 2n pair
              family, in the same order);
* "Q"       - phase combinations with an alternating imaginary factor,
              Hermitian with imaginary off-diagonal blocks, even N only.

Each full family is complete (members sum to the identity), mutually
orthogonal, idempotent, and unit-trace.  Indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal, NamedTuple

import numpy as np

from .errors import DimensionError

FamilyKind = Literal["unified", "Q"]


def mirror_index(i: int, dim: int) -> int:
    """Reflected index N+1-i (1-based); fixes the center of odd N."""
    if not 1 <= i <= dim:
        raise IndexError(f"index {i} out of range 1..{dim}")
    return dim + 1 - i


def _pair_positions(i: int, j: int, dim: int) -> tuple[int, int]:
    # 0-based positions of |i,j> and |i~,j~> in the product basis
    return (i - 1) * dim + (j - 1), (mirror_index(i, dim) - 1) * dim + (
        mirror_index(j, dim) - 1
    )


def _dyad(size: int, r: int, c: int, s: complex, dtype: type) -> np.ndarray:
    """(|r> + s|c>)(<r| + conj(s)<c|)/2 for a unit-modulus s, or |r><r|
    when r == c; entries are exactly 0, 1/2, s/2, conj(s)/2 and 1."""
    m = np.zeros((size, size), dtype=dtype)
    if r == c:
        m[r, r] = 1.0
        return m
    m[r, r] = 0.5
    m[c, c] = 0.5
    m[r, c] = 0.5 * s.conjugate()
    m[c, r] = 0.5 * s
    return m


class ProjectorKey(NamedTuple):
    i: int
    j: int
    epsilon: int


@dataclass(frozen=True, eq=False)
class ProjectorFamily:
    """A complete orthogonal family of rank-one projectors.

    ``matrices`` maps each key to a read-only array of side dim^2.  The
    member count is always dim^2: the family resolves the identity into
    one-dimensional pieces.
    """

    dim: int
    kind: FamilyKind
    keys: tuple[ProjectorKey, ...]
    matrices: dict[ProjectorKey, np.ndarray]

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[tuple[ProjectorKey, np.ndarray]]:
        for key in self.keys:
            yield key, self.matrices[key]

    def completeness_sum(self) -> np.ndarray:
        """Sum of all members; equals the identity up to rounding."""
        total = np.zeros_like(next(iter(self.matrices.values())))
        for key in self.keys:
            total = total + self.matrices[key]
        return total


def orbit_representatives(dim: int) -> tuple[tuple[int, int], ...]:
    """Canonical (i, j) per mirror orbit: the lexicographically smaller of
    (i, j) and (i~, j~), sorted.  Even dim yields dim^2/2 orbits of size
    two; odd dim adds the self-mirrored center."""
    reps = set()
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            reps.add(min((i, j), (mirror_index(i, dim), mirror_index(j, dim))))
    return tuple(sorted(reps))


def _members(dim: int, kind: FamilyKind) -> Iterator[tuple[ProjectorKey, complex]]:
    """Keys of the family in order, each with the coefficient s of the
    mirrored state in its image vector |i,j> + s |i~,j~>."""
    if kind == "unified":
        for i, j in orbit_representatives(dim):
            for epsilon in (+1, -1):
                centre = (i, j) == (mirror_index(i, dim), mirror_index(j, dim))
                if centre and epsilon == -1:
                    continue  # the opposite-sign combination is the zero matrix
                yield ProjectorKey(i, j, epsilon), epsilon
    elif kind == "Q":
        if dim % 2:
            raise DimensionError(f"kind {kind!r} requires even side length, got {dim}")
        for i in range(1, dim // 2 + 1):
            for j in range(1, dim + 1):
                for epsilon in (+1, -1):
                    s = -epsilon * 1j * (-1.0) ** mirror_index(j, dim)
                    yield ProjectorKey(i, j, epsilon), s
    else:
        raise ValueError(f"unknown family kind {kind!r}")


@lru_cache(maxsize=None)
def projector_family(dim: int, kind: FamilyKind) -> ProjectorFamily:
    """Construct the full projector family of the requested kind.

    "unified" works for either parity and is indexed by the canonical
    mirror-orbit representatives; each orbit carries both signs except
    the self-mirrored center (odd dim), which appears once with
    epsilon = +1.  "Q" requires even dim and is indexed by i in 1..n,
    j in 1..2n, epsilon in {+1, -1}; its member (i, j, eps) projects
    onto (|i,j> - eps*i*(-1)^j~ |i~,j~>)/sqrt(2), with j~ the mirrored
    column index.

    Families are cached and their arrays marked read-only; treat them as
    immutable shared values.
    """
    if dim < 2:
        raise DimensionError("side length must be >= 2")
    dtype = complex if kind == "Q" else float
    keys: list[ProjectorKey] = []
    matrices: dict[ProjectorKey, np.ndarray] = {}
    for key, s in _members(dim, kind):
        r, c = _pair_positions(key.i, key.j, dim)
        member = _dyad(dim * dim, r, c, s, dtype)
        member.setflags(write=False)
        keys.append(key)
        matrices[key] = member
    return ProjectorFamily(dim=dim, kind=kind, keys=tuple(keys), matrices=matrices)
