"""Rank-one projector families on the two-qudit space.

For side length N the basis indices reflect through the mirror map
i -> N+1-i (1-based); for odd N the central index n+1 is its own mirror.
Every family built here lives on the N^2-dimensional product space and
consists of rank-one projectors onto two-component combinations

    (|i,j> + s |i~,j~>) / sqrt(2),

where i~, j~ are the mirrored indices and s is a sign or a phase, or
onto the single state |i,j> at the self-mirrored centre of odd N.  Such
a projector is fixed by its image vector, so a family is stored as the
matrix V of unnormalized image vectors (one column per member) and the
weights w with member k = w[k] v_k v_k^dagger; two kinds are provided:

* "unified" - sign combinations grouped by mirror orbit, real symmetric,
              for either parity (at even N this is the paper's 2n pair
              family, in the same order);
* "Q"       - phase combinations with an alternating imaginary factor,
              Hermitian with imaginary off-diagonal blocks, even N only.

Each full family is complete (members sum to the identity), mutually
orthogonal, idempotent, and unit-trace; with W = diag(w) these read
V W V^dagger = I and W V^dagger V W = W.  Indices are 1-based throughout.
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


class ProjectorKey(NamedTuple):
    i: int
    j: int
    epsilon: int


@dataclass(frozen=True, eq=False)
class ProjectorFamily:
    """A complete orthogonal family of rank-one projectors.

    Column k of the read-only ``vectors`` (dim^2 x dim^2) is the
    unnormalized image vector of member ``keys[k]``: e_r + s e_c, or e_r
    at the odd-N centre, so its entries are exactly 0, 1 and s.
    ``weights[k]`` is its normalisation 1/|v_k|^2 (0.5, or 1.0 at the
    centre), so member k is w_k v_k v_k^dagger; no member is stored.  The
    member count is always dim^2: the family resolves the identity into
    one-dimensional pieces.
    """

    dim: int
    kind: FamilyKind
    keys: tuple[ProjectorKey, ...]
    vectors: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


def _members(
    dim: int, kind: FamilyKind
) -> Iterator[tuple[ProjectorKey, int, complex]]:
    """Keys of the family in order, each with the 0-based position r of
    |i,j> and the coefficient s in its image vector |i,j> + s |i~,j~>
    (|i~,j~> sits at position dim^2-1-r).  Both kinds run over the first
    half of the product basis, where r is at most its mirror's position."""
    if kind not in ("unified", "Q"):
        raise ValueError(f"unknown family kind {kind!r}")
    if kind == "Q" and dim % 2:
        raise DimensionError(f"kind {kind!r} requires even side length, got {dim}")
    size = dim * dim
    for r in range((size + 1) // 2):
        i, j = divmod(r, dim)
        for epsilon in (+1, -1):
            if kind == "unified":
                if r == size - 1 - r and epsilon == -1:
                    continue  # the opposite-sign combination is the zero matrix
                s = epsilon
            else:
                # (-1)^j~ with j~ = dim - j the 1-based mirrored column
                s = -epsilon * 1j * (-1.0) ** (dim - j)
            yield ProjectorKey(i + 1, j + 1, epsilon), r, s


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
    size = dim * dim
    vectors = np.zeros((size, size), dtype=complex if kind == "Q" else float)
    weights = np.ones(size)
    keys: list[ProjectorKey] = []
    for k, (key, r, s) in enumerate(_members(dim, kind)):
        c = size - 1 - r
        vectors[r, k] = 1.0
        if r != c:
            vectors[c, k] = s
            weights[k] = 0.5
        keys.append(key)
    vectors.setflags(write=False)
    weights.setflags(write=False)
    return ProjectorFamily(
        dim=dim, kind=kind, keys=tuple(keys), vectors=vectors, weights=weights
    )
