"""Rank-one projector families on the two-qudit space.

For side length N the basis indices reflect through the mirror map
i -> N+1-i (1-based); for odd N the central index n+1 is its own mirror.
Every family built here lives on the N^2-dimensional product space and
consists of rank-one projectors onto two-component combinations

    (|i,j> + s |i~,j~>) / sqrt(2),

where i~, j~ are the mirrored indices and s is a sign or a phase, or
onto the single state |i,j> at the self-mirrored centre of odd N.  Such
a projector is fixed by its image vector, and every member acts on one
mirror pair (e_r, e_r~) of product-basis positions, r~ = N^2-1-r, so a
family is stored as each member's two image-vector entries on its pair
and the weights w with member k = w[k] v_k v_k^dagger; two kinds are
provided:

* "unified" - sign combinations grouped by mirror orbit, real symmetric,
              for either parity (at even N this is the paper's 2n pair
              family, in the same order);
* "Q"       - phase combinations with an alternating imaginary factor,
              Hermitian with imaginary off-diagonal blocks, even N only.

Each full family is complete (members sum to the identity), mutually
orthogonal, idempotent, and unit-trace.  Members on different pairs have
disjoint supports, so each property is read off the two members of one
pair: the family is a direct sum of 2x2 pieces.  Indices are 1-based
throughout.
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

    Row k of the read-only ``vectors`` (dim^2 x 2) holds the entries of
    member ``keys[k]``'s unnormalized image vector on (e_r, e_r~), with
    r = k // 2 and r~ = dim^2-1-r: (1, s), or (1, 0) at the odd-N centre
    (the last member, where r = r~).  ``weights[k]`` is its normalisation
    1/|v_k|^2 (0.5, or 1.0 at the centre), so member k is
    w_k v_k v_k^dagger on that pair; no member is stored.  The member
    count is always dim^2: the family resolves the identity into
    one-dimensional pieces, two per mirror pair.
    """

    dim: int
    kind: FamilyKind
    keys: tuple[ProjectorKey, ...]
    vectors: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def member_blocks(self) -> np.ndarray:
        """Each member w_k v_k v_k^dagger as its 2x2 block on (e_r, e_r~),
        laid out as ``braid.orbit_blocks``: a (dim^2, 2, 2) stack."""
        v = self.vectors
        return self.weights[:, None, None] * v[:, :, None] * v.conj()[:, None, :]


def _members(dim: int, kind: FamilyKind) -> Iterator[tuple[ProjectorKey, complex]]:
    """Keys of the family in order, each with the coefficient s in its
    image vector |i,j> + s |i~,j~> (0 at the odd-N centre, whose image is
    |i,j> alone).  Both kinds run over the first half of the product
    basis, position r = (i-1)*dim + j-1 at most its mirror's dim^2-1-r,
    with both signs at each r."""
    if kind not in ("unified", "Q"):
        raise ValueError(f"unknown family kind {kind!r}")
    if kind == "Q" and dim % 2:
        raise DimensionError(f"kind {kind!r} requires even side length, got {dim}")
    size = dim * dim
    for r in range((size + 1) // 2):
        i, j = divmod(r, dim)
        for epsilon in (+1, -1):
            if r == size - 1 - r:
                if epsilon == -1:
                    continue  # the opposite-sign combination is the zero matrix
                s = 0.0
            elif kind == "unified":
                s = epsilon
            else:
                # (-1)^j~ with j~ = dim - j the 1-based mirrored column
                s = -epsilon * 1j * (-1.0) ** (dim - j)
            yield ProjectorKey(i + 1, j + 1, epsilon), s


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
    keys, coefficients = zip(*_members(dim, kind))
    vectors = np.ones((len(keys), 2), dtype=complex if kind == "Q" else float)
    vectors[:, 1] = coefficients
    weights = 1.0 / (np.abs(vectors) ** 2).sum(axis=1)
    vectors.setflags(write=False)
    weights.setflags(write=False)
    return ProjectorFamily(
        dim=dim, kind=kind, keys=keys, vectors=vectors, weights=weights
    )
