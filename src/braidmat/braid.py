"""Braid-matrix families, their generators, and the reference
single-parameter family.

A family is a grid of exponents m(i, j, s) (s = +1 or -1) constant on
mirror orbits: m(i,j,s) = m(i~,j,s) = m(i,j~,s) = m(i~,j~,s), with the
self-mirrored central class pinned to zero for odd side length.  The
braid matrix at spectral parameter theta carries coefficient exp(m*theta)
("real" mode, nonunitary) or exp(i*m*theta) ("unitary" mode) on each
projector orbit.  Free parameters are counted by canonical class:
N^2/2 for even N and (N+3)(N-1)/2 for odd N.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Union

import numpy as np

from .errors import (
    AccuracyError,
    ConfigError,
    ConstructionError,
    DimensionError,
    DomainError,
    ModeError,
    SizeLimitError,
)
from .projectors import ProjectorFamily, projector_family

Mode = str  # "real" | "unitary"
ParamKey = tuple[int, int, int]  # (i, j, epsilon)
ParamValue = Union[int, float, str, Fraction]

MODES = ("real", "unitary")

# exp(m*theta) must stay inside double range for |m| up to ~10
MAX_REAL_THETA = 50.0
# exp(i*m*theta) needs the fractional bits of the phase m*theta; a double
# past 2**52 has none left, so its phase modulo 2*pi is meaningless
MAX_PHASE = 2.0**52

# Largest side length N accepted anywhere.  A dense N^2 x N^2 complex128
# matrix at N = 64 takes 268 MB, the same bound as linalg.MAX_KRON_DIM;
# only ``build`` allocates such a matrix.  ``verify`` and ``entangle`` read
# grids and 2x2 orbit blocks (at N = 64 verify --suite all --samples 2
# peaks at about 120 MB RSS, and an entangle scan allocates about 13 MB).
MAX_SIDE = 64

_EPSILONS = {"+": +1, "-": -1, +1: +1, -1: -1}


def canonical_keys(dim: int) -> tuple[ParamKey, ...]:
    """Free-parameter classes: i, j up to ceil(dim/2), both signs, minus
    the pinned central class of odd dim."""
    if dim < 2:
        raise DimensionError("side length must be >= 2")
    if dim > MAX_SIDE:
        raise SizeLimitError(f"side length {dim} exceeds the limit {MAX_SIDE}")
    half = (dim + 1) // 2
    center = half if dim % 2 else None
    keys = []
    for i in range(1, half + 1):
        for j in range(1, half + 1):
            if center is not None and i == center and j == center:
                continue
            for epsilon in (+1, -1):
                keys.append((i, j, epsilon))
    return tuple(keys)


def _parse_value(raw: ParamValue) -> tuple[float, Fraction | None]:
    """Return (float value, exact rational or None).

    Ints, Fractions, and "p/q" strings are exact; floats are taken at face
    value and never silently rationalized (commensurability analysis then
    reports "unknown").  NaN, infinities, and values beyond the float
    range raise ConfigError.
    """
    if isinstance(raw, bool):
        raise ConfigError(f"parameter value {raw!r} is not a number")
    if isinstance(raw, float):
        exact = None
    elif isinstance(raw, (int, Fraction)):
        exact = Fraction(raw)
    elif isinstance(raw, str):
        try:
            exact = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse rational value {raw!r}") from exc
    else:
        raise ConfigError(f"unsupported parameter value {raw!r}")
    try:
        # a float subclass (numpy.float64) is stored as a plain float, so
        # digest() hashes the same repr under every numpy version
        value = float(raw if exact is None else exact)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"parameter value {raw!r} is not a finite number")
    return value, exact


@dataclass(frozen=True, eq=False)
class BraidFamily:
    """One braid family: its exponent grid, evaluated as the braid matrix
    at any spectral parameter.

    ``values`` holds the canonical free values; ``exponents`` is the full
    (2, N, N) grid expanded by mirror symmetry (sign index 0 is +, 1 is -).
    ``exact_values`` holds the given values as Fractions when every input
    value was exact (int, Fraction, or "p/q" string) and there are no
    overrides, and is None otherwise.  ``overrides`` records deliberate
    symmetry violations injected for negative-control experiments; any
    override voids the mirror-symmetry guarantee.  Build one with
    ``make_parameters`` or ``config.load_config``.
    """

    dim: int
    mode: Mode
    values: dict[ParamKey, float]
    exponents: np.ndarray = field(repr=False)
    exact_values: dict[ParamKey, Fraction] | None = field(repr=False)
    overrides: tuple[tuple[int, int, int, float], ...] = ()

    @classmethod
    def create(cls, family: "BraidFamily") -> "BraidFamily":
        """Return ``family`` itself.  The benchmark harness still calls
        this (``benchmarks/workloads.py``, ``benchmarks/setup_probe.py``)
        and its tracer wraps it by name, so it stays while they do."""
        return family

    @cached_property
    def max_rate(self) -> float:
        """max |m| over the whole exponent grid, overrides included."""
        return float(np.abs(self.exponents).max())

    def value(self, i: int, j: int, epsilon: int | str) -> float:
        """Exponent at any (i, j, epsilon), 1-based; the key is checked as
        in ``make_parameters`` (epsilon +1/-1 or "+"/"-")."""
        i, j, epsilon = _normalize_key((i, j, epsilon))
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexError(f"indices ({i},{j}) out of range 1..{self.dim}")
        return float(self.exponents[(1 - epsilon) // 2, i - 1, j - 1])

    def digest(self) -> str:
        """Stable short fingerprint of (dim, mode, values, overrides)."""
        payload = repr(
            (
                self.dim,
                self.mode,
                sorted(self.values.items()),
                self.overrides,
            )
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    @property
    def basis(self) -> ProjectorFamily:
        """The "unified" projector basis, built on first use and cached per
        side length; ``matrix`` does not need it (O(N^2) floats)."""
        return projector_family(self.dim, "unified")

    def grids(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and antidiagonal coefficient grids (dim x dim) at theta.

        diag(i,j) = (e(m+) + e(m-))/2 and anti(i,j) = (e(m+) - e(m-))/2
        with e(m) = exp(m*theta) or exp(i*m*theta) depending on mode.
        """
        mp, mm = self.exponents
        if self.mode == "real":
            if abs(theta) > MAX_REAL_THETA:
                raise AccuracyError(
                    f"|theta| = {abs(theta):.3g} exceeds {MAX_REAL_THETA} "
                    "in real mode (overflow guard)"
                )
        else:
            phase = self.max_rate * abs(theta)
            if phase > MAX_PHASE:
                raise AccuracyError(
                    f"max|m|*|theta| = {phase:.3g} exceeds 2**52 in unitary "
                    "mode: the phase has no fractional bits left (precision guard)"
                )
            mp, mm = 1j * mp, 1j * mm
        # overflow is reported by the finiteness check below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            ep, em = np.exp(mp * theta), np.exp(mm * theta)
            diag, anti = 0.5 * (ep + em), 0.5 * (ep - em)
        if not (np.isfinite(diag).all() and np.isfinite(anti).all()):
            raise AccuracyError("braid coefficients overflowed")
        return diag, anti

    def matrix(self, theta: float) -> np.ndarray:
        """Braid matrix at theta (dim^2 x dim^2): entry (i,j) of the grids
        sits at ((i,j),(i,j)) (diagonal) and ((i,j),(i~,j~)) (antidiagonal)
        of the product basis, and every other entry is zero.  Real mode
        returns float64, unitary complex128; theta = 0 gives the identity.
        """
        return _pattern_matrix(*self.grids(theta))

    def matrix_from_basis(self, theta: float) -> np.ndarray:
        """Same matrix, rebuilt as the sum of c_k w_k v_k v_k^T over the
        basis members, each scattered onto its mirror pair (r, r~), with
        c_k = exp(m*theta) or exp(i*m*theta) read at the member's key.

        Independent reference path used to cross-validate ``matrix``: it
        calls neither ``grids`` nor ``_pattern_matrix``.
        """
        basis = self.basis
        i, j, epsilon = np.array(basis.keys).T
        m = self.exponents[(1 - epsilon) // 2, i - 1, j - 1]
        rates = m if self.mode == "real" else 1j * m
        terms = np.exp(rates * theta)[:, None, None] * basis.member_blocks()
        size = len(basis)
        r = np.arange(size) // 2
        pair = np.stack([r, size - 1 - r], axis=1)
        out = np.zeros((size, size), dtype=terms.dtype)
        np.add.at(out, (pair[:, :, None], pair[:, None, :]), terms)
        return out

    def generator(self) -> tuple[np.ndarray, np.ndarray]:
        """Grids, laid out as in ``grids``, of the infinitesimal generator
        X with matrix(theta) = exp(theta * X): (m+ + m-)/2 and (m+ - m-)/2,
        times the imaginary unit in unitary mode, making X anti-Hermitian
        (complex128); real mode returns real float64 grids.
        """
        mp, mm = self.exponents
        unit = 1j if self.mode == "unitary" else 1.0
        return unit * (0.5 * (mp + mm)), unit * (0.5 * (mp - mm))


def make_parameters(
    dim: int,
    mode: Mode,
    values: Mapping[tuple, ParamValue],
    overrides: tuple[tuple[int, int, int, float], ...] = (),
) -> BraidFamily:
    """Build a braid family from canonical free values.

    Keys are (i, j, epsilon) with i, j at most ceil(dim/2) and epsilon
    given as +1/-1 or "+"/"-" (i and j ints, not bools; anything else
    raises ConfigError, as do two keys that name one class, such as
    (1, 1, "+") and (1, 1, 1)); missing classes default to zero.  For odd
    dim the central class must be absent or zero.  The full exponent grid
    is populated through mirror symmetry, then any ``overrides`` are
    patched in verbatim; each override is an (i, j, epsilon, value)
    tuple.  Every value, overrides included, must be a finite number or a
    "p/q" string.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    allowed = set(canonical_keys(dim))
    half = (dim + 1) // 2
    center = (half, half) if dim % 2 else None
    parsed: dict[ParamKey, float] = {key: 0.0 for key in allowed}
    # the given exact values; None once any value is a float
    exact: dict[ParamKey, Fraction] | None = {}
    given: set[ParamKey] = set()
    for raw_key, raw_value in values.items():
        key = _normalize_key(raw_key)
        if key in given:
            raise ConfigError(f"parameter class (i, j, epsilon) = {key} is given twice")
        given.add(key)
        value, exact_value = _parse_value(raw_value)
        if key not in allowed:
            if center is not None and (key[0], key[1]) == center:
                if value != 0.0:
                    raise ConfigError(
                        f"central class (i={key[0]}, j={key[1]}, "
                        f"epsilon={'+' if key[2] > 0 else '-'}) must be zero "
                        f"for odd N={dim}"
                    )
                continue
            raise ConfigError(
                f"key (i={key[0]}, j={key[1]}) outside the canonical range "
                f"1..{half} for N={dim}"
            )
        parsed[key] = value
        if exact is not None and exact_value is not None:
            exact[key] = exact_value
        else:
            exact = None
    if overrides:
        exact = None
    canonical = np.zeros((2, half, half))
    for (i, j, epsilon), value in parsed.items():
        canonical[(1 - epsilon) // 2, i - 1, j - 1] = value
    # 0-based index k and its mirror dim-1-k share the class min of the two
    fold = np.minimum(np.arange(dim), np.arange(dim)[::-1])
    grid = canonical[:, fold[:, None], fold]
    patched = []
    for override in overrides:
        if not (isinstance(override, (tuple, list)) and len(override) == 4):
            raise ConfigError(f"override {override!r} is not (i, j, epsilon, value)")
        *raw_key, raw_value = override
        i, j, epsilon = _normalize_key(tuple(raw_key))
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ConfigError(f"override indices ({i},{j}) out of range 1..{dim}")
        value, _ = _parse_value(raw_value)
        grid[(1 - epsilon) // 2, i - 1, j - 1] = value
        patched.append((i, j, epsilon, value))
    grid.setflags(write=False)
    return BraidFamily(
        dim=dim,
        mode=mode,
        values=parsed,
        exponents=grid,
        exact_values=exact,
        overrides=tuple(patched),
    )


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _normalize_key(raw_key: tuple) -> ParamKey:
    """(i, j, epsilon) of a parameter or override key: i and j must be
    ints (not bools), epsilon +1/-1 or "+"/"-".  Anything else raises
    ConfigError; nothing is truncated or coerced."""
    try:
        i, j, eps = raw_key
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"malformed parameter key {raw_key!r}") from exc
    if not (_is_int(i) and _is_int(j)):
        raise ConfigError(f"parameter key {raw_key!r}: i and j must be integers")
    if not ((isinstance(eps, str) or _is_int(eps)) and eps in _EPSILONS):
        raise ConfigError(
            f"parameter key {raw_key!r}: epsilon must be +1, -1, '+' or '-'"
        )
    return i, j, _EPSILONS[eps]


def _pattern_matrix(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """The dim^2 x dim^2 matrix with grid ``diag`` on the main diagonal and
    grid ``anti`` on the main antidiagonal; the inverse of
    ``pattern_grids``."""
    size = diag.size
    out = np.zeros((size, size), dtype=np.result_type(diag, anti))
    idx = np.arange(size)
    out[idx, idx] += diag.ravel()
    # (i~,j~) flattens to size-1-r; the odd central point lands on the
    # diagonal, where the two grid entries add up
    out[idx, size - 1 - idx] += anti.ravel()
    return out


def pattern_grids(
    matrix: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Diagonal grid, antidiagonal grid, and largest off-pattern magnitude
    of a dim^2 x dim^2 matrix.

    Entry (i, j) of the diagonal grid is the matrix entry ((i,j),(i,j)),
    of the antidiagonal grid the entry ((i,j),(i~,j~)), as ``matrix``
    lays them out.  For odd dim the central point is its own mirror: its
    entry is kept on the diagonal grid and the antidiagonal grid holds
    zero there, so the matrix equals diag + antidiag of the two grids
    whenever the off-pattern magnitude is zero.
    """
    size = dim * dim
    m = np.asarray(matrix)
    if m.shape != (size, size):
        raise DimensionError(
            f"expected a {size}x{size} matrix for side length {dim}, "
            f"got {m.shape}"
        )
    idx = np.arange(size)
    diag_grid = m[idx, idx].reshape(dim, dim).copy()
    anti_grid = m[idx, size - 1 - idx].reshape(dim, dim).copy()
    off = m.copy()
    off[idx, idx] = 0.0
    off[idx, size - 1 - idx] = 0.0
    if dim % 2:
        anti_grid[dim // 2, dim // 2] = 0.0
    return diag_grid, anti_grid, float(np.abs(off).max())


def orbit_blocks(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """The 2x2 blocks [[d_r, a_r], [a_r~, d_r~]] of ``_pattern_matrix(diag,
    anti)`` on span{e_r, e_r~}, r~ = dim^2-1-r, for r < ceil(dim^2/2): the
    matrix is their direct sum.  The 1x1 block at the odd-dim centre is
    stored as (d + a) I, a form that products and exponentials keep."""
    d, a = diag.ravel(), anti.ravel()
    k = (d.size + 1) // 2
    blocks = np.stack([d[:k], a[:k], a[::-1][:k], d[::-1][:k]], -1).reshape(-1, 2, 2)
    if d.size % 2:
        blocks[-1] = (d[k - 1] + a[k - 1]) * np.eye(2)
    return blocks


def block_grids(blocks: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, antidiagonal) grids of a stack of orbit blocks, the
    inverse of ``orbit_blocks``; the odd-dim centre goes on the diagonal
    grid, as ``pattern_grids`` lays it out."""
    k = len(blocks)
    grids = np.empty((2, dim * dim), dtype=blocks.dtype)
    grids[:, ::-1][:, :k] = blocks[:, 1, ::-1].T
    # written last, the first row of the centre block (d + a) I wins
    grids[:, :k] = blocks[:, 0].T
    return grids[0].reshape(dim, dim), grids[1].reshape(dim, dim)


# Largest deviation from the pattern that ``block_structure`` accepts.
PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class BlockStructureReport:
    """Sparsity/symmetry conformance of a built braid matrix.

    ``max_off_pattern`` is the largest magnitude found away from the main
    diagonal and antidiagonal; the asymmetry fields measure how far the
    diagonal and antidiagonal coefficient grids are from mirror-reflection
    invariance in each index.  ``conforms`` is True when everything is
    within PATTERN_TOL; violations are reported, never raised.
    """

    max_off_pattern: float
    max_diagonal_asymmetry: float
    max_antidiagonal_asymmetry: float

    @property
    def conforms(self) -> bool:
        return (
            self.max_off_pattern <= PATTERN_TOL
            and self.max_diagonal_asymmetry <= PATTERN_TOL
            and self.max_antidiagonal_asymmetry <= PATTERN_TOL
        )


def block_structure(matrix: np.ndarray, dim: int) -> BlockStructureReport:
    """Check the diagonal + antidiagonal pattern of a braid matrix.

    In block terms (dim x dim blocks of side dim) this is the familiar
    layout: diagonal blocks carrying diagonal entries, antidiagonal blocks
    carrying antidiagonal entries, with mirror-equal blocks.  Works for
    either parity.
    """
    diag_grid, anti_grid, off_pattern = pattern_grids(matrix, dim)
    diag_asym = max(
        float(np.abs(diag_grid - diag_grid[::-1, :]).max()),
        float(np.abs(diag_grid - diag_grid[:, ::-1]).max()),
    )
    anti_asym = max(
        float(np.abs(anti_grid - anti_grid[::-1, :]).max()),
        float(np.abs(anti_grid - anti_grid[:, ::-1]).max()),
    )
    return BlockStructureReport(
        max_off_pattern=off_pattern,
        max_diagonal_asymmetry=diag_asym,
        max_antidiagonal_asymmetry=anti_asym,
    )


_REFERENCE_CHECK_TOL = 1e-13


def reference_residuals(n: int) -> Mapping[str, float]:
    """The six self-check residuals measured while building the reference
    generator's orbit blocks, keyed by check name (read-only)."""
    return _reference_regrouping(n)[1]


@lru_cache(maxsize=None)
def _reference_regrouping(n: int) -> tuple:
    """Orbit blocks of the real rotation generator of the single-parameter
    reference family on N = 2n, and the residuals of its self-checks.

    The complementary projector pair (plus, minus) sums the phased family
    over each sign: one member of each per mirror pair, so both are
    stacks of 2x2 orbit blocks.  The generator is -i*(plus - minus); it
    must come out real with square -I, and the pair must pass all
    projector checks, otherwise the regrouping assumption is wrong and a
    ConstructionError is raised.
    """
    fam = projector_family(2 * n, "Q")
    blocks = fam.member_blocks()
    signs = np.array(fam.keys)[:, 2]
    plus, minus = blocks[signs == +1], blocks[signs == -1]
    rot = -1j * (plus - minus)
    eye = np.eye(2)
    checks = {
        name: float(np.abs(deviation).max())
        for name, deviation in (
            ("plus idempotent", plus @ plus - plus),
            ("minus idempotent", minus @ minus - minus),
            ("orthogonal", plus @ minus),
            ("complete", plus + minus - eye),
            ("generator real", rot.imag),
            ("generator squares to -I", rot @ rot + eye),
        )
    }
    bad = {k: v for k, v in checks.items() if v > _REFERENCE_CHECK_TOL}
    if bad:
        raise ConstructionError(f"reference regrouping failed checks: {bad}")
    rot_real = np.ascontiguousarray(rot.real)
    rot_real.setflags(write=False)
    return rot_real, MappingProxyType(checks)


def reference_blocks(n: int, z: float) -> np.ndarray:
    """Orbit blocks of the linear-form reference braid matrix I + z * M,
    M the rotation generator: a stack of [[1, z m], [-z m, 1]], m = +/-1.

    Real for real z; satisfies R(z)^T R(z) = (1 + z^2) I and the
    projective composition law R(z1) R(z2) = (1 - z1 z2) R(z3) with
    z3 = (z1 + z2)/(1 - z1 z2).
    """
    if not np.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    return np.eye(2) + z * _reference_regrouping(n)[0]


def require_mode(family: BraidFamily, mode: Mode) -> None:
    """Raise ModeError unless the family is in the requested mode."""
    if family.mode != mode:
        raise ModeError(f"operation requires {mode} mode, got {family.mode} mode")
