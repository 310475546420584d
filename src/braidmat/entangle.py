"""Entangling action of unitary braid matrices on product basis states.

Every basis state |a,b> is mapped into the two-dimensional plane spanned
by itself and its mirror partner |a~,b~>, so the Schmidt rank of the
image is 1 or 2 and the entanglement entropy is at most one bit.

A basis state is *exceptional* when the braid matrix conserves its
status as a basis product: the image is, up to a global phase, again a
single product basis state.  This happens structurally for the central
state of odd side lengths (its exponents are pinned to zero, so its
coefficient is exactly 1) and accidentally whenever the combination of
parameters and theta makes one of a class's two coefficients vanish
(see ``degenerate_classes``).  Note that for odd side lengths the other
central-row and central-column states keep Schmidt rank 1 as well - they
map to products of a basis state with a rotated single-factor state -
but their basis-product status is not conserved, so a generic scan
reports only the central state; the per-state records expose the full
Schmidt data either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .braid import BraidFamily, ParameterSet, canonical_keys, orbit_blocks, require_mode
from .errors import AccuracyError
from .linalg import schmidt_coefficients

# Singular values above this count toward the Schmidt rank; structural
# zeros are exact while rounding noise sits many orders lower.
RANK_TOL = 1e-8

# Proximity (in radians, modulo pi) at which a class's coefficient is
# treated as degenerate for genericity reporting.
GENERICITY_TOL = 1e-6

_PERIOD_PROBES = (0.37, 1.51)
_PERIOD_VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class EntanglementRecord:
    """Schmidt data of one mapped basis state.

    Entropy is Shannon entropy of the squared singular values in bits;
    in unitary mode the squares sum to one.
    """

    a: int
    b: int
    singular_values: tuple[float, ...]
    entropy: float
    schmidt_rank: int

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "singular_values": list(self.singular_values),
            "entropy": self.entropy,
            "schmidt_rank": self.schmidt_rank,
        }


@dataclass(frozen=True)
class PeriodResult:
    """Commensurability/periodicity verdict for a unitary family.

    ``commensurate`` is None when the exponents were supplied as floats
    (commensurability is undecidable from rounded values); ``degenerate``
    flags the all-zero family, which is constant in theta.
    """

    periodic: bool
    period: float | None
    commensurate: bool | None
    degenerate: bool = False
    verification_residuals: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {
            "periodic": self.periodic,
            "period": self.period,
            "commensurate": self.commensurate,
            "degenerate": self.degenerate,
        }


def _record(state: np.ndarray, a: int, b: int, dim: int) -> EntanglementRecord:
    values = schmidt_coefficients(state, dim, dim)
    probs = values**2
    entropy = float(-(probs[probs > 0] * np.log2(probs[probs > 0])).sum())
    return EntanglementRecord(
        a=a,
        b=b,
        singular_values=tuple(float(v) for v in values),
        entropy=max(entropy, 0.0),
        schmidt_rank=int((values > RANK_TOL).sum()),
    )


def scan_products(
    family: BraidFamily, theta: float
) -> list[EntanglementRecord]:
    """Schmidt data for every product basis state, in (a, b) order."""
    require_mode(family, "unitary")
    dim = family.dim
    matrix = family.matrix(theta)
    records = []
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            records.append(_record(matrix[:, (a - 1) * dim + (b - 1)], a, b, dim))
    return records


def exceptional_scan(
    family: BraidFamily, theta: float, tol: float = RANK_TOL
) -> list[tuple[int, int]]:
    """Basis states whose basis-product status is conserved at this theta.

    A state qualifies when its image has a single component above ``tol``
    (hence Schmidt rank 1 with the image a basis product up to phase).
    At theta = 0 every state qualifies; at generic parameters the scan is
    empty for even side lengths and contains exactly the central state
    for odd ones.  Accidental hits at special parameter-theta
    combinations can be diagnosed with ``degenerate_classes``.
    """
    require_mode(family, "unitary")
    diag, anti = family.grids(theta)
    # column (a, b) of the matrix holds diag(a, b) and, on the mirror row,
    # anti(a~, b~); at the odd-N centre the two are one entry, d + a
    components = (np.abs(diag) > tol) + (np.abs(anti[::-1, ::-1]) > tol).astype(int)
    if family.dim % 2:
        c = family.dim // 2
        components[c, c] = abs(diag[c, c] + anti[c, c]) > tol
    a, b = np.nonzero(components == 1)
    return list(zip((a + 1).tolist(), (b + 1).tolist()))


def degenerate_classes(
    params: ParameterSet, theta: float, tol: float = GENERICITY_TOL
) -> list[tuple[tuple[int, int], str]]:
    """Canonical (i, j) classes whose coefficients degenerate at theta.

    For each class the two coefficients are cos(d*theta/2) and
    sin(d*theta/2) up to phase, with d = m(+) - m(-).  When d*theta is a
    multiple of 2*pi the antisymmetric coefficient vanishes and the class
    conserves basis states ("conserved"); at odd multiples of pi the
    symmetric coefficient vanishes and basis states swap with their
    mirrors ("swapped").  Either kind makes a scan at this theta
    accidentally exceptional; an empty result certifies genericity.
    """
    flagged = []
    # one (i, j) per canonical class; the odd-N centre is pinned and absent
    for i, j, epsilon in canonical_keys(params.dim):
        if epsilon == -1:
            continue
        delta = params.value(i, j, +1) - params.value(i, j, -1)
        phase = abs(delta * theta) % (2.0 * math.pi)
        if min(phase, 2.0 * math.pi - phase) <= tol:
            flagged.append(((i, j), "conserved"))
        elif abs(phase - math.pi) <= tol:
            flagged.append(((i, j), "swapped"))
    return flagged


def detect_period(params: ParameterSet) -> PeriodResult:
    """Period of the unitary family in theta, from exact rational exponents.

    Rational exponents are always mutually commensurate; the period is
    2*pi/g where g is the largest rational dividing every exponent
    (gcd of numerators over lcm of denominators).  The claimed period is
    verified by comparing the orbit blocks at two theta base points; a
    verification failure (possible only for extreme rationals whose
    period exhausts double precision) raises AccuracyError rather than
    returning an unverified claim.

    Exponents supplied as floats are never rationalized: the result is
    then commensurate=None, periodic=False.  All-zero exponents give the
    constant identity family, reported as degenerate with period 0.
    """
    require_mode(params, "unitary")
    if params.exact_values is None:
        return PeriodResult(periodic=False, period=None, commensurate=None)
    nonzero = [f for f in params.exact_values.values() if f != 0]
    if not nonzero:
        return PeriodResult(
            periodic=True, period=0.0, commensurate=True, degenerate=True
        )
    g = Fraction(
        math.gcd(*(abs(f.numerator) for f in nonzero)),
        math.lcm(*(f.denominator for f in nonzero)),
    )
    period = 2.0 * math.pi / float(g)
    family = BraidFamily.create(params)
    residuals = []
    for theta0 in _PERIOD_PROBES:
        shifted = orbit_blocks(*family.grids(theta0 + period))
        diff = shifted - orbit_blocks(*family.grids(theta0))
        residuals.append(float(np.abs(diff).max()))
    if max(residuals) > _PERIOD_VERIFY_TOL:
        raise AccuracyError(
            f"period {period!r} could not be verified to "
            f"{_PERIOD_VERIFY_TOL}: residuals {residuals}"
        )
    return PeriodResult(
        periodic=True,
        period=period,
        commensurate=True,
        verification_residuals=tuple(residuals),
    )
