"""Entangling action of unitary braid matrices on product basis states.

Every basis state |a,b> is mapped into the two-dimensional plane spanned
by itself and its mirror partner |a~,b~>, so the Schmidt rank of the
image is 1 or 2 and the entanglement entropy is at most one bit.  The
records are therefore read off the two coefficient grids
(``BraidFamily.grids``), one diagonal and one antidiagonal entry per
state, in closed form: no dense matrix and no singular value
decomposition.

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
from fractions import Fraction

import numpy as np

from .braid import BraidFamily, canonical_keys, orbit_blocks, require_mode
from .errors import AccuracyError
# unused here but stays a module attribute: span tracers wrap
# ``entangle.schmidt_coefficients``.
from .linalg import schmidt_coefficients  # noqa: F401

# Singular values above this count toward the Schmidt rank, and column
# entries above it toward an image's components in ``exceptional_scan``;
# structural zeros are exact while rounding noise sits many orders lower.
RANK_TOL = 1e-8

# Proximity (in radians, modulo pi) at which a class's coefficient is
# treated as degenerate for genericity reporting.
GENERICITY_TOL = 1e-6

_PERIOD_PROBES = (0.37, 1.51)
_PERIOD_VERIFY_TOL = 1e-10


def _column_moduli(family: BraidFamily, theta: float) -> np.ndarray:
    """(N^2, 2) moduli of the two entries of every column of the braid
    matrix, in (a, b) order: the diagonal entry d_r, then the antidiagonal
    one a_r~ on the mirror row r~ = N^2-1-r.  The odd-N centre column is
    its own mirror and holds the one entry d + a, and a zero."""
    diag, anti = (grid.ravel() for grid in family.grids(theta))
    moduli = np.abs(np.stack([diag, anti[::-1]], axis=1))
    if diag.size % 2:
        centre = diag.size // 2
        moduli[centre] = np.abs(diag[centre] + anti[centre]), 0.0
    return moduli


def scan_products(family: BraidFamily, theta: float) -> list[dict]:
    """Schmidt data for every product basis state, in (a, b) order: one
    record ``{"a", "b", "singular_values", "entropy", "schmidt_rank"}``
    per state, as ``entangle`` writes it.

    State |a,b> maps to d|a,b> + e|a~,b~> (its column's diagonal and
    antidiagonal entries), whose singular values are |d| and |e|, sorted.
    On the odd-N centre row a~ = a and the image is the product
    |a> (x) (d|b> + e|b~>) (likewise on the centre column), with the single
    value hypot(|d|, |e|) followed by 0.0.  Every record carries exactly
    these two values, in descending order: the image's other N - 2 are
    structural zeros.  Entropy is the Shannon entropy of the squared
    values in bits; in unitary mode the squares sum to one.
    """
    require_mode(family, "unitary")
    dim = family.dim
    moduli = _column_moduli(family, theta)
    values = np.sort(moduli, axis=1)[:, ::-1]
    if dim % 2:
        line = np.zeros((dim, dim), dtype=bool)
        line[dim // 2] = line[:, dim // 2] = True
        line = line.ravel()
        values[line, 0] = np.hypot(moduli[line, 0], moduli[line, 1])
        values[line, 1] = 0.0
    probs = values**2
    logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0)
    entropy = -(probs * logs).sum(axis=1)
    # a negative sum (squares past one under symmetry overrides) and the
    # -0.0 of a rank-1 state both emit 0.0
    entropy = np.where(entropy > 0, entropy, 0.0)
    ranks = (values > RANK_TOL).sum(axis=1)
    rows = zip(values.tolist(), entropy.tolist(), ranks.tolist())
    return [
        {"a": r // dim + 1, "b": r % dim + 1, "singular_values": v,
         "entropy": e, "schmidt_rank": k}
        for r, (v, e, k) in enumerate(rows)
    ]


def exceptional_scan(family: BraidFamily, theta: float) -> list[tuple[int, int]]:
    """Basis states whose basis-product status is conserved at this theta.

    A state qualifies when its image has a single component above RANK_TOL
    (hence Schmidt rank 1 with the image a basis product up to phase).
    At theta = 0 every state qualifies; at generic parameters the scan is
    empty for even side lengths and contains exactly the central state
    for odd ones.  Accidental hits at special parameter-theta
    combinations can be diagnosed with ``degenerate_classes``.
    """
    require_mode(family, "unitary")
    components = (_column_moduli(family, theta) > RANK_TOL).sum(axis=1)
    a, b = np.nonzero(components.reshape(family.dim, family.dim) == 1)
    return list(zip((a + 1).tolist(), (b + 1).tolist()))


def degenerate_classes(
    family: BraidFamily, theta: float
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
    for i, j, epsilon in canonical_keys(family.dim):
        if epsilon == -1:
            continue
        delta = family.value(i, j, +1) - family.value(i, j, -1)
        phase = abs(delta * theta) % (2.0 * math.pi)
        if min(phase, 2.0 * math.pi - phase) <= GENERICITY_TOL:
            flagged.append(((i, j), "conserved"))
        elif abs(phase - math.pi) <= GENERICITY_TOL:
            flagged.append(((i, j), "swapped"))
    return flagged


def detect_period(family: BraidFamily) -> dict:
    """Period of the unitary family in theta, from exact rational exponents,
    as the record ``period`` writes: ``{"periodic", "period",
    "commensurate", "degenerate"}``.

    Rational exponents are always mutually commensurate; the period is
    2*pi/g where g is the largest rational dividing every exponent
    (gcd of numerators over lcm of denominators).  The claimed period is
    verified by comparing the orbit blocks at two theta base points; a
    verification failure (possible only for extreme rationals whose
    period exhausts double precision) raises AccuracyError rather than
    returning an unverified claim.

    Exponents supplied as floats are never rationalized: commensurability
    is undecidable from rounded values, so the record is then
    commensurate None, periodic false.  All-zero exponents give the
    constant identity family, reported as degenerate with period 0.
    """
    require_mode(family, "unitary")
    if family.exact_values is None:
        return {"periodic": False, "period": None, "commensurate": None,
                "degenerate": False}
    nonzero = [f for f in family.exact_values.values() if f != 0]
    if not nonzero:
        return {"periodic": True, "period": 0.0, "commensurate": True,
                "degenerate": True}
    g = Fraction(
        math.gcd(*(abs(f.numerator) for f in nonzero)),
        math.lcm(*(f.denominator for f in nonzero)),
    )
    period = 2.0 * math.pi / float(g)
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
    return {"periodic": True, "period": period, "commensurate": True,
            "degenerate": False}
