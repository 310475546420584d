"""Machine checks for every algebraic claim about the braid families.

Each check returns the record its report writes: a dict of name,
residual, tolerance, passed and context.  The residual is normalized: the
largest entrywise deviation divided by max(1, largest entry magnitude of
either compared matrix).  Nonunitary coefficients grow exponentially in
theta, so unnormalized residuals would not be comparable across draws.

``run_suite`` aggregates checks over random parameter draws.  Randomness
comes from numpy's Philox counter-based bit generator keyed by the seed,
so identical (config, suite, samples, seed, tol) invocations reproduce
bit-identical reports on any platform.
"""

from __future__ import annotations

import functools
import math
from typing import Union

import numpy as np

from .braid import (
    BraidFamily,
    block_grids,
    canonical_keys,
    make_parameters,
    orbit_blocks,
    reference_blocks,
    reference_residuals,
    require_mode,
)
from .config import ReferenceConfig
from .errors import (
    AccuracyError,
    BraidmatError,
    ConfigError,
    DimensionError,
    DomainError,
)
# kron is unused here but stays a module attribute: span tracers wrap
# ``verify.kron``.
from .linalg import kron, matrix_exponential  # noqa: F401
from .projectors import projector_family

SUITES = (
    "braid",
    "unitarity",
    "factorization",
    "exponential",
    "projectors",
    "composition",
    "all",
)

# Derived per-check tolerances, as fractions of the user tolerance; at the
# default 1e-10 they give braid 1e-10, factorization 1e-11, unitarity
# 1e-12, theta-reversal and composition 1e-13.  Projector algebra is
# checked at a fixed 1e-14 regardless (the members are exact dyadics).
_SCALES = {
    "braid": 1.0,
    "unitarity": 0.01,
    "theta_reversal": 0.001,
    "factorization": 0.1,
    "exponential": 1.0,
    "composition": 0.001,
}
# the per-sample checks, in the order a sample runs them under suite "all"
_SAMPLE_CHECKS = ("braid", "unitarity", "factorization", "exponential", "composition")
PROJECTOR_TOL = 1e-14
REFERENCE_GENERATOR_TOL = 1e-13


def normalized_residual(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| scaled by max(1, |a|_max, |b|_max).

    ``a`` and ``b`` are two matrices, two stacks of orbit blocks, or the
    merged slot arrays of two triple products (see ``exchange_residual``);
    either way they must have the same shape and finite entries.
    """
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise AccuracyError("compared products have non-finite entries")
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


# The braid matrix maps |i,j> onto itself and its mirror |i~,j~> only, so
# any product of R12 = R (x) I and R23 = I (x) R maps |p,q,r> into the
# span of the four states reached by flipping no pair, (p,q), (q,r), or
# both (which flips p and r).  Those are the four slots of a column, given
# here as flip bits on (p, q, r).
_SLOT_FLIPS = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
# (factor axes, slot reached from each slot by one more flip of that pair)
_R12 = ((0, 1), [1, 0, 3, 2])
_R23 = ((1, 2), [2, 3, 0, 1])


# Side lengths are capped (braid.MAX_SIDE), so the cache stays small; its
# arrays are shared by every caller and therefore read-only.
@functools.lru_cache(maxsize=None)
def _slot_layout(dim: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """What ``exchange_residual`` needs of the side length alone.

    For R12 and R23, a (4, N, N) array: entry [g, x, y] is the flat index
    into an N x N grid of the row of slot g on the pair's axes, for the
    columns whose indices on those axes are (x, y).  At odd N, also
    (g, h, positions) for each slot pair h < g, in the order the fold
    applies them: the flat column positions where slots g and h land on
    one row.  Any two slots differ in the flips of two axes, so they
    coincide exactly where both axes hold the self-mirrored centre index.
    """
    ix = np.arange(dim)
    flipped = (ix, ix[::-1])
    pairs = []
    for axes, _ in (_R12, _R23):
        index = np.stack(
            [
                flipped[flips[axes[0]]][:, None] * dim + flipped[flips[axes[1]]]
                for flips in _SLOT_FLIPS
            ]
        )
        index.flags.writeable = False
        pairs.append(index)
    merges = []
    if dim % 2:
        centre = np.array([dim // 2])
        for g in range(1, 4):
            for h in range(g):
                ranges = [
                    centre if fg != fh else ix
                    for fg, fh in zip(_SLOT_FLIPS[g], _SLOT_FLIPS[h])
                ]
                positions = np.ravel_multi_index(np.ix_(*ranges), (dim,) * 3).ravel()
                positions.flags.writeable = False
                merges.append((g, h, positions))
    return pairs[0], pairs[1], tuple(merges)


def exchange_residual(t: tuple, s: tuple, p: tuple) -> float:
    """Normalized residual of R12(t) R23(s) R12(t') against R23(t') R12(s)
    R23(t), given the (diagonal, antidiagonal) grids of R(t), R(s), R(t').

    Each column (p, q, r) of either side has at most four nonzero
    entries, on the rows of its four slots, so the comparison costs
    O(N^3) instead of the O(N^9) of dense (N^3 x N^3) products, and gives
    the same residual up to rounding.  Slot g of column x holds the entry
    on row g(x); R on a pair maps a slot to itself (diagonal coefficient)
    and to its partner (antidiagonal coefficient), both read at the
    destination row.  The six grids are gathered onto the slots with one
    indexing per pair, through the side length's cached ``_slot_layout``.
    At odd N, slots that land on one row of their column (only at the
    self-mirrored centre) are then folded into the first of them, so that
    each row carries its full entry.
    """
    dim = len(t[0])
    index12, index23, merges = _slot_layout(dim)
    grids = np.stack([g.ravel() for pair in (t, s, p) for g in pair])
    # factor k of (t, s, p) reads rows 2k (diagonal) and 2k + 1 (antidiagonal)
    on12 = grids.take(index12, axis=1)[..., None]
    on23 = grids.take(index23, axis=1)[:, :, None]

    def product(word: tuple) -> np.ndarray:
        # word lists (slot coefficients, pair, factor) in the order the
        # factors act, rightmost matrix first
        slots = np.zeros((4, dim, dim, dim), dtype=grids.dtype)
        slots[0] = 1.0
        for on, (_, partner), k in word:
            slots = on[2 * k] * slots + on[2 * k + 1] * slots[partner]
        flat = slots.reshape(4, -1)
        for g, h, positions in merges:
            flat[h, positions] += flat[g, positions]
            flat[g, positions] = 0.0
        return slots

    lhs = product(((on12, _R12, 2), (on23, _R23, 1), (on12, _R12, 0)))
    rhs = product(((on23, _R23, 0), (on12, _R12, 1), (on23, _R23, 2)))
    return normalized_residual(lhs, rhs)


def _blocks(family: BraidFamily, theta: float) -> np.ndarray:
    """Orbit blocks of the braid matrix at theta (see ``orbit_blocks``)."""
    return orbit_blocks(*family.grids(theta))


def _check(name: str, residual: float, tol: float, context: dict) -> dict:
    """One check's report record.  A NaN residual, recorded when a check
    errored out, is written as None and never passes: ``passed`` holds iff
    residual <= tol."""
    return {
        "name": name,
        "residual": None if math.isnan(residual) else residual,
        "tolerance": tol,
        "passed": residual <= tol,
        "context": context,
    }


def check_braid(
    family: BraidFamily, theta: float, theta_prime: float, tol: float = 1e-10
) -> dict:
    """Cubic exchange identity on the triple tensor space.

    Compares R12(t) R23(t+t') R12(t') against R23(t') R12(t+t') R23(t),
    where R12 = R (x) I and R23 = I (x) R, column by column on the
    structured triple product of the coefficient grids (see
    ``exchange_residual``).
    """
    grids = (family.grids(x) for x in (theta, theta + theta_prime, theta_prime))
    return _check(
        "braid",
        exchange_residual(*grids),
        tol,
        {"theta": theta, "theta_prime": theta_prime},
    )


def check_unitarity(
    family: BraidFamily, theta: float, tol: float = 1e-12
) -> dict:
    """dagger(R) @ R = I, plus dagger(R(theta)) = R(-theta) in context,
    on the orbit blocks.

    Only meaningful (and only permitted) in unitary mode; real mode raises
    ModeError since the family is then deliberately nonunitary.
    """
    require_mode(family, "unitary")
    r = _blocks(family, theta)
    r_dagger = r.conj().swapaxes(-1, -2)
    reversal = float(np.abs(r_dagger - _blocks(family, -theta)).max())
    return _check(
        "unitarity",
        normalized_residual(r_dagger @ r, np.broadcast_to(np.eye(2), r.shape)),
        tol,
        {"theta": theta, "theta_reversal_residual": reversal},
    )


def check_factorization(
    family: BraidFamily, theta1: float, theta2: float, tol: float = 1e-11
) -> dict:
    """Additivity R(t1 +/- t2) = R(t1) @ R(+/-t2) and inversion by sign
    flip, on the orbit blocks."""
    r1 = _blocks(family, theta1)
    r2 = _blocks(family, theta2)
    r2_inv = _blocks(family, -theta2)
    eye = np.broadcast_to(np.eye(2), r1.shape)
    plus = normalized_residual(_blocks(family, theta1 + theta2), r1 @ r2)
    minus = normalized_residual(_blocks(family, theta1 - theta2), r1 @ r2_inv)
    inverse = normalized_residual(r2 @ r2_inv, eye)
    return _check(
        "factorization",
        max(plus, minus, inverse),
        tol,
        {
            "theta1": theta1,
            "theta2": theta2,
            "plus_residual": plus,
            "minus_residual": minus,
            "inverse_residual": inverse,
        },
    )


def check_exponential(
    family: BraidFamily, theta: float, tol: float = 1e-10
) -> dict:
    """Generator form: built matrix vs exp(theta * X), and the exchange
    identity rerun on the exponential-form matrices.

    E(x) = exp(x*X) is the stack of exponentials of the 2x2 orbit blocks
    of X, summed by the Taylor kernel of ``matrix_exponential``,
    independent of the closed form of ``grids``.  The second part
    substitutes E for the built matrices at (theta, theta/2) and reruns
    the triple product on its grids, using exp(x * X (x) I) = E(x) (x) I.
    E at theta, theta/2 and 3 theta/2 comes from one grouped call: each
    stack is scaled on its own, as by its own call, and the first bad
    one in that order raises, before R(theta) is built.
    """
    x = orbit_blocks(*family.generator())
    half = theta / 2.0
    e_t, e_h, e_s = matrix_exponential(
        np.stack([c * x for c in (theta, half, theta + half)])
    )
    direct = normalized_residual(_blocks(family, theta), e_t)
    exchange = exchange_residual(*(block_grids(e, family.dim) for e in (e_t, e_s, e_h)))
    return _check(
        "exponential",
        max(direct, exchange),
        tol,
        {
            "theta": theta,
            "theta_prime": half,
            "build_vs_exp_residual": direct,
            "exp_exchange_residual": exchange,
        },
    )


def check_composition_law(
    n: int, z1: float, z2: float, tol: float = 1e-13
) -> dict:
    """Projective composition of the reference family, on its orbit blocks.

    R(z1) @ R(z2) = (1 - z1*z2) * R(z3) with z3 = (z1+z2)/(1 - z1*z2);
    the scalar is reported in the context.  z1*z2 = 1 is a pole.
    """
    scalar = 1.0 - z1 * z2
    if abs(scalar) < 1e-12:
        raise DomainError(f"z1*z2 = {z1 * z2} is at the composition pole")
    z3 = (z1 + z2) / scalar
    product = reference_blocks(n, z1) @ reference_blocks(n, z2)
    return _check(
        "composition",
        normalized_residual(product, scalar * reference_blocks(n, z3)),
        tol,
        {"z1": z1, "z2": z2, "z3": z3, "scalar": scalar},
    )


def projector_checks(dim: int) -> list[dict]:
    """Idempotency, orthogonality, completeness, and trace for every
    projector family available at this side length, at PROJECTOR_TOL.

    Member P_k = w_k v_k v_k^dagger acts on the mirror pair (e_r, e_r~),
    r = k // 2, so members of different pairs have disjoint supports and
    every residual is read off the two members of one pair:
    P_k P_k = w_k^2 |v_k|^2 v_k v_k^dagger, trace P_k = w_k |v_k|^2, the
    one overlap P_a P_b = w_a w_b (v_a^dagger v_b) v_a v_b^dagger, and the
    pair's sum against I.  Every nonzero entry of an image vector has
    modulus 1, so these equal the residuals of the dense member-level
    products, at O(N^2) cost.
    """
    kinds = ["unified"] + (["Q"] if dim % 2 == 0 else [])
    results = []
    for kind in kinds:
        fam = projector_family(dim, kind)
        v, w = fam.vectors, fam.weights
        norm = (np.abs(v) ** 2).sum(axis=1)
        idem = float(np.abs(w * norm * w - w).max())
        trace_dev = float(np.abs(w * norm - 1.0).max())
        # members 2r and 2r + 1 share pair r; the odd-N centre is last
        overlap = w[:-1:2] * (v[:-1:2].conj() * v[1::2]).sum(axis=1) * w[1::2]
        orth = float(np.abs(overlap).max())
        blocks = fam.member_blocks()
        complete = float(np.abs(blocks[:-1:2] + blocks[1::2] - np.eye(2)).max())
        if len(fam) % 2:  # the centre alone resolves its single position
            complete = max(complete, float(abs(blocks[-1, 0, 0] - 1.0)))
        ctx = {"kind": kind, "members": len(fam)}
        results.append(_check("projectors_idempotent", idem, PROJECTOR_TOL, dict(ctx)))
        results.append(_check("projectors_orthogonal", orth, PROJECTOR_TOL, dict(ctx)))
        results.append(_check("projectors_complete", complete, PROJECTOR_TOL, dict(ctx)))
        results.append(_check("projectors_unit_trace", trace_dev, PROJECTOR_TOL, dict(ctx)))
        if kind == "Q":
            # member w v v^dagger with max|v| = 1 misses Hermiticity by 2|Im w|
            herm = 2 * float(np.abs(w.imag).max())
            results.append(_check("projectors_hermitian", herm, PROJECTOR_TOL, dict(ctx)))
    return results


def reference_checks(n: int) -> list[dict]:
    """Self-checks of the reference regrouping: the sign-summed pair must
    be complementary orthogonal projectors and yield a real generator
    squaring to -I.  The residuals are the ones the construction itself
    measured (see ``reference_residuals``)."""
    res = reference_residuals(n)
    pair_residual = max(
        res["plus idempotent"],
        res["minus idempotent"],
        res["orthogonal"],
        res["complete"],
    )
    gen_residual = max(res["generator real"], res["generator squares to -I"])
    return [
        _check("reference_projectors", pair_residual, PROJECTOR_TOL, {"n": n}),
        _check("reference_generator", gen_residual, REFERENCE_GENERATOR_TOL, {"n": n}),
    ]


def run_suite(
    config: Union[BraidFamily, ReferenceConfig],
    suite: str = "all",
    samples: int = 20,
    seed: int = 42,
    tol: float = 1e-10,
) -> dict:
    """Run a named suite of checks and return the report record: N, mode,
    suite, seed, tolerance, the checks' records and whether all passed.

    For a braid-family config, sample 0 evaluates the configured parameter
    values and samples 1..``samples`` evaluate fresh parameter draws
    (uniform on [-2, 2] over the canonical classes, thetas uniform on
    [-1, 1], composition points on [-0.9, 0.9]); any symmetry overrides in
    the config are applied to every draw so that negative controls stay in
    force.  Checks that cannot apply are skipped under suite "all"
    (unitarity in real mode, composition at odd side length) but surface
    as failed results when requested explicitly.  A reference config
    (side length 2n) accepts only the suites "composition", "projectors"
    and "all", and each of its samples draws only the composition points.
    A BraidmatError raised inside a check becomes that check's failed
    record, with the message in its context, instead of propagating.

    Randomness: numpy Philox keyed by ``seed`` with a fixed draw order,
    so reports are bit-identical across runs and platforms.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    if samples < 0:
        raise ConfigError("samples must be >= 0")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be a finite number > 0, got {tol!r}")
    reference = isinstance(config, ReferenceConfig)
    if reference and suite not in ("composition", "projectors", "all"):
        raise ConfigError(
            f"suite {suite!r} does not apply to the reference family; "
            "use 'composition', 'projectors', or 'all'"
        )
    dim = 2 * config.n if reference else config.dim
    mode = "reference" if reference else config.mode
    # the per-sample checks to run; "projectors" selects none
    if suite == "projectors":
        names: tuple[str, ...] = ()
    elif suite != "all":
        names = (suite,)
    elif reference:
        names = ("composition",)
    else:
        names = tuple(
            name
            for name in _SAMPLE_CHECKS
            if (name != "unitarity" or mode == "unitary")
            and (name != "composition" or dim % 2 == 0)
        )
    rng = np.random.Generator(np.random.Philox(seed))
    checks: list[dict] = []
    if suite in ("projectors", "all"):
        checks.extend(projector_checks(dim))
        if dim % 2 == 0:
            checks.extend(reference_checks(dim // 2))
    keys = () if reference else canonical_keys(dim)
    # with no per-sample check selected (suite "projectors") nothing is drawn
    for sample in range(samples + 1 if names else 0):
        ctx = {"sample": sample}
        if reference:
            z1, z2 = rng.uniform(-0.9, 0.9, size=2)
        else:
            draws = rng.uniform(-2.0, 2.0, size=len(keys))
            theta, theta_prime = rng.uniform(-1.0, 1.0, size=2)
            z1, z2 = rng.uniform(-0.9, 0.9, size=2)
            family = config
            if sample > 0:
                values = dict(zip(keys, draws))
                family = make_parameters(dim, mode, values, overrides=config.overrides)
            ctx["parameter_digest"] = family.digest()
        for name in names:
            check_tol = tol * _SCALES[name]
            # every check that raises, the odd-N composition check included,
            # becomes one failed record here
            try:
                if name == "braid":
                    result = check_braid(family, theta, theta_prime, tol=check_tol)
                elif name == "unitarity":
                    result = check_unitarity(family, theta, tol=check_tol)
                elif name == "factorization":
                    result = check_factorization(family, theta, theta_prime, tol=check_tol)
                elif name == "exponential":
                    result = check_exponential(family, theta, tol=check_tol)
                elif dim % 2 == 0:
                    result = check_composition_law(dim // 2, z1, z2, tol=check_tol)
                else:
                    raise ConfigError(
                        f"composition law needs an even side length (got N={dim})"
                    )
            except BraidmatError as exc:
                error_ctx = dict(ctx, error=str(exc))
                checks.append(_check(name, math.nan, check_tol, error_ctx))
                continue
            result["context"] = dict(ctx, **result["context"])
            checks.append(result)
            if name == "unitarity":
                reversal = result["context"]["theta_reversal_residual"]
                reversal_tol = tol * _SCALES["theta_reversal"]
                reversal_ctx = dict(ctx, theta=theta)
                checks.append(
                    _check("theta_reversal", reversal, reversal_tol, reversal_ctx)
                )
    checks.sort(key=lambda c: (c["name"], c["context"].get("sample", -1)))
    return {
        "N": dim,
        "mode": mode,
        "suite": suite,
        "seed": seed,
        "tolerance": tol,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
