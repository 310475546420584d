"""Machine checks for every algebraic claim about the braid families.

Each check returns a CheckResult with a normalized residual: the largest
entrywise deviation divided by max(1, largest entry magnitude of either
compared matrix).  Nonunitary coefficients grow exponentially in theta,
so unnormalized residuals would not be comparable across draws.

``run_suite`` aggregates checks over random parameter draws.  Randomness
comes from numpy's Philox counter-based bit generator keyed by the seed,
so identical (config, suite, samples, seed, tol) invocations reproduce
bit-identical reports on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .braid import (
    BraidFamily,
    ParameterSet,
    block_grids,
    canonical_keys,
    make_parameters,
    orbit_blocks,
    reference_matrix,
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
from .linalg import kron, matrix_exponential, max_abs_diff  # noqa: F401
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
_FACTORIZATION_SCALE = 0.1
_UNITARITY_SCALE = 0.01
_REVERSAL_SCALE = 0.001
_COMPOSITION_SCALE = 0.001
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


def _on_slots(grid: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    """grid evaluated at the ``axes`` indices of each slot's row, as a
    (4, N, N, N) broadcastable array over columns (p, q, r)."""
    flip = slice(None, None, -1)
    views = np.stack(
        [
            grid[tuple(flip if flips[k] else slice(None) for k in axes)]
            for flips in _SLOT_FLIPS
        ]
    )
    return views[..., None] if axes == (0, 1) else views[:, None]


def _triple_slots(word: list, dim: int) -> np.ndarray:
    """Slot coefficients of every column of a product of R12/R23 factors.

    ``word`` lists ((axes, partner), (diag, anti)) in the order the factors
    act, rightmost matrix first.  Slot g of column x holds the entry on
    row g(x); R on a pair maps a slot to itself (diagonal coefficient)
    and to its partner (antidiagonal coefficient), both read at the
    destination row.
    """
    dtype = np.result_type(*(g for _, grids in word for g in grids))
    slots = np.zeros((4, dim, dim, dim), dtype=dtype)
    slots[0] = 1.0
    for (axes, partner), (diag, anti) in word:
        slots = _on_slots(diag, axes) * slots + _on_slots(anti, axes) * slots[partner]
    return slots


def _merge_coincident(slots: np.ndarray, dim: int) -> np.ndarray:
    """Fold slots that land on the same row of their column into the first
    of them, so that each row carries its full entry.  Rows coincide only
    when the flipped indices are the self-mirrored centre of odd N."""
    index = np.indices((dim, dim, dim))
    rows = [
        np.ravel_multi_index(
            tuple(np.where(f, dim - 1 - ix, ix) for f, ix in zip(flips, index)),
            (dim, dim, dim),
        )
        for flips in _SLOT_FLIPS
    ]
    merged = slots.copy()
    for g in range(1, 4):
        for h in range(g):
            same = rows[g] == rows[h]
            merged[h] += np.where(same, merged[g], 0.0)
            merged[g] = np.where(same, 0.0, merged[g])
    return merged


def exchange_residual(t: tuple, s: tuple, p: tuple) -> float:
    """Normalized residual of R12(t) R23(s) R12(t') against R23(t') R12(s)
    R23(t), given the (diagonal, antidiagonal) grids of R(t), R(s), R(t').

    Each column of either side has at most four nonzero entries (the
    slots), so the comparison costs O(N^3) instead of the O(N^9) of dense
    (N^3 x N^3) products, and gives the same residual up to rounding.
    """
    dim = len(t[0])
    lhs = _triple_slots([(_R12, p), (_R23, s), (_R12, t)], dim)
    rhs = _triple_slots([(_R23, t), (_R12, s), (_R23, p)], dim)
    if dim % 2:
        lhs, rhs = _merge_coincident(lhs, dim), _merge_coincident(rhs, dim)
    return normalized_residual(lhs, rhs)


def _blocks(family: BraidFamily, theta: float) -> np.ndarray:
    """Orbit blocks of the braid matrix at theta (see ``orbit_blocks``)."""
    return orbit_blocks(*family.grids(theta))


@dataclass(frozen=True)
class CheckResult:
    """One verified residual; ``passed`` holds iff residual <= tolerance
    (a NaN residual, recorded when a check errored out, never passes)."""

    name: str
    residual: float
    tolerance: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_json(self) -> dict:
        residual = None if math.isnan(self.residual) else self.residual
        return {
            "name": self.name,
            "residual": residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "context": dict(self.context),
        }


@dataclass(frozen=True)
class VerificationReport:
    dim: int
    mode: str
    suite: str
    seed: int
    tolerance: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "N": self.dim,
            "mode": self.mode,
            "suite": self.suite,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
        }


def check_braid(
    family: BraidFamily, theta: float, theta_prime: float, tol: float = 1e-10
) -> CheckResult:
    """Cubic exchange identity on the triple tensor space.

    Compares R12(t) R23(t+t') R12(t') against R23(t') R12(t+t') R23(t),
    where R12 = R (x) I and R23 = I (x) R, column by column on the
    structured triple product of the coefficient grids (see
    ``exchange_residual``).
    """
    grids = (family.grids(x) for x in (theta, theta + theta_prime, theta_prime))
    return CheckResult(
        name="braid",
        residual=exchange_residual(*grids),
        tolerance=tol,
        context={"theta": theta, "theta_prime": theta_prime},
    )


def check_unitarity(
    family: BraidFamily, theta: float, tol: float = 1e-12
) -> CheckResult:
    """dagger(R) @ R = I, plus dagger(R(theta)) = R(-theta) in context,
    on the orbit blocks.

    Only meaningful (and only permitted) in unitary mode; real mode raises
    ModeError since the family is then deliberately nonunitary.
    """
    require_mode(family, "unitary")
    r = _blocks(family, theta)
    r_dagger = r.conj().swapaxes(-1, -2)
    reversal = float(np.abs(r_dagger - _blocks(family, -theta)).max())
    return CheckResult(
        name="unitarity",
        residual=normalized_residual(r_dagger @ r, np.broadcast_to(np.eye(2), r.shape)),
        tolerance=tol,
        context={"theta": theta, "theta_reversal_residual": reversal},
    )


def check_factorization(
    family: BraidFamily, theta1: float, theta2: float, tol: float = 1e-11
) -> CheckResult:
    """Additivity R(t1 +/- t2) = R(t1) @ R(+/-t2) and inversion by sign
    flip, on the orbit blocks."""
    r1 = _blocks(family, theta1)
    r2 = _blocks(family, theta2)
    r2_inv = _blocks(family, -theta2)
    eye = np.broadcast_to(np.eye(2), r1.shape)
    plus = normalized_residual(_blocks(family, theta1 + theta2), r1 @ r2)
    minus = normalized_residual(_blocks(family, theta1 - theta2), r1 @ r2_inv)
    inverse = normalized_residual(r2 @ r2_inv, eye)
    return CheckResult(
        name="factorization",
        residual=max(plus, minus, inverse),
        tolerance=tol,
        context={
            "theta1": theta1,
            "theta2": theta2,
            "plus_residual": plus,
            "minus_residual": minus,
            "inverse_residual": inverse,
        },
    )


def check_exponential(
    family: BraidFamily, theta: float, tol: float = 1e-10
) -> CheckResult:
    """Generator form: built matrix vs exp(theta * X), and the exchange
    identity rerun on the exponential-form matrices.

    E(x) = exp(x*X) is the stack of exponentials of the 2x2 orbit blocks
    of X, summed by the Taylor kernel of ``matrix_exponential``,
    independent of the closed form of ``grids``.  The second part
    substitutes E for the built matrices at (theta, theta/2) and reruns
    the triple product on its grids, using exp(x * X (x) I) = E(x) (x) I.
    """
    x = orbit_blocks(*family.generator())
    e_t = matrix_exponential(theta * x)
    direct = normalized_residual(_blocks(family, theta), e_t)
    half = theta / 2.0
    e_h = matrix_exponential(half * x)
    e_s = matrix_exponential((theta + half) * x)
    exchange = exchange_residual(*(block_grids(e, family.dim) for e in (e_t, e_s, e_h)))
    return CheckResult(
        name="exponential",
        residual=max(direct, exchange),
        tolerance=tol,
        context={
            "theta": theta,
            "theta_prime": half,
            "build_vs_exp_residual": direct,
            "exp_exchange_residual": exchange,
        },
    )


def check_composition_law(
    n: int, z1: float, z2: float, tol: float = 1e-13
) -> CheckResult:
    """Projective composition of the reference family.

    R(z1) @ R(z2) = (1 - z1*z2) * R(z3) with z3 = (z1+z2)/(1 - z1*z2);
    the scalar is reported in the context.  z1*z2 = 1 is a pole.
    """
    scalar = 1.0 - z1 * z2
    if abs(scalar) < 1e-12:
        raise DomainError(f"z1*z2 = {z1 * z2} is at the composition pole")
    z3 = (z1 + z2) / scalar
    product = reference_matrix(n, z1) @ reference_matrix(n, z2)
    return CheckResult(
        name="composition",
        residual=normalized_residual(product, scalar * reference_matrix(n, z3)),
        tolerance=tol,
        context={"z1": z1, "z2": z2, "z3": z3, "scalar": scalar},
    )


def projector_checks(dim: int, tol: float = PROJECTOR_TOL) -> list[CheckResult]:
    """Idempotency, orthogonality, completeness, and trace for every
    projector family available at this side length.

    Members P_k = w_k v_k v_k^dagger give P_a P_b = PP_ab v_a v_b^dagger
    with PP = W G W, G = V^dagger V and W = diag(w).  Every nonzero entry
    of an image vector has modulus 1, so max|P_a P_b| = |PP_ab|, and the
    residuals read off PP equal those of the member-level products.
    """
    kinds = ["unified"] + (["Q"] if dim % 2 == 0 else [])
    results = []
    for kind in kinds:
        fam = projector_family(dim, kind)
        vectors, weights = fam.vectors, fam.weights
        gram = vectors.conj().T @ vectors
        pp = weights[:, None] * gram * weights[None, :]
        pp_diag = pp.diagonal()
        idem = float(np.abs(pp_diag - weights).max())
        orth = float(np.abs(pp - np.diag(pp_diag)).max())
        complete = max_abs_diff(
            (vectors * weights) @ vectors.conj().T, np.eye(dim * dim)
        )
        trace_dev = float(np.abs(pp_diag / weights - 1.0).max())
        ctx = {"kind": kind, "members": len(fam)}
        results.append(CheckResult("projectors_idempotent", idem, tol, dict(ctx)))
        results.append(CheckResult("projectors_orthogonal", orth, tol, dict(ctx)))
        results.append(CheckResult("projectors_complete", complete, tol, dict(ctx)))
        results.append(CheckResult("projectors_unit_trace", trace_dev, tol, dict(ctx)))
        if kind == "Q":
            # member w v v^dagger with max|v| = 1 misses Hermiticity by 2|Im w|
            herm = 2 * float(np.abs(weights.imag).max())
            results.append(CheckResult("projectors_hermitian", herm, tol, dict(ctx)))
    return results


def reference_checks(n: int) -> list[CheckResult]:
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
        CheckResult("reference_projectors", pair_residual, PROJECTOR_TOL, {"n": n}),
        CheckResult(
            "reference_generator", gen_residual, REFERENCE_GENERATOR_TOL, {"n": n}
        ),
    ]


def _failed(name: str, tol: float, error: Exception, **context) -> CheckResult:
    context["error"] = str(error)
    return CheckResult(name=name, residual=math.nan, tolerance=tol, context=context)


def run_suite(
    config: Union[ParameterSet, ReferenceConfig],
    suite: str = "all",
    samples: int = 20,
    seed: int = 42,
    tol: float = 1e-10,
) -> VerificationReport:
    """Run a named suite of checks and aggregate a report.

    For a braid-family config, sample 0 evaluates the configured parameter
    values and samples 1..``samples`` evaluate fresh parameter draws
    (uniform on [-2, 2] over the canonical classes, thetas uniform on
    [-1, 1], composition points on [-0.9, 0.9]); any symmetry overrides in
    the config are applied to every draw so that negative controls stay in
    force.  Checks that cannot apply are skipped under suite "all"
    (unitarity in real mode, composition at odd side length) but surface
    as failed results when requested explicitly.  Errors raised inside a
    check become failed results instead of propagating.

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
    if isinstance(config, ReferenceConfig):
        return _run_reference_suite(config, suite, samples, seed, tol)
    params = config
    rng = np.random.Generator(np.random.Philox(seed))
    keys = canonical_keys(params.dim)
    run_braid = suite in ("braid", "all")
    run_unitarity = suite == "unitarity" or (
        suite == "all" and params.mode == "unitary"
    )
    run_fact = suite in ("factorization", "all")
    run_exp = suite in ("exponential", "all")
    run_comp = suite == "composition" or (suite == "all" and params.dim % 2 == 0)
    checks: list[CheckResult] = []
    if suite in ("projectors", "all"):
        checks.extend(projector_checks(params.dim))
        if params.dim % 2 == 0:
            checks.extend(reference_checks(params.dim // 2))
    # with no per-sample check selected (suite "projectors") nothing is drawn
    per_sample = run_braid or run_unitarity or run_fact or run_exp or run_comp
    for sample in range(samples + 1 if per_sample else 0):
        draws = rng.uniform(-2.0, 2.0, size=len(keys))
        theta, theta_prime = rng.uniform(-1.0, 1.0, size=2)
        z1, z2 = rng.uniform(-0.9, 0.9, size=2)
        if sample == 0:
            sampled = params
        else:
            sampled = make_parameters(
                params.dim,
                params.mode,
                dict(zip(keys, draws)),
                overrides=params.overrides,
            )
        family = BraidFamily.create(sampled)
        base_ctx = {"sample": sample, "parameter_digest": sampled.digest()}
        if run_braid:
            checks.append(
                _guarded(
                    check_braid, "braid", tol, base_ctx, family, theta, theta_prime
                )
            )
        if run_unitarity:
            result = _guarded(
                check_unitarity,
                "unitarity",
                tol * _UNITARITY_SCALE,
                base_ctx,
                family,
                theta,
            )
            checks.append(result)
            if "theta_reversal_residual" in result.context:
                checks.append(
                    CheckResult(
                        name="theta_reversal",
                        residual=result.context["theta_reversal_residual"],
                        tolerance=tol * _REVERSAL_SCALE,
                        context=dict(base_ctx, theta=theta),
                    )
                )
        if run_fact:
            checks.append(
                _guarded(
                    check_factorization,
                    "factorization",
                    tol * _FACTORIZATION_SCALE,
                    base_ctx,
                    family,
                    theta,
                    theta_prime,
                )
            )
        if run_exp:
            checks.append(
                _guarded(check_exponential, "exponential", tol, base_ctx, family, theta)
            )
        if run_comp:
            if params.dim % 2 == 0:
                checks.append(
                    _guarded(
                        check_composition_law,
                        "composition",
                        tol * _COMPOSITION_SCALE,
                        base_ctx,
                        params.dim // 2,
                        z1,
                        z2,
                    )
                )
            else:
                checks.append(
                    _failed(
                        "composition",
                        tol * _COMPOSITION_SCALE,
                        ConfigError(
                            "composition law needs an even side length "
                            f"(got N={params.dim})"
                        ),
                        **base_ctx,
                    )
                )
    checks.sort(key=lambda c: (c.name, c.context.get("sample", -1)))
    return VerificationReport(
        dim=params.dim,
        mode=params.mode,
        suite=suite,
        seed=seed,
        tolerance=tol,
        checks=tuple(checks),
    )


def _run_reference_suite(
    config: ReferenceConfig, suite: str, samples: int, seed: int, tol: float
) -> VerificationReport:
    if suite not in ("composition", "projectors", "all"):
        raise ConfigError(
            f"suite {suite!r} does not apply to the reference family; "
            "use 'composition', 'projectors', or 'all'"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    checks: list[CheckResult] = []
    if suite in ("projectors", "all"):
        checks.extend(projector_checks(2 * config.n))
        checks.extend(reference_checks(config.n))
    if suite in ("composition", "all"):
        for sample in range(samples + 1):
            z1, z2 = rng.uniform(-0.9, 0.9, size=2)
            ctx = {"sample": sample}
            checks.append(
                _guarded(
                    check_composition_law,
                    "composition",
                    tol * _COMPOSITION_SCALE,
                    ctx,
                    config.n,
                    z1,
                    z2,
                )
            )
    checks.sort(key=lambda c: (c.name, c.context.get("sample", -1)))
    return VerificationReport(
        dim=2 * config.n,
        mode="reference",
        suite=suite,
        seed=seed,
        tolerance=tol,
        checks=tuple(checks),
    )


def _guarded(func, name: str, tol: float, base_ctx: dict, *args) -> CheckResult:
    try:
        result = func(*args, tol=tol)
    except BraidmatError as exc:
        return _failed(name, tol, exc, **base_ctx)
    return CheckResult(
        name=result.name,
        residual=result.residual,
        tolerance=result.tolerance,
        context=dict(base_ctx, **result.context),
    )
