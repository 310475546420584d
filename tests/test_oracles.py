"""Independent oracles for the structured kernels and the projector builder.

``check_braid`` and the exchange half of ``check_exponential`` compare the
two triple products column by column on at most four slots of the
coefficient grids; ``check_unitarity``, ``check_factorization`` and the
build-vs-exp half of ``check_exponential`` multiply and exponentiate the
2x2 orbit blocks; ``projector_checks`` reads the projector algebra off
the two members of each mirror pair and the Hermitian check off the
weights; the reference family and its composition law live on 2x2 orbit
blocks; ``scan_products`` and ``exceptional_scan`` read the Schmidt data
off one column of an orbit block per state, ``detect_period`` compares
orbit blocks and ``make_parameters`` expands the canonical values by
index folding.  The dense computations they replace live on here as
oracles: the full N^3 x N^3 Kronecker products, dense N^2 x N^2 products,
adjoints and exponentials, the member-level products, including the
all-pairs orthogonality loop, the dense reference pair and matrix, the
SVD of every column of the dense matrix, and the per-cell
canonical-class loop.  They are compared with the structured
kernels on random draws, symmetry overrides, and negative controls, so
the fast paths never check themselves.  The slot kernels as they ran
before ``verify`` cached its per-N slot layout, and the exponential that
scaled every stack as one, pin the current kernels exactly: same bytes,
same residuals, same errors.

Every projector family member is built from its image vector and weight.
The per-kind index formulas of the paper (elementary half-terms, the
even-N pair projectors, the phased projectors, their image vectors, the
even-form pair sum and the phase-form reference matrix) are written out
here from the index data alone, never through the family builder, and
pin it.
"""

import math

import numpy as np
import pytest

from braidmat import (
    AccuracyError,
    BraidFamily,
    ConstructionError,
    DimensionError,
    DomainError,
    ProjectorFamily,
    canonical_keys,
    check_braid,
    check_composition_law,
    check_exponential,
    check_factorization,
    check_unitarity,
    degenerate_classes,
    make_parameters,
    matrix_exponential,
    normalized_residual,
    projector_checks,
    projector_family,
    reference_checks,
)
from braidmat import braid, verify
from braidmat.braid import (
    _pattern_matrix,
    block_grids,
    orbit_blocks,
    pattern_grids,
    reference_blocks,
)
from braidmat.entangle import RANK_TOL, detect_period, exceptional_scan, scan_products
from braidmat.linalg import MAX_EXP_NORM, as_matrix, kron, schmidt_coefficients
from braidmat.verify import PROJECTOR_TOL, exchange_residual

# Structured and dense residuals sum the same few products in another
# order; residuals are normalized to a scale of at least 1.
ORACLE_TOL = 8 * np.finfo(float).eps


def max_abs_diff(a, b):
    """Largest entrywise absolute difference between two matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.abs(a - b).max())


def mirror_index(i, dim):
    """Reflected index N+1-i (1-based); fixes the center of odd N."""
    if not 1 <= i <= dim:
        raise IndexError(f"index {i} out of range 1..{dim}")
    return dim + 1 - i


def dagger(a):
    """Dense conjugate transpose, the oracle for the block adjoint."""
    return np.ascontiguousarray(np.asarray(a).conj().T)


def members(family):
    """Each key of ``family`` with its dense member w_k v_k v_k^dagger,
    the row of member k scattered onto its mirror pair (r, N^2-1-r),
    r = k // 2 (added up where the pair is the odd-N centre)."""
    size = family.dim**2
    for k, key in enumerate(family.keys):
        v = np.zeros(size, dtype=family.vectors.dtype)
        v[size - 1 - k // 2] += family.vectors[k, 1]
        v[k // 2] += family.vectors[k, 0]
        yield key, family.weights[k] * np.outer(v, v.conj())


def parameter_grid(params):
    """The (2, N, N) exponent grid of ``params`` by the per-cell loop over
    the canonical class (min(i, i~), min(j, j~), eps) of every cell, the
    odd-N centre held at zero, then the overrides patched in."""
    dim = params.dim
    centre = (dim + 1) // 2 if dim % 2 else None
    grid = np.zeros((2, dim, dim))
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for row, epsilon in enumerate((+1, -1)):
                cls = (min(i, mirror_index(i, dim)), min(j, mirror_index(j, dim)))
                if cls != (centre, centre):
                    grid[row, i - 1, j - 1] = params.values[cls + (epsilon,)]
    for i, j, epsilon, value in params.overrides:
        grid[0 if epsilon == +1 else 1, i - 1, j - 1] = value
    return grid


def dense_generator(family):
    """The generator X as a dense N^2 x N^2 matrix."""
    return _pattern_matrix(*family.generator())


def dense_grids(matrix, dim):
    """(diagonal, antidiagonal) grids of a dense matrix in the pattern."""
    diag, anti, off_pattern = pattern_grids(matrix, dim)
    assert off_pattern == 0.0
    return diag, anti


def dense_exchange_residual(r_t, r_s, r_p, dim):
    """Residual of R12(t) R23(s) R12(t') vs R23(t') R12(s) R23(t) from
    dense Kronecker products on the N^3-dimensional triple space."""
    eye = np.eye(dim)
    lhs = kron(r_t, eye) @ kron(eye, r_s) @ kron(r_p, eye)
    rhs = kron(eye, r_p) @ kron(r_s, eye) @ kron(eye, r_t)
    return normalized_residual(lhs, rhs)


# The slot kernels as ``exchange_residual`` ran them before its per-N
# layout: every call rebuilds each slot view of every grid and the row of
# every slot.  They pin the cached layout exactly, not just to rounding.
SLOT_FLIPS = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
R12 = ((0, 1), [1, 0, 3, 2])
R23 = ((1, 2), [2, 3, 0, 1])


def on_slots(grid, axes):
    """grid evaluated at the ``axes`` indices of each slot's row, as a
    (4, N, N, N) broadcastable array over columns (p, q, r)."""
    flip = slice(None, None, -1)
    views = np.stack(
        [
            grid[tuple(flip if flips[k] else slice(None) for k in axes)]
            for flips in SLOT_FLIPS
        ]
    )
    return views[..., None] if axes == (0, 1) else views[:, None]


def triple_slots(word, dim):
    """Slot coefficients of every column of a product of R12/R23 factors;
    ``word`` lists ((axes, partner), (diag, anti)) rightmost matrix first."""
    dtype = np.result_type(*(g for _, grids in word for g in grids))
    slots = np.zeros((4, dim, dim, dim), dtype=dtype)
    slots[0] = 1.0
    for (axes, partner), (diag, anti) in word:
        slots = on_slots(diag, axes) * slots + on_slots(anti, axes) * slots[partner]
    return slots


def merge_coincident(slots, dim):
    """Fold slots that land on the same row of their column into the first
    of them (only at the self-mirrored centre of odd N)."""
    index = np.indices((dim, dim, dim))
    rows = [
        np.ravel_multi_index(
            tuple(np.where(f, dim - 1 - ix, ix) for f, ix in zip(flips, index)),
            (dim, dim, dim),
        )
        for flips in SLOT_FLIPS
    ]
    merged = slots.copy()
    for g in range(1, 4):
        for h in range(g):
            same = rows[g] == rows[h]
            merged[h] += np.where(same, merged[g], 0.0)
            merged[g] = np.where(same, 0.0, merged[g])
    return merged


def slot_exchange_residual(t, s, p):
    """``exchange_residual`` through the per-call slot kernels."""
    dim = len(t[0])
    lhs = triple_slots([(R12, p), (R23, s), (R12, t)], dim)
    rhs = triple_slots([(R23, t), (R12, s), (R23, p)], dim)
    if dim % 2:
        lhs, rhs = merge_coincident(lhs, dim), merge_coincident(rhs, dim)
    return normalized_residual(lhs, rhs)


def one_scaling_exponential(a, max_norm=MAX_EXP_NORM):
    """``matrix_exponential`` before grouping: any stack is scaled as one,
    by the largest 1-norm of its matrices."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise DimensionError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    norm = float(np.abs(a).sum(axis=-2).max())
    if norm > max_norm:
        raise AccuracyError(
            f"matrix 1-norm {norm:.3g} exceeds {max_norm:.3g}; "
            "accuracy is not guaranteed"
        )
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    eye = np.eye(a.shape[-1], dtype=np.result_type(a.dtype, np.float64))
    scaled = (a / (2.0 ** squarings)).astype(eye.dtype)
    out = np.broadcast_to(eye, a.shape).copy()
    for k in range(18, 0, -1):
        out = eye + (scaled @ out) / k
    for _ in range(squarings):
        out = out @ out
    if not np.isfinite(out).all():
        raise AccuracyError("matrix exponential overflowed")
    return out


def three_call_exponential_residuals(family, theta):
    """(build_vs_exp, exp_exchange) of ``check_exponential`` from one
    exponential call per angle, in the order theta, theta/2, 3 theta/2,
    with the build compared right after the first, and the slot kernels."""
    x = orbit_blocks(*family.generator())
    e_t = one_scaling_exponential(theta * x)
    direct = normalized_residual(orbit_blocks(*family.grids(theta)), e_t)
    half = theta / 2.0
    e_h = one_scaling_exponential(half * x)
    e_s = one_scaling_exponential((theta + half) * x)
    grids = (block_grids(e, family.dim) for e in (e_t, e_s, e_h))
    return direct, slot_exchange_residual(*grids)


def same_bytes(a, b):
    """Equal shape, dtype and bytes (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def pairwise_orthogonality(members):
    """Largest entry of a @ b over all ordered pairs of distinct members."""
    orth = 0.0
    for a_idx, a in enumerate(members):
        for b_idx, b in enumerate(members):
            if a_idx != b_idx:
                orth = max(orth, float(np.abs(a @ b).max()))
    return orth


def member_level_residuals(family):
    """The four projector residuals of ``family`` from its dense members:
    m @ m against m, a @ b over distinct pairs, the member sum against
    the identity, and trace(m) against 1."""
    dense = [m for _, m in members(family)]
    return {
        "projectors_idempotent": max(float(np.abs(m @ m - m).max()) for m in dense),
        "projectors_orthogonal": pairwise_orthogonality(dense),
        "projectors_complete": float(
            np.abs(sum(dense) - np.eye(family.dim**2)).max()
        ),
        "projectors_unit_trace": max(
            abs(complex(np.trace(m)) - 1.0) for m in dense
        ),
    }


def checked_residuals(monkeypatch, family):
    """``projector_checks`` residuals by name, with ``family`` standing in
    for the library family of its kind."""
    original = verify.projector_family
    monkeypatch.setattr(
        verify,
        "projector_family",
        lambda d, k: family if k == family.kind else original(d, k),
    )
    return {
        c["name"]: c["residual"]
        for c in projector_checks(family.dim)
        if c["context"]["kind"] == family.kind
    }


def random_family(dim, mode, rng, overrides=0, centre=False):
    """Random canonical values, plus ``overrides`` random raw grid patches
    (any index, the odd-N centre included) that break mirror symmetry, and
    with ``centre`` one more patch on the odd-N centre."""
    keys = canonical_keys(dim)
    values = dict(zip(keys, rng.uniform(-2, 2, len(keys))))
    patches = tuple(
        (
            int(rng.integers(1, dim + 1)),
            int(rng.integers(1, dim + 1)),
            int(rng.choice([1, -1])),
            float(rng.uniform(-2, 2)),
        )
        for _ in range(overrides)
    )
    if centre:
        mid = (dim + 1) // 2
        patches += ((mid, mid, int(rng.choice([1, -1])), float(rng.uniform(-2, 2))),)
    return BraidFamily.create(make_parameters(dim, mode, values, overrides=patches))


def decoupled(family):
    """Negative control: shift the (1, N, +) entry away from its orbit."""
    shifted = family.value(1, 1, +1) + 1.0
    p = family
    overrides = p.overrides + ((1, family.dim, +1, shifted),)
    return BraidFamily.create(
        make_parameters(p.dim, p.mode, p.values, overrides=overrides)
    )


def positions(i, j, dim):
    """0-based positions of |i,j> and its mirror |N+1-i, N+1-j>."""
    return (i - 1) * dim + (j - 1), (dim - i) * dim + (dim - j)


def braid_term(i, j, epsilon, dim):
    """Elementary half-term (|i,j><i,j| + eps |i,j><i~,j~|) / 2.

    Not a projector itself; summed over both signs and all i, j it gives
    the identity, summed over a mirror orbit at fixed sign a projector.
    """
    r, c = positions(i, j, dim)
    m = np.zeros((dim * dim, dim * dim))
    m[r, r] += 0.5
    m[r, c] += 0.5 * epsilon
    return m


def orbit_sum(i, j, epsilon, dim):
    """The "unified" member (i, j, eps): the half-terms of the mirror orbit
    of (i, j) at sign eps, or of both signs at the odd-N centre."""
    mi, mj = dim + 1 - i, dim + 1 - j
    if (i, j) == (mi, mj):
        return braid_term(i, j, +1, dim) + braid_term(i, j, -1, dim)
    return braid_term(i, j, epsilon, dim) + braid_term(mi, mj, epsilon, dim)


def pair_projector(i, j, epsilon, n):
    """Projector onto (|i,j> + eps |i~,j~>)/sqrt(2) for N = 2n: real
    symmetric, entries 0 and 1/2."""
    dim = 2 * n
    r, c = positions(i, j, dim)
    m = np.zeros((dim * dim, dim * dim))
    m[r, r] = 0.5
    m[c, c] = 0.5
    m[r, c] = 0.5 * epsilon
    m[c, r] = 0.5 * epsilon
    return m


def phased_projector(i, j, epsilon, n):
    """(|i,j><i,j| + |i~,j~><i~,j~|)/2 plus the antisymmetric coupling
    eps*i*(-1)^j~ (|i,j><i~,j~| - |i~,j~><i,j|)/2 for N = 2n, with j~ the
    mirrored column index evaluated 1-based."""
    dim = 2 * n
    r, c = positions(i, j, dim)
    coupling = epsilon * 1j * (-1.0) ** (dim + 1 - j)
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    m[r, r] = 0.5
    m[c, c] = 0.5
    m[r, c] = 0.5 * coupling
    m[c, r] = -0.5 * coupling
    return m


def image_vector(dim, kind, key):
    """Unit vector spanning the image of the family member ``key``."""
    i, j, epsilon = key
    r, c = positions(i, j, dim)
    if kind == "Q":
        v = np.zeros(dim * dim, dtype=complex)
        v[r] = 1.0
        v[c] = -epsilon * 1j * (-1.0) ** (dim + 1 - j)
        return v / np.sqrt(2.0)
    v = np.zeros(dim * dim)
    if r == c:  # self-mirrored centre of odd N
        v[r] = 1.0
        return v
    v[r] = 1.0
    v[c] = float(epsilon)
    return v / np.sqrt(2.0)


def even_form_matrix(family, theta):
    """Braid matrix of a symmetric even-N family as the paper's sum of
    exp(m(i,j,s) theta) times the pair projectors (i,j,s) + (i,j~,s) over
    i, j up to n."""
    dim = family.dim
    n = dim // 2
    size = dim * dim
    dtype = float if family.mode == "real" else complex
    out = np.zeros((size, size), dtype=dtype)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for epsilon in (+1, -1):
                pair = pair_projector(i, j, epsilon, n) + pair_projector(
                    i, dim + 1 - j, epsilon, n
                )
                m = family.value(i, j, epsilon)
                if family.mode == "real":
                    out = out + np.exp(m * theta) * pair
                else:
                    out = out + np.exp(1j * m * theta) * pair
    return out


def reference_projectors(n):
    """Dense complementary pair (plus, minus) of the reference family on
    N = 2n, the phased projectors summed over each sign, and its real
    rotation generator -i (plus - minus)."""
    size = (2 * n) ** 2
    plus = np.zeros((size, size), dtype=complex)
    minus = np.zeros((size, size), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, 2 * n + 1):
            plus = plus + phased_projector(i, j, +1, n)
            minus = minus + phased_projector(i, j, -1, n)
    return plus, minus, np.ascontiguousarray((-1j * (plus - minus)).real)


def reference_matrix(n, z):
    """Dense linear-form reference braid matrix I + z * rotation generator."""
    if not np.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    rot = reference_projectors(n)[2]
    return np.eye(rot.shape[0]) + z * rot


def dense_reference_residuals(n):
    """The reference self-check residuals from the dense pair, as
    ``reference_checks`` reports them (pair, generator)."""
    plus, minus, rot = reference_projectors(n)
    eye = np.eye(plus.shape[0])
    pair = max(
        max_abs_diff(plus @ plus, plus),
        max_abs_diff(minus @ minus, minus),
        float(np.abs(plus @ minus).max()),
        max_abs_diff(plus + minus, eye),
    )
    generator = max(
        float(np.abs((-1j * (plus - minus)).imag).max()),
        max_abs_diff(rot @ rot, -eye),
    )
    return [pair, generator]


def dense_composition_residual(n, z1, z2):
    """Composition residual of ``check_composition_law`` from dense
    reference matrices."""
    scalar = 1.0 - z1 * z2
    product = reference_matrix(n, z1) @ reference_matrix(n, z2)
    return normalized_residual(
        product, scalar * reference_matrix(n, (z1 + z2) / scalar)
    )


def reference_phase_matrix(n, z):
    """Phase form of the reference family: conjugate unit phases, principal
    branch of ((1 - iz)/(1 + iz))^(1/2), on the sign sums of the phased
    projectors."""
    plus, minus, _ = reference_projectors(n)
    phase = np.sqrt((1.0 - 1j * z) / (1.0 + 1j * z))
    return phase * plus + np.conjugate(phase) * minus


# ------------------------------------------------------------ triple products


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_structured_exchange_matches_dense_oracle(dim, mode):
    rng = np.random.default_rng(1000 * dim + len(mode))
    for overrides in (0, 0, 1, 2, 3, 3):
        family = random_family(dim, mode, rng, overrides)
        theta, theta_prime = rng.uniform(-1, 1, 2)
        braid = check_braid(family, theta, theta_prime)
        expected = dense_exchange_residual(
            family.matrix(theta),
            family.matrix(theta + theta_prime),
            family.matrix(theta_prime),
            dim,
        )
        assert abs(braid["residual"] - expected) <= ORACLE_TOL
        assert braid["passed"] == (expected <= braid["tolerance"])
        assert braid["residual"] == slot_exchange_residual(
            *(family.grids(x) for x in (theta, theta + theta_prime, theta_prime))
        )

        exponential = check_exponential(family, theta)
        x = dense_generator(family)
        e_t, e_h, e_s = (
            matrix_exponential(c * x) for c in (theta, theta / 2, 1.5 * theta)
        )
        expected = dense_exchange_residual(e_t, e_s, e_h, dim)
        structured = exponential["context"]["exp_exchange_residual"]
        assert abs(structured - expected) <= ORACLE_TOL
        if overrides == 0:
            assert braid["passed"] and exponential["passed"]


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_negative_controls_fail_structured_and_dense(dim, mode):
    family = decoupled(random_family(dim, mode, np.random.default_rng(dim)))
    theta, theta_prime = 0.63, -0.41
    structured = check_braid(family, theta, theta_prime)
    dense = dense_exchange_residual(
        family.matrix(theta),
        family.matrix(theta + theta_prime),
        family.matrix(theta_prime),
        dim,
    )
    assert not structured["passed"]
    assert dense > structured["tolerance"]
    assert abs(structured["residual"] - dense) <= ORACLE_TOL

    x = dense_generator(family)
    exps = [matrix_exponential(c * x) for c in (theta, 1.5 * theta, theta / 2)]
    assert exchange_residual(*(dense_grids(e, dim) for e in exps)) > 1e-6
    dense = dense_exchange_residual(*exps, dim)
    assert dense > 1e-6
    exponential = check_exponential(family, theta)
    assert not exponential["passed"]
    assert abs(exponential["context"]["exp_exchange_residual"] - dense) <= ORACLE_TOL


def test_built_matrices_lie_exactly_in_the_pattern():
    # the checks read the grids only, so every entry of ``matrix`` off
    # the diagonal/antidiagonal pattern must be exactly zero
    rng = np.random.default_rng(3000)
    for dim in (2, 3, 4, 5, 6, 7):
        for mode in ("real", "unitary"):
            for overrides in (0, 1, 2, 3):
                family = random_family(dim, mode, rng, overrides, overrides == 3)
                built = family.matrix(rng.uniform(-1, 1))
                diag, anti, off_pattern = pattern_grids(built, dim)
                assert off_pattern == 0.0
                assert np.array_equal(_pattern_matrix(diag, anti), built)


# ------------------------------------------------------------ orbit blocks


def dense_block_residuals(family, theta, theta2):
    """Unitarity, theta reversal, factorization and build-vs-exp residuals
    from dense N^2 x N^2 products, adjoints and exponentials."""
    r = family.matrix
    eye = np.eye(family.dim**2)
    residuals = {
        "plus_residual": normalized_residual(r(theta + theta2), r(theta) @ r(theta2)),
        "minus_residual": normalized_residual(
            r(theta - theta2), r(theta) @ r(-theta2)
        ),
        "inverse_residual": normalized_residual(r(theta2) @ r(-theta2), eye),
        "build_vs_exp_residual": normalized_residual(
            r(theta), matrix_exponential(theta * dense_generator(family))
        ),
    }
    if family.mode == "unitary":
        residuals["unitarity"] = normalized_residual(dagger(r(theta)) @ r(theta), eye)
        residuals["theta_reversal_residual"] = max_abs_diff(
            dagger(r(theta)), r(-theta)
        )
    return residuals


def block_residuals(family, theta, theta2):
    """The same residuals as ``dense_block_residuals``, from the checks."""
    fact = check_factorization(family, theta, theta2)
    exponential = check_exponential(family, theta)
    residuals = {
        name: fact["context"][name]
        for name in ("plus_residual", "minus_residual", "inverse_residual")
    }
    residuals["build_vs_exp_residual"] = exponential["context"]["build_vs_exp_residual"]
    if family.mode == "unitary":
        unitarity = check_unitarity(family, theta)
        residuals["unitarity"] = unitarity["residual"]
        residuals["theta_reversal_residual"] = unitarity["context"][
            "theta_reversal_residual"
        ]
    return residuals


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_block_checks_match_dense_oracles(dim, mode):
    rng = np.random.default_rng(2000 * dim + len(mode))
    for overrides, centre in ((0, False), (0, False), (1, False), (2, True), (3, True)):
        family = random_family(dim, mode, rng, overrides, centre)
        theta, theta2 = rng.uniform(-1, 1, 2)
        dense = dense_block_residuals(family, theta, theta2)
        blocks = block_residuals(family, theta, theta2)
        assert blocks.keys() == dense.keys()
        for name, expected in dense.items():
            assert abs(blocks[name] - expected) <= ORACLE_TOL, name
        # the adjoint reads the same entries: exact, not just close
        if mode == "unitary":
            assert blocks["theta_reversal_residual"] == dense["theta_reversal_residual"]


# ------------------------------------------------------------ projectors


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_gram_residuals_match_the_member_level_oracle(dim):
    # the pair-level residuals of projector_checks (once read off a Gram
    # matrix, hence the name) against the dense member-level products
    results = projector_checks(dim)
    for kind in {c["context"]["kind"] for c in results}:
        expected = member_level_residuals(verify.projector_family(dim, kind))
        for c in results:
            if c["context"]["kind"] == kind and c["name"] in expected:
                assert c["residual"] == expected[c["name"]]
    assert all(c["residual"] == 0.0 for c in results)


@pytest.mark.parametrize("kind", ["unified", "Q"])
def test_overlapping_member_fails_pruned_and_pairwise(monkeypatch, kind):
    clean = verify.projector_family(4, kind)
    # members 0 and 1 share a mirror pair: make them the same projector.
    # Members of different pairs cannot overlap, the layout forbids it.
    vectors = clean.vectors.copy()
    vectors[1] = vectors[0]
    broken = ProjectorFamily(4, kind, clean.keys, vectors, clean.weights)
    expected = member_level_residuals(broken)
    assert expected["projectors_orthogonal"] > PROJECTOR_TOL
    assert expected["projectors_complete"] > PROJECTOR_TOL
    got = checked_residuals(monkeypatch, broken)
    assert {name: got[name] for name in expected} == expected


def test_complex_weight_fails_closed_form_and_member_hermitian_check(monkeypatch):
    clean = verify.projector_family(4, "Q")
    weights = clean.weights.astype(complex)
    weights[3] = 0.5 + 0.25j
    broken = ProjectorFamily(4, "Q", clean.keys, clean.vectors, weights)
    oracle = max(float(np.abs(m - dagger(m)).max()) for _, m in members(broken))
    assert oracle > PROJECTOR_TOL
    assert checked_residuals(monkeypatch, broken)["projectors_hermitian"] == 0.5
    assert abs(oracle - 0.5) <= ORACLE_TOL


@pytest.mark.parametrize("kind", ["unified", "Q"])
def test_wrong_weight_fails_gram_and_member_checks(monkeypatch, kind):
    clean = verify.projector_family(4, kind)
    weights = clean.weights.copy()
    assert weights[0] == 0.5  # a pair member
    weights[0] = 1.0
    broken = ProjectorFamily(4, kind, clean.keys, clean.vectors, weights)
    expected = member_level_residuals(broken)
    got = checked_residuals(monkeypatch, broken)
    assert expected["projectors_idempotent"] > PROJECTOR_TOL
    assert expected["projectors_unit_trace"] > PROJECTOR_TOL
    assert {name: got[name] for name in expected} == expected


@pytest.mark.parametrize("dim", [3, 5])
def test_wrong_centre_weight_fails_block_and_member_checks(monkeypatch, dim):
    clean = verify.projector_family(dim, "unified")
    weights = clean.weights.copy()
    assert weights[-1] == 1.0  # the odd-N centre, alone on its position
    weights[-1] = 0.5
    broken = ProjectorFamily(dim, "unified", clean.keys, clean.vectors, weights)
    expected = member_level_residuals(broken)
    assert expected["projectors_complete"] == 0.5
    assert {name: checked_residuals(monkeypatch, broken)[name] for name in expected} == expected


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_members_match_the_index_formulas(dim):
    unified = projector_family(dim, "unified")
    assert len(unified) == dim * dim
    for key, member in members(unified):
        expected = orbit_sum(*key, dim)
        assert member.dtype == expected.dtype == np.float64
        assert np.array_equal(member, expected)
    if dim % 2 == 0:
        phased = projector_family(dim, "Q")
        assert len(phased) == dim * dim
        for key, member in members(phased):
            expected = phased_projector(*key, dim // 2)
            assert member.dtype == expected.dtype == np.complex128
            assert np.array_equal(member, expected)


def test_member_rows_sit_on_their_mirror_pairs():
    for dim in (2, 3, 4, 5):
        for kind in ["unified"] + (["Q"] if dim % 2 == 0 else []):
            fam = projector_family(dim, kind)
            assert fam.vectors.shape == (dim * dim, 2)
            assert not fam.vectors.flags.writeable
            for k, key in enumerate(fam.keys):
                r, mirror = positions(key.i, key.j, dim)
                assert (r, mirror) == (k // 2, dim * dim - 1 - k // 2)
                assert fam.vectors[k, 0] == 1.0
                assert abs(fam.vectors[k, 1]) == (0.0 if r == mirror else 1.0)


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
def test_pair_family_equals_unified(dim):
    """The paper's even-N pair family, indexed i in 1..n, j in 1..2n, is the
    "unified" family: same keys, same order, same members."""
    n = dim // 2
    pairs = [
        ((i, j, epsilon), pair_projector(i, j, epsilon, n))
        for i in range(1, n + 1)
        for j in range(1, dim + 1)
        for epsilon in (+1, -1)
    ]
    unified = projector_family(dim, "unified")
    assert list(unified.keys) == [key for key, _ in pairs]
    for (key, expected), (_, member) in zip(pairs, members(unified)):
        assert member.dtype == expected.dtype
        assert np.array_equal(member, expected)


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_even_form_sum_equals_matrix_from_basis(dim, mode):
    family = random_family(dim, mode, np.random.default_rng(60 + dim))
    for theta in (-0.57, 0.83):
        expected = even_form_matrix(family, theta)
        got = family.matrix_from_basis(theta)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


# ------------------------------------------------------------ reference family


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reference_blocks_match_the_dense_oracle(n):
    size = (2 * n) ** 2
    pairs = [(r, size - 1 - r) for r in range(size // 2)]
    rng = np.random.default_rng(5000 + n)
    for z in (0.0, *rng.uniform(-2, 2, 3)):
        dense = reference_matrix(n, z)
        blocks = reference_blocks(n, z)
        assert blocks.shape == (size // 2, 2, 2)
        assert np.array_equal(
            blocks, np.stack([dense[np.ix_(pair, pair)] for pair in pairs])
        )
    assert [c["residual"] for c in reference_checks(n)] == dense_reference_residuals(n)
    for z1, z2 in rng.uniform(-0.9, 0.9, (5, 2)):
        block = check_composition_law(n, z1, z2)["residual"]
        assert abs(block - dense_composition_residual(n, z1, z2)) <= ORACLE_TOL


def test_coupled_phased_pair_fails_the_reference_regrouping(monkeypatch):
    clean = projector_family(4, "Q")
    # the minus member of pair 0 becomes its plus member
    vectors = clean.vectors.copy()
    vectors[1] = vectors[0]
    broken = ProjectorFamily(4, "Q", clean.keys, vectors, clean.weights)
    dense = [m for _, m in members(broken)]
    plus, minus = sum(dense[::2]), sum(dense[1::2])
    rot = -1j * (plus - minus)
    eye = np.eye(16)
    residuals = {
        "plus idempotent": max_abs_diff(plus @ plus, plus),
        "minus idempotent": max_abs_diff(minus @ minus, minus),
        "orthogonal": float(np.abs(plus @ minus).max()),
        "complete": max_abs_diff(plus + minus, eye),
        "generator real": float(np.abs(rot.imag).max()),
        "generator squares to -I": max_abs_diff(rot @ rot, -eye),
    }
    bad = {name: value for name, value in residuals.items() if value > 1e-13}
    assert list(bad) == ["orthogonal", "complete", "generator squares to -I"]
    monkeypatch.setattr(braid, "projector_family", lambda dim, kind: broken)
    with pytest.raises(ConstructionError) as failure:
        braid._reference_regrouping.__wrapped__(2)
    assert str(failure.value) == f"reference regrouping failed checks: {bad}"


# ------------------------------------------------------------ parameters


@pytest.mark.parametrize("dim", range(2, 18))
def test_make_parameters_matches_the_per_cell_loop(dim):
    rng = np.random.default_rng(6000 + dim)
    for overrides, centre in ((0, False), (2, False), (1, True)):
        params = random_family(dim, "real", rng, overrides, centre)
        assert np.array_equal(params.exponents, parameter_grid(params))
        assert params.exponents.tobytes() == parameter_grid(params).tobytes()


# ------------------------------------------------------------ entanglement


def dense_exceptional(family, theta, tol=1e-8):
    """Columns of the dense matrix with exactly one entry above ``tol``."""
    matrix = family.matrix(theta)
    dim = family.dim
    return [
        (a, b)
        for a in range(1, dim + 1)
        for b in range(1, dim + 1)
        if int((np.abs(matrix[:, (a - 1) * dim + (b - 1)]) > tol).sum()) == 1
    ]


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_exceptional_scan_matches_the_dense_columns(dim):
    rng = np.random.default_rng(7000 + dim)
    for overrides, centre in ((0, False), (2, False), (2, True)):
        family = random_family(dim, "unitary", rng, overrides, centre)
        for theta in (0.0, rng.uniform(-1, 1), np.pi / 2):
            for tol in (1e-8, 0.5, 0.9):
                expected = dense_exceptional(family, theta, tol)
                assert exceptional_scan(family, theta, tol) == expected
    # with a centre override the centre's two grid entries are both far
    # from zero, yet its column holds the one entry d + a = exp(i m+ theta)
    if dim % 2:
        mid = (dim + 1) // 2
        params = make_parameters(dim, "unitary", {}, overrides=((mid, mid, +1, 1.0),))
        family = BraidFamily.create(params)
        diag, anti = family.grids(1.0)
        assert min(abs(diag[mid - 1, mid - 1]), abs(anti[mid - 1, mid - 1])) > 0.4
        assert (mid, mid) in exceptional_scan(family, 1.0)
        assert exceptional_scan(family, 1.0) == dense_exceptional(family, 1.0)


# LAPACK's singular values of a dense column are themselves off by up to
# 2.5 eps (5.6e-16 over about 17000 random records at N <= 9), while the
# closed form is |d|, |e| or hypot(|d|, |e|) to about an ulp.  The entropy
# moves by up to 2 / ln 2 times the error of each value.
SCHMIDT_TOL = 4 * np.finfo(float).eps
ENTROPY_TOL = 12 * np.finfo(float).eps


def dense_records(family, theta):
    """(a, b, singular values, entropy, Schmidt rank) of every column of
    the dense matrix, from the SVD of its N x N reshaping.  The entropy is
    clamped at zero: under symmetry overrides the squares of a column's
    values need not sum to one."""
    matrix = family.matrix(theta)
    dim = family.dim
    for col in range(dim * dim):
        values = schmidt_coefficients(matrix[:, col], dim, dim)
        probs = values**2
        probs = probs[probs > 0]
        entropy = max(float(-(probs * np.log2(probs)).sum()), 0.0)
        a, b = divmod(col, dim)
        yield a + 1, b + 1, values, entropy, int((values > RANK_TOL).sum())


def assert_scan_matches_the_dense_svd(family, theta):
    records = scan_products(family, theta)
    expected = list(dense_records(family, theta))
    assert len(records) == len(expected)
    for record, (a, b, values, entropy, rank) in zip(records, expected):
        assert (record["a"], record["b"], record["schmidt_rank"]) == (a, b, rank)
        # the image lies in a two-dimensional plane: the two largest dense
        # values are the record's, and every other one is a structural zero
        assert len(record["singular_values"]) == 2
        assert np.abs(np.subtract(record["singular_values"], values[:2])).max() <= SCHMIDT_TOL
        assert np.all(values[2:] <= SCHMIDT_TOL)
        assert abs(record["entropy"] - entropy) <= ENTROPY_TOL
    assert exceptional_scan(family, theta) == dense_exceptional(family, theta)


@pytest.mark.parametrize("dim", range(2, 10))
def test_scan_products_matches_the_dense_svd(dim):
    rng = np.random.default_rng(9000 + dim)
    # with centre=True the odd-N centre's d and a differ from d + a
    for overrides, centre in ((0, False), (2, False), (0, True), (2, True)):
        family = random_family(dim, "unitary", rng, overrides, centre)
        for theta in (0.0, rng.uniform(-1, 1), 0.9):
            assert_scan_matches_the_dense_svd(family, theta)
        assert len(exceptional_scan(family, 0.0)) == dim * dim
    # class (1, 1) degenerate: d * theta = pi swaps its states with their
    # mirrors, d * theta = 2 pi conserves them
    theta = 0.8
    for multiple, kind in ((1, "swapped"), (2, "conserved")):
        keys = canonical_keys(dim)
        values = dict(zip(keys, rng.uniform(-2, 2, len(keys))))
        values[(1, 1, +1)] = values[(1, 1, -1)] + multiple * math.pi / theta
        params = make_parameters(dim, "unitary", values)
        assert ((1, 1), kind) in degenerate_classes(params, theta)
        family = BraidFamily.create(params)
        assert_scan_matches_the_dense_svd(family, theta)
        assert (1, dim) in exceptional_scan(family, theta)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_period_residuals_match_the_dense_matrices(dim):
    rng = np.random.default_rng(8000 + dim)
    keys = canonical_keys(dim)
    values = {key: f"{rng.integers(-6, 7)}/{rng.integers(1, 4)}" for key in keys}
    params = make_parameters(dim, "unitary", values)
    result = detect_period(params)
    family = BraidFamily.create(params)
    expected = tuple(
        float(np.abs(family.matrix(t + result.period) - family.matrix(t)).max())
        for t in (0.37, 1.51)
    )
    assert result.verification_residuals == expected


# ------------------------------------------------------------ exponential


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_stacked_exponential_matches_the_dense_one(dim, mode):
    rng = np.random.default_rng(4000 + dim)
    for overrides, centre in ((0, False), (2, True)):
        family = random_family(dim, mode, rng, overrides, centre)
        x = dense_generator(family)
        for theta in rng.uniform(-1, 1, 3):
            expected = matrix_exponential(theta * x)
            got = matrix_exponential(theta * orbit_blocks(*family.generator()))
            dense_blocks = orbit_blocks(*dense_grids(expected, dim))
            assert got.shape == dense_blocks.shape
            assert normalized_residual(got, dense_blocks) <= ORACLE_TOL
    # a stack of unrelated matrices: one scaling, each member close to
    # its own 2-D exponential
    stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    stack[0] *= 5.0
    for got, a in zip(matrix_exponential(stack), stack):
        expected = matrix_exponential(a)
        assert normalized_residual(got, expected) <= 1e-12


@pytest.mark.parametrize("norm", [0.1, 0.5, 1.0, 5.0, 20.0, 50.0, 0.999 * MAX_EXP_NORM])
def test_matrix_exponential_matches_scipy_expm(norm):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(int(norm * 1000))
    h = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    generator = dense_generator(random_family(4, "unitary", rng))
    for a in (rng.standard_normal((9, 9)), h, h - h.conj().T, generator):
        a = a * (norm / np.abs(a).sum(axis=0).max())
        expected = linalg.expm(a)
        error = np.abs(matrix_exponential(a) - expected).max()
        assert error / max(1.0, np.abs(expected).max()) <= 1e-12


def with_norm(a, norm):
    """``a`` scaled so that the largest 1-norm of its matrices is ``norm``."""
    return a * (norm / np.abs(a).sum(axis=-2).max())


def first_error(call, *args):
    """(type, message) of what ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("dtype", [float, complex])
def test_grouped_exponential_equals_separate_stack_calls(dtype):
    rng = np.random.default_rng(4100)
    groups = rng.standard_normal((5, 6, 3, 3)).astype(dtype)
    if dtype is complex:
        groups += 1j * rng.standard_normal(groups.shape)
    # no squaring, an all-zero group, then one, four and eight squarings
    norms = (0.3, 0.0, 0.9, 7.5, 99.0)
    groups = np.stack([with_norm(g, n) if n else 0.0 * g for g, n in zip(groups, norms)])
    got = matrix_exponential(groups)
    assert got.shape == groups.shape
    for stack, out in zip(groups, got):
        assert same_bytes(out, matrix_exponential(stack))
        assert same_bytes(out, one_scaling_exponential(stack))
    assert same_bytes(got[1], np.broadcast_to(np.eye(3), (6, 3, 3)).astype(dtype))


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_grouped_generator_exponentials_equal_the_three_calls(dim, mode):
    rng = np.random.default_rng(4200 + dim)
    family = random_family(dim, mode, rng, 1, dim % 2 == 1)
    x = orbit_blocks(*family.generator())
    for theta in (*rng.uniform(-1, 1, 3), 0.0, -7.0):
        half = theta / 2.0
        coefficients = (theta, half, theta + half)
        got = matrix_exponential(np.stack([c * x for c in coefficients]))
        for c, out in zip(coefficients, got):
            assert same_bytes(out, one_scaling_exponential(c * x))


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (9, 9), (7, 2, 2), (4, 5, 5)])
@pytest.mark.parametrize("norm", [0.0, 0.2, 0.5, 3.0, 60.0, 0.999 * MAX_EXP_NORM])
def test_matrix_and_stack_exponentials_are_unchanged(shape, norm):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1] + int(norm))
    real = rng.standard_normal(shape)
    for a in (real, real + 1j * rng.standard_normal(shape)):
        a = with_norm(a, norm) if norm else 0.0 * a
        assert same_bytes(matrix_exponential(a), one_scaling_exponential(a))


@pytest.mark.parametrize(
    "norms",
    [
        (1.0, 150.0, 120.0),  # two over the cap: the first one is named
        (120.0, 150.0, 1.0),
        (1.0, math.inf, 150.0),  # non-finite before over the cap
        (1.0, 150.0, math.nan),  # over the cap before non-finite
        (math.nan, 1.0, 1.0),
    ],
)
def test_grouped_exponential_raises_what_the_first_bad_call_raised(norms):
    # a stack of two matrices whose entries all equal n: 1-norm 2n
    groups = np.stack([np.full((2, 2, 2), n) for n in norms])
    expected = next(
        e for e in (first_error(one_scaling_exponential, g) for g in groups) if e
    )
    assert first_error(matrix_exponential, groups) == expected


def declared_message_change(family, theta):
    """The one case whose error message differs from the three calls'
    sequence: in real mode, exp(theta X) succeeds, building R(theta) hits
    the |theta| > 50 guard, and exp(3 theta/2 X) is over the norm cap,
    which the single grouped call now reports first."""
    x = orbit_blocks(*family.generator())
    norm_t, norm_s = (
        float(np.abs(c * x).sum(axis=-2).max()) for c in (theta, theta + theta / 2.0)
    )
    return (
        family.mode == "real"
        and abs(theta) > 50
        and norm_t <= MAX_EXP_NORM < norm_s
    )


@pytest.mark.parametrize("mode", ["real", "unitary"])
@pytest.mark.parametrize("scale", [0.01, 0.6, 1.0, 40.0, 1e300])
@pytest.mark.parametrize(
    "theta", [0.3, -2.0, 40.0, 60.0, -75.0, 1e308, math.inf, -math.inf, math.nan]
)
def test_check_exponential_raises_as_the_three_calls_did(mode, scale, theta):
    dim = 3
    keys = canonical_keys(dim)
    rng = np.random.default_rng(4300)
    values = dict(zip(keys, scale * rng.uniform(0.5, 2, len(keys))))
    family = BraidFamily.create(make_parameters(dim, mode, values))
    # overflow to inf is part of the inputs here: compare the errors the
    # library raises, not numpy's floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        expected = first_error(three_call_exponential_residuals, family, theta)
        got = first_error(check_exponential, family, theta)
        declared = declared_message_change(family, theta)
    if expected is None:
        assert got is None
        check = check_exponential(family, theta)
        direct, exchange = three_call_exponential_residuals(family, theta)
        assert check["context"]["build_vs_exp_residual"] == direct
        assert check["context"]["exp_exchange_residual"] == exchange
    elif declared:
        assert got[0] is expected[0] is AccuracyError
        assert "exceeds 50.0 in real mode" in expected[1]
        assert got[1].startswith("matrix 1-norm ")
    else:
        assert got == expected


def test_declared_message_change_is_pinned():
    # generator blocks of 1-norm 1.5: at theta = 60 the 1-norm is 90 for
    # theta and 135 for 3 theta / 2
    params = make_parameters(2, "real", {(1, 1, +1): 1.5, (1, 1, -1): 1.5})
    family = BraidFamily.create(params)
    assert declared_message_change(family, 60.0)
    assert first_error(three_call_exponential_residuals, family, 60.0) == (
        AccuracyError,
        "|theta| = 60 exceeds 50.0 in real mode (overflow guard)",
    )
    assert first_error(check_exponential, family, 60.0) == (
        AccuracyError,
        "matrix 1-norm 135 exceeds 100; accuracy is not guaranteed",
    )
