import math
from fractions import Fraction

import numpy as np
import pytest

import braidmat
from braidmat import (
    AccuracyError,
    BraidFamily,
    ConfigError,
    DomainError,
    block_structure,
    canonical_keys,
    check_composition_law,
    make_parameters,
    matrix_exponential,
)
from braidmat import braid
from braidmat.braid import reference_blocks
from test_oracles import (
    dagger,
    dense_generator,
    even_form_matrix,
    max_abs_diff,
    members,
    reference_matrix,
    reference_phase_matrix,
    reference_projectors,
)

PATH_TOL = 1e-14


def random_params(dim, mode, seed, low=-2.0, high=2.0):
    rng = np.random.default_rng(seed)
    keys = canonical_keys(dim)
    return make_parameters(dim, mode, dict(zip(keys, rng.uniform(low, high, len(keys)))))


def coeffs(m_plus, m_minus, theta, unitary=False):
    scale = 1j if unitary else 1.0
    ep = np.exp(scale * m_plus * theta)
    em = np.exp(scale * m_minus * theta)
    return 0.5 * (ep + em), 0.5 * (ep - em)


# ------------------------------------------------------------ parameters


def test_free_parameter_counts():
    for dim in range(2, 10):
        expected = dim * dim // 2 if dim % 2 == 0 else (dim + 3) * (dim - 1) // 2
        assert len(canonical_keys(dim)) == expected


def test_two_free_parameters_at_dim_two():
    params = make_parameters(2, "real", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    assert len(params.values) == 2
    # every mirror image carries the class value
    for i in (1, 2):
        for j in (1, 2):
            assert params.value(i, j, +1) == 1.0
            assert params.value(i, j, -1) == -1.0


def test_six_free_parameters_at_dim_three():
    values = {
        (1, 1, +1): 0.3,
        (1, 1, -1): -0.4,
        (1, 2, +1): 0.5,
        (1, 2, -1): 0.6,
        (2, 1, +1): 0.7,
        (2, 1, -1): 0.8,
    }
    params = make_parameters(3, "unitary", values)
    assert len(params.values) == 6
    assert params.value(2, 2, +1) == 0.0  # pinned central class
    assert params.value(3, 2, +1) == params.value(1, 2, +1)


def test_central_class_must_be_zero():
    with pytest.raises(ConfigError):
        make_parameters(3, "real", {(2, 2, +1): 0.1})
    # explicit zero is tolerated
    params = make_parameters(3, "real", {(2, 2, +1): 0}, ())
    assert params.value(2, 2, +1) == 0.0


def test_key_outside_canonical_range():
    with pytest.raises(ConfigError):
        make_parameters(4, "real", {(3, 1, +1): 0.5})
    with pytest.raises(ConfigError):
        make_parameters(4, "real", {(1, 4, -1): 0.5})


@pytest.mark.parametrize(
    "key",
    [(1.9, 2, +1), (True, "2", "+"), (1, "2", "+"), (1.5, 3, +1),
     (1, 1, 0), (1, 1, True), (1, 1, 1.0), (1, 1, "x"), (1, 1)],
)
def test_malformed_keys_are_refused_not_coerced(key):
    # i and j must be ints (not bools), epsilon +1/-1 or "+"/"-"
    with pytest.raises(ConfigError):
        make_parameters(4, "real", {key: 0.4})
    with pytest.raises(ConfigError):
        make_parameters(4, "real", {}, overrides=(key + (2.0,),))


def test_override_epsilon_labels_patch_their_own_grid():
    for plus, minus in (("+", "-"), (+1, -1)):
        family = make_parameters(
            4, "real", {}, overrides=((1, 3, plus, 1.5), (2, 4, minus, -0.5))
        )
        assert (family.value(1, 3, +1), family.value(1, 3, -1)) == (1.5, 0.0)
        assert (family.value(2, 4, +1), family.value(2, 4, -1)) == (0.0, -0.5)
        assert family.overrides == ((1, 3, 1, 1.5), (2, 4, -1, -0.5))


def test_mode_validation():
    with pytest.raises(ConfigError):
        make_parameters(2, "imaginary", {})


def test_epsilon_labels_accepted():
    params = make_parameters(2, "real", {(1, 1, "+"): 2.0, (1, 1, "-"): 1.0})
    assert params.value(1, 1, +1) == 2.0
    assert params.value(1, 1, -1) == 1.0


def test_exact_values_default_to_zero_only_when_every_value_is_exact():
    given = {(1, 1, "+"): 2, (2, 1, "-"): "1/3", (1, 2, "+"): Fraction(-3, 4)}
    params = make_parameters(4, "unitary", given)
    expected = {key: Fraction(0) for key in canonical_keys(4)}
    expected.update({(1, 1, 1): Fraction(2), (2, 1, -1): Fraction(1, 3),
                     (1, 2, 1): Fraction(-3, 4)})
    assert params.exact_values == expected
    assert make_parameters(4, "unitary", {}).exact_values == dict.fromkeys(
        canonical_keys(4), Fraction(0)
    )
    assert make_parameters(4, "unitary", {**given, (2, 2, "-"): 0.5}).exact_values is None
    assert make_parameters(4, "unitary", given, ((1, 1, 1, 2),)).exact_values is None


def test_override_breaks_symmetry_and_flags_it():
    params = random_params(4, "real", 5)
    overrides = params.overrides + ((1, 3, +1, 1.25),)
    broken = make_parameters(params.dim, params.mode, params.values, overrides=overrides)
    assert not broken.symmetric
    assert broken.exact_values is None
    assert broken.value(1, 3, +1) == 1.25
    assert broken.value(1, 2, +1) == params.value(1, 2, +1)


def test_digest_distinguishes_parameter_sets():
    a = make_parameters(2, "real", {(1, 1, +1): 1.0})
    b = make_parameters(2, "real", {(1, 1, +1): 1.0 + 1e-12})
    assert a.digest() == make_parameters(2, "real", {(1, 1, +1): 1.0}).digest()
    assert a.digest() != b.digest()


def test_digest_does_not_depend_on_the_float_type():
    # repr(np.float64(0.5)) is "np.float64(0.5)" under numpy 2 and "0.5"
    # under numpy 1, so numpy scalars are stored as plain floats
    values = {(1, 1, +1): 0.5, (1, 1, -1): -1.25}
    overrides = ((1, 2, +1, 0.75),)
    plain = make_parameters(2, "real", values, overrides)
    scalars = make_parameters(
        2,
        "real",
        {key: np.float64(v) for key, v in values.items()},
        ((1, 2, +1, np.float64(0.75)),),
    )
    assert scalars.digest() == plain.digest()
    assert {type(v) for v in scalars.values.values()} == {float}
    assert type(scalars.overrides[0][3]) is float


def test_a_parameter_set_is_its_braid_family():
    family = make_parameters(2, "real", {(1, 1, +1): 1.0})
    assert isinstance(family, BraidFamily)
    assert BraidFamily.create(family) is family
    for name in ("ParameterSet", "EntanglementRecord"):
        assert not hasattr(braidmat, name)
        assert name not in braidmat.__all__


# ------------------------------------------------------------ matrix build


def test_dim2_golden_matrix():
    params = make_parameters(2, "real", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    got = BraidFamily.create(params).matrix(math.log(2.0))
    a_plus, a_minus = 1.25, 0.75  # (2 + 1/2)/2 and (2 - 1/2)/2
    expected = np.array(
        [
            [a_plus, 0, 0, a_minus],
            [0, a_plus, a_minus, 0],
            [0, a_minus, a_plus, 0],
            [a_minus, 0, 0, a_plus],
        ]
    )
    assert max_abs_diff(got, expected) < 1e-15


def test_theta_zero_is_identity():
    for dim in (2, 3, 4, 5):
        for mode in ("real", "unitary"):
            family = BraidFamily.create(random_params(dim, mode, dim))
            got = family.matrix(0.0)
            assert np.array_equal(got, np.eye(dim * dim, dtype=got.dtype))


def test_dim2_unitary_at_half_pi():
    params = make_parameters(2, "unitary", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    got = BraidFamily.create(params).matrix(math.pi / 2)
    expected = 1j * np.fliplr(np.eye(4))
    assert max_abs_diff(got, expected) < 1e-15


def test_dim4_block_golden():
    values = {
        (1, 1, +1): 0.3, (1, 1, -1): -0.4,
        (1, 2, +1): 0.7, (1, 2, -1): 0.2,
        (2, 1, +1): -0.5, (2, 1, -1): 0.9,
        (2, 2, +1): 0.25, (2, 2, -1): -0.75,
    }
    theta = 1.0
    family = BraidFamily.create(make_parameters(4, "real", values))
    got = family.matrix(theta)
    # assemble the expected matrix from the per-class coefficients:
    # 4x4 blocks, diagonal blocks carry the symmetric coefficients on
    # their diagonal, antidiagonal blocks the antisymmetric ones on
    # their antidiagonal, in the palindromic order (a, b, b, a)
    ap, am = coeffs(values[(1, 1, +1)], values[(1, 1, -1)], theta)
    bp, bm = coeffs(values[(1, 2, +1)], values[(1, 2, -1)], theta)
    cp, cm = coeffs(values[(2, 1, +1)], values[(2, 1, -1)], theta)
    dp, dm = coeffs(values[(2, 2, +1)], values[(2, 2, -1)], theta)
    expected = np.zeros((16, 16))
    d_outer = np.diag([ap, bp, bp, ap])
    d_inner = np.diag([cp, dp, dp, cp])
    a_outer = np.fliplr(np.diag([am, bm, bm, am]))
    a_inner = np.fliplr(np.diag([cm, dm, dm, cm]))
    expected[0:4, 0:4] = d_outer
    expected[12:16, 12:16] = d_outer
    expected[4:8, 4:8] = d_inner
    expected[8:12, 8:12] = d_inner
    expected[0:4, 12:16] = a_outer
    expected[12:16, 0:4] = a_outer
    expected[4:8, 8:12] = a_inner
    expected[8:12, 4:8] = a_inner
    assert max_abs_diff(got, expected) < 1e-15
    # mirror-equal blocks, as printed in the 4x4 block layout
    assert np.array_equal(got[0:4, 0:4], got[12:16, 12:16])
    assert np.array_equal(got[0:4, 12:16], got[12:16, 0:4])
    assert np.array_equal(got[4:8, 4:8], got[8:12, 8:12])
    assert np.array_equal(got[4:8, 8:12], got[8:12, 4:8])


def test_construction_paths_agree():
    for dim in (2, 3, 4, 5):
        for mode in ("real", "unitary"):
            family = BraidFamily.create(random_params(dim, mode, 10 + dim))
            theta = 0.83
            assert (
                max_abs_diff(family.matrix(theta), family.matrix_from_basis(theta))
                <= PATH_TOL
            )


def test_basis_is_built_on_first_use(monkeypatch):
    # matrix() reads only the exponent grid; the basis waits until
    # something asks for it
    calls = []
    build = braid.projector_family
    monkeypatch.setattr(
        braid, "projector_family", lambda *args: calls.append(args) or build(*args)
    )
    family = BraidFamily.create(random_params(5, "real", 3))
    family.matrix(0.4)
    assert calls == []
    assert len(family.basis) == 25
    assert calls == [(5, "unified")]


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_even_form_path_agrees(dim):
    for mode in ("real", "unitary"):
        family = BraidFamily.create(random_params(dim, mode, 20 + dim))
        theta = -0.57
        assert (
            max_abs_diff(family.matrix(theta), even_form_matrix(family, theta))
            <= PATH_TOL
        )


def test_real_mode_is_real():
    got = BraidFamily.create(random_params(4, "real", 2)).matrix(0.9)
    assert got.dtype == np.float64


def test_unitary_theta_reflection_is_conjugation():
    family = BraidFamily.create(random_params(5, "unitary", 3))
    assert np.array_equal(family.matrix(-1.2), family.matrix(1.2).conj())


def test_spectrum_via_det_and_trace():
    # eigenvalues are exactly the per-orbit coefficients, so the
    # determinant and trace have closed forms
    for dim in (3, 4):
        params = random_params(dim, "real", 30 + dim)
        family = BraidFamily.create(params)
        theta = 0.77
        exponents = [
            params.value(key.i, key.j, key.epsilon) for key in family.basis.keys
        ]
        got = family.matrix(theta)
        det_expected = math.exp(theta * math.fsum(exponents))
        det_got = float(np.linalg.det(got))
        assert abs(det_got - det_expected) <= 1e-10 * abs(det_expected)
        trace_expected = math.fsum(math.exp(m * theta) for m in exponents)
        assert abs(float(np.trace(got)) - trace_expected) <= 1e-12


def test_real_theta_overflow_guard():
    family = BraidFamily.create(random_params(2, "real", 4))
    with pytest.raises(AccuracyError):
        family.matrix(51.0)
    # unitary mode has bounded coefficients, no guard needed
    unitary = BraidFamily.create(random_params(2, "unitary", 4))
    assert np.isfinite(unitary.matrix(51.0)).all()


def test_unitary_phase_guard():
    # one class at m = 0.5: the largest phase is |theta| / 2
    params = make_parameters(4, "unitary", {(1, 1, +1): 0.5})
    family = BraidFamily.create(params)
    edge = 2.0**53  # phase exactly 2**52, the last one allowed
    for theta in (edge, -edge):
        assert all(np.isfinite(g).all() for g in family.grids(theta))
    assert vars(params)["max_rate"] == 0.5  # computed once, then cached
    for theta in (math.nextafter(edge, math.inf), -1e300, 1e300):
        with pytest.raises(AccuracyError, match=r"exceeds 2\*\*52 in unitary mode"):
            family.grids(theta)
    # an override counts toward max|m|
    overridden = make_parameters(4, "unitary", {}, overrides=((1, 2, -1, -3.0),))
    assert overridden.max_rate == 3.0
    with pytest.raises(AccuracyError):
        BraidFamily.create(overridden).grids(2.0**51)
    # the all-zero family has no phase to lose
    zero = BraidFamily.create(make_parameters(4, "unitary", {}))
    assert np.array_equal(zero.grids(1e308)[0], np.ones((4, 4)))


# ------------------------------------------------------------ block structure


def test_block_structure_of_built_matrix():
    report = block_structure(
        BraidFamily.create(random_params(4, "real", 6)).matrix(0.8), 4
    )
    assert report.conforms
    assert report.max_off_pattern == 0.0


def test_block_structure_identity():
    assert block_structure(np.eye(9), 3).conforms


def test_block_structure_reports_violation_without_raising():
    m = BraidFamily.create(random_params(4, "real", 7)).matrix(0.8)
    m = m.copy()
    m[0, 1] = 0.5  # off-pattern entry
    report = block_structure(m, 4)
    assert not report.conforms
    assert report.max_off_pattern == 0.5


def test_block_structure_flags_asymmetry():
    p = random_params(4, "real", 8)
    overrides = p.overrides + ((1, 3, +1, 2.2),)
    params = make_parameters(p.dim, p.mode, p.values, overrides=overrides)
    report = block_structure(BraidFamily.create(params).matrix(0.8), 4)
    assert not report.conforms
    assert report.max_diagonal_asymmetry > 1e-3


# ------------------------------------------------------------ generator


def test_generator_dim2_antidiagonal():
    params = make_parameters(2, "real", {(1, 1, +1): 1.0, (1, 1, -1): -1.0})
    diag, anti = BraidFamily.create(params).generator()
    assert np.array_equal(diag, np.zeros((2, 2)))
    assert np.array_equal(anti, np.ones((2, 2)))
    x = dense_generator(BraidFamily.create(params))
    assert np.array_equal(x, np.fliplr(np.eye(4)))
    assert np.array_equal(x @ x, np.eye(4))


def test_generator_zero_params():
    x = dense_generator(BraidFamily.create(make_parameters(3, "real", {})))
    assert np.array_equal(x, np.zeros((9, 9)))


def test_generator_mode_structure():
    real_gen = dense_generator(BraidFamily.create(random_params(4, "real", 9)))
    assert real_gen.dtype == np.float64
    unitary_gen = dense_generator(BraidFamily.create(random_params(4, "unitary", 9)))
    assert np.array_equal(dagger(unitary_gen), -unitary_gen)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_generator_power_identity(dim):
    # X^k equals the sum of k-th exponent powers times the projectors
    params = random_params(dim, "real", 40 + dim)
    family = BraidFamily.create(params)
    x = dense_generator(family)
    power = np.eye(dim * dim)
    for k in range(1, 6):
        power = power @ x
        expected = np.zeros((dim * dim, dim * dim))
        for key, member in members(family.basis):
            expected = expected + params.value(key.i, key.j, key.epsilon) ** k * member
        assert max_abs_diff(power, expected) <= 1e-12


@pytest.mark.parametrize("mode", ["real", "unitary"])
def test_exponential_of_generator_reproduces_family(mode):
    for dim in (2, 3, 4):
        params = random_params(dim, mode, 50 + dim, low=-1.5, high=1.5)
        family = BraidFamily.create(params)
        x = dense_generator(family)
        for theta in (-3.3, 0.4, 2.0):
            built = family.matrix(theta)
            scale = max(1.0, float(np.abs(built).max()))
            diff = max_abs_diff(built, matrix_exponential(theta * x))
            assert diff / scale <= 1e-10


# ------------------------------------------------------------ reference family


def test_reference_projectors_self_checks():
    # the dense oracle pair of the index formulas; the library's orbit
    # blocks are compared with it in test_oracles.py
    for n in (1, 2, 3):
        plus, minus, rot = reference_projectors(n)
        eye = np.eye((2 * n) ** 2)
        assert max_abs_diff(plus @ plus, plus) <= 1e-14
        assert max_abs_diff(minus @ minus, minus) <= 1e-14
        assert float(np.abs(plus @ minus).max()) <= 1e-14
        assert max_abs_diff(plus + minus, eye) <= 1e-14
        assert rot.dtype == np.float64
        assert max_abs_diff(rot @ rot, -eye) <= 1e-13
        assert np.array_equal(rot.T, -rot)


def test_reference_matrix_at_zero():
    eye_blocks = np.broadcast_to(np.eye(2), (8, 2, 2))
    assert np.array_equal(reference_blocks(2, 0.0), eye_blocks)
    assert np.array_equal(reference_matrix(2, 0.0), np.eye(16))


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_reference_matrix_rejects_non_finite_z(z):
    with pytest.raises(DomainError, match="z must be finite"):
        reference_blocks(1, z)
    with pytest.raises(DomainError, match="z must be finite"):
        check_composition_law(1, z, 0.1)


def test_reference_matrix_orthogonality_relation():
    for z in (-0.8, 0.3, 1.7):
        r = reference_blocks(1, z)
        gram = r.swapaxes(-1, -2) @ r
        assert float(np.abs(gram - (1 + z * z) * np.eye(2)).max()) <= 1e-13


def test_reference_phase_form_matches_linear_form():
    # conjugate-phase combination equals the normalized linear form at +z
    for n in (1, 2):
        for z in (-0.7, 0.1, 0.9):
            phase = reference_phase_matrix(n, z)
            linear = reference_matrix(n, z) / math.sqrt(1 + z * z)
            assert max_abs_diff(phase, linear) <= 1e-14
