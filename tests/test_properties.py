"""Property tests for the orbit-block layout of the coefficient grids, for
the exchange and exponential checks against the per-call slot kernels and
the one-scaling exponential, for the closed-form Schmidt records and the
pair-level projector, reference and composition checks against their
dense oracles, for the check selection of ``run_suite``, and for the
command-line JSON writer against ``json.dumps(indent=2)``, on arbitrary
nested payloads and on lists of same-key records."""

import json
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from braidmat import (  # noqa: E402
    BraidFamily,
    ProjectorFamily,
    ReferenceConfig,
    canonical_keys,
    check_braid,
    check_composition_law,
    check_exponential,
    make_parameters,
    projector_checks,
    projector_family,
    reference_checks,
    run_suite,
    verify,
)
from braidmat.braid import _pattern_matrix, block_grids, orbit_blocks  # noqa: E402
from braidmat.cli import _json_text  # noqa: E402
from braidmat.verify import exchange_residual  # noqa: E402
from test_json_writer import Level  # noqa: E402
from test_oracles import (  # noqa: E402
    ORACLE_TOL,
    assert_scan_matches_the_dense_svd,
    decoupled,
    dense_composition_residual,
    dense_reference_residuals,
    member_level_residuals,
    slot_exchange_residual,
    three_call_exponential_residuals,
)

VALUE = st.floats(-2, 2, allow_nan=False)


@st.composite
def families(draw, modes=("real", "unitary"), max_dim=9):
    """A random family: N <= ``max_dim``, one of ``modes``, up to two
    symmetry overrides anywhere and possibly one on the odd-N centre."""
    dim = draw(st.integers(2, max_dim))
    mode = draw(st.sampled_from(modes))
    keys = canonical_keys(dim)
    values = dict(zip(keys, draw(st.lists(VALUE, min_size=len(keys), max_size=len(keys)))))
    index, sign = st.integers(1, dim), st.sampled_from([1, -1])
    overrides = draw(st.lists(st.tuples(index, index, sign, VALUE), max_size=2))
    if dim % 2 and draw(st.booleans()):
        mid = (dim + 1) // 2
        overrides.append((mid, mid, draw(sign), draw(VALUE)))
    return BraidFamily.create(make_parameters(dim, mode, values, overrides=tuple(overrides)))


@st.composite
def grids(draw):
    """Side length and the coefficient or generator grids of a random
    family."""
    family = draw(families())
    if draw(st.booleans()):
        return family.dim, family.generator()
    return family.dim, family.grids(draw(st.floats(-1, 1, allow_nan=False)))


@settings(max_examples=200, deadline=None)
@given(grids())
def test_orbit_blocks_restrict_the_pattern_matrix_and_invert(case):
    dim, (diag, anti) = case
    size = dim * dim
    blocks = orbit_blocks(diag, anti)
    assert blocks.shape == ((size + 1) // 2, 2, 2)
    dense = _pattern_matrix(diag, anti)
    for r, block in enumerate(blocks):
        if 2 * r + 1 == size:  # the odd-N centre, a 1x1 block
            expected = dense[r, r] * np.eye(2)
        else:
            expected = dense[np.ix_([r, size - 1 - r], [r, size - 1 - r])]
        assert np.array_equal(block, expected)
    # block_grids returns the centre folded onto the diagonal grid
    folded_diag, folded_anti = diag.copy(), anti.copy()
    if dim % 2:
        c = dim // 2
        folded_diag[c, c] += anti[c, c]
        folded_anti[c, c] = 0
    back_diag, back_anti = block_grids(blocks, dim)
    assert np.array_equal(back_diag, folded_diag)
    assert np.array_equal(back_anti, folded_anti)


ANGLE = st.floats(-1, 1, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(families(max_dim=11), st.booleans(), ANGLE, ANGLE)
def test_exchange_checks_equal_the_slot_kernels(family, negative, theta, theta_prime):
    # the negative control decouples one entry from its mirror orbit
    if negative:
        family = decoupled(family)
    grids = (family.grids(x) for x in (theta, theta + theta_prime, theta_prime))
    braid = check_braid(family, theta, theta_prime)
    assert braid["residual"] == slot_exchange_residual(*grids)
    exponential = check_exponential(family, theta)
    direct, exchange = three_call_exponential_residuals(family, theta)
    assert exponential["context"]["build_vs_exp_residual"] == direct
    assert exponential["context"]["exp_exchange_residual"] == exchange


@st.composite
def raw_grids(draw):
    """Three (diagonal, antidiagonal) pairs of arbitrary N x N values,
    N <= 11, real or complex."""
    dim = draw(st.integers(2, 11))
    values = arrays(np.float64, (6, dim, dim), elements=st.floats(-4, 4))
    grids = draw(values)
    if draw(st.booleans()):
        grids = grids + 1j * draw(values)
    return (grids[0], grids[1]), (grids[2], grids[3]), (grids[4], grids[5])


@settings(max_examples=150, deadline=None)
@given(raw_grids())
def test_exchange_residual_equals_the_slot_kernels_on_any_grids(grids):
    assert exchange_residual(*grids) == slot_exchange_residual(*grids)


@settings(max_examples=60, deadline=None)
@given(
    families(modes=("unitary",)),
    st.one_of(st.just(0.0), st.floats(-1, 1, allow_nan=False)),
)
def test_schmidt_records_match_the_dense_svd(family, theta):
    assert_scan_matches_the_dense_svd(family, theta)


# Entries of modulus 0 or 1 and dyadic weights keep both the pair-level
# and the dense member-level arithmetic exact.
UNITS = {"unified": [1.0, -1.0], "Q": [1.0, -1.0, 1j, -1j]}
WEIGHT = st.sampled_from([0.25, 0.5, 1.0, 2.0])


@st.composite
def projector_families(draw):
    """A family of either kind, N <= 9, with up to four members redrawn:
    first entry of modulus 1, second entry 0 or of modulus 1 (0 at the
    odd-N centre, whose pair is a single position), any dyadic weight."""
    dim = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["unified", "Q"] if dim % 2 == 0 else ["unified"]))
    clean = projector_family(dim, kind)
    vectors, weights = clean.vectors.copy(), clean.weights.copy()
    unit = st.sampled_from(UNITS[kind])
    for k in draw(st.lists(st.integers(0, len(clean) - 1), max_size=4)):
        centre = 2 * (k // 2) + 1 == len(clean)
        vectors[k] = draw(unit), 0.0 if centre else draw(st.one_of(st.just(0.0), unit))
        weights[k] = draw(WEIGHT)
    return ProjectorFamily(dim, kind, clean.keys, vectors, weights)


@settings(max_examples=20, deadline=None)
@given(projector_families())
def test_pair_level_projector_residuals_equal_the_dense_oracle(family):
    original = verify.projector_family
    stand_in = lambda d, k: family if k == family.kind else original(d, k)  # noqa: E731
    with mock.patch.object(verify, "projector_family", stand_in):
        checked = {
            c["name"]: c["residual"]
            for c in projector_checks(family.dim)
            if c["context"]["kind"] == family.kind
        }
    expected = member_level_residuals(family)
    assert {name: checked[name] for name in expected} == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.floats(-0.9, 0.9, allow_nan=False),
    st.floats(-0.9, 0.9, allow_nan=False),
)
def test_reference_and_composition_residuals_equal_the_dense_oracle(n, z1, z2):
    assert [c["residual"] for c in reference_checks(n)] == dense_reference_residuals(n)
    block = check_composition_law(n, z1, z2)["residual"]
    assert abs(block - dense_composition_residual(n, z1, z2)) <= ORACLE_TOL


SAMPLES = st.integers(0, 2)
SEEDS = st.integers(0, 2**64 - 1)


def sorted_union(config, suites, samples, seed):
    """The checks of the single-suite reports, in report order."""
    checks = [c for s in suites for c in run_suite(config, s, samples, seed)["checks"]]
    checks.sort(key=lambda c: (c["name"], c["context"].get("sample", -1)))
    return json.dumps(checks)


@settings(max_examples=60, deadline=None)
@given(families(), st.booleans(), SAMPLES, SEEDS)
def test_all_is_the_union_of_the_suites_that_apply(family, symmetric, samples, seed):
    config = family
    if symmetric:
        config = make_parameters(config.dim, config.mode, config.values)
    suites = ["braid", "factorization", "exponential", "projectors"]
    if config.mode == "unitary":
        suites.append("unitarity")
    if config.dim % 2 == 0:
        suites.append("composition")
    report = run_suite(config, "all", samples, seed)
    assert json.dumps(report["checks"]) == sorted_union(
        config, suites, samples, seed
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), SAMPLES, SEEDS)
def test_reference_all_is_composition_and_projectors(n, samples, seed):
    config = ReferenceConfig(n)
    report = run_suite(config, "all", samples, seed)
    assert json.dumps(report["checks"]) == sorted_union(
        config, ["composition", "projectors"], samples, seed
    )
    # each sample draws only its two composition points
    rng = np.random.Generator(np.random.Philox(seed))
    composition = run_suite(config, "composition", samples, seed)["checks"]
    assert len(composition) == samples + 1
    for sample, check in enumerate(composition):
        z1, z2 = rng.uniform(-0.9, 0.9, size=2)
        expected = check_composition_law(n, z1, z2, tol=check["tolerance"])
        assert check == dict(expected, context=dict(sample=sample, **expected["context"]))


json_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
scalars = st.one_of(
    json_floats,
    st.sampled_from([-0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]),
    json_floats.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(),
)
float_rows = st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=width, max_size=width),
        min_size=1, max_size=6,
    )
)
# float rows with one item swapped for a NaN, an infinity, an int, a bool
# or a numpy.float64
spoiled_rows = st.tuples(
    float_rows, st.sampled_from([math.nan, -math.inf, 7, True, np.float64(0.5)])
).map(lambda pair: pair[0][:-1] + [pair[0][-1][:-1] + [pair[1]]])
# float rows with one row an item short
ragged_rows = float_rows.map(lambda rows: rows + [rows[0][:-1]])
payloads = st.recursive(
    st.one_of(scalars, float_rows, spoiled_rows, ragged_rows),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_writer_matches_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_ints = st.integers(min_value=-(2**70), max_value=2**70)
# items that must leave a column of floats or ints to the item-by-item path
odd_items = st.sampled_from(
    [True, False, Level.LOW, np.float64(0.5), None, math.nan, math.inf, -math.inf]
)


def column_values(size: int, depth: int):
    """Strategies for one key's values across ``size`` records."""
    def column(items):
        return st.lists(items, min_size=size, max_size=size)

    width = st.integers(0, 3)
    kinds = [
        column(finite_floats),
        column(json_ints),
        column(st.one_of(finite_floats, json_ints, odd_items)),
        # equal-length rows, lists or tuples, possibly empty
        width.flatmap(lambda w: column(st.one_of(
            st.lists(finite_floats, min_size=w, max_size=w),
            st.tuples(*[finite_floats] * w),
        ))),
        column(st.lists(finite_floats, max_size=3)),  # ragged
        width.flatmap(lambda w: column(  # NaN- or infinity-bearing rows
            st.lists(st.floats(), min_size=w, max_size=w))),
    ]
    if depth < 2:
        kinds.append(same_key_records(size, depth + 1))
    return st.one_of(kinds)


@st.composite
def same_key_records(draw, size=None, depth=0):
    """A list of dicts built from one key list, a column of values per key;
    sometimes one record has its keys permuted."""
    if size is None:
        size = draw(st.integers(1, 5))
    keys = draw(st.lists(st.text(alphabet="ab%s", max_size=3), min_size=1,
                         max_size=4, unique=True))
    columns = [draw(column_values(size, depth)) for _ in keys]
    records = [dict(zip(keys, values)) for values in zip(*columns)]
    if len(keys) > 1 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, size - 1))
        records[k] = {key: records[k][key] for key in draw(st.permutations(keys))}
    return records


@settings(max_examples=300, deadline=None)
@given(same_key_records())
def test_writer_matches_json_dumps_on_same_key_records(records):
    assert _json_text(records) == json.dumps(records, indent=2)
    assert _json_text({"records": records}) == json.dumps({"records": records}, indent=2)
