"""Property tests for the orbit-block layout of the coefficient grids."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from braidmat import BraidFamily, canonical_keys, make_parameters  # noqa: E402
from braidmat.braid import _pattern_matrix, block_grids, orbit_blocks  # noqa: E402

VALUE = st.floats(-2, 2, allow_nan=False)


@st.composite
def grids(draw):
    """Side length and the coefficient or generator grids of a random
    family: N <= 9, either mode, up to two symmetry overrides anywhere and
    possibly one on the odd-N centre."""
    dim = draw(st.integers(2, 9))
    mode = draw(st.sampled_from(["real", "unitary"]))
    keys = canonical_keys(dim)
    values = dict(zip(keys, draw(st.lists(VALUE, min_size=len(keys), max_size=len(keys)))))
    index, sign = st.integers(1, dim), st.sampled_from([1, -1])
    overrides = draw(st.lists(st.tuples(index, index, sign, VALUE), max_size=2))
    if dim % 2 and draw(st.booleans()):
        mid = (dim + 1) // 2
        overrides.append((mid, mid, draw(sign), draw(VALUE)))
    params = make_parameters(dim, mode, values, overrides=tuple(overrides))
    family = BraidFamily.create(params)
    if draw(st.booleans()):
        return dim, family.generator()
    return dim, family.grids(draw(st.floats(-1, 1, allow_nan=False)))


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
