"""Unfold/fold/mode-product tests against definition-level oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mcsda import fold, mode_product, multi_project, unfold
from mcsda.tensor_ops import (
    _contract_first,
    _mode_layout,
    _project_chains,
    _project_later,
    _project_layout,
    _sample_layout,
)


# ---------------------------------------------------------------------------
# oracles straight from the definitions, independent of the implementation


def unfold_by_fiber_enumeration(t, mode):
    """Columns are mode fibers, remaining indices counted with the lowest
    remaining mode varying fastest."""
    t = np.asarray(t, dtype=float)
    rest_axes = [ax for ax in range(t.ndim) if ax != mode]
    rest_dims = [t.shape[ax] for ax in rest_axes]
    out = np.empty((t.shape[mode], int(np.prod(rest_dims, initial=1))))
    # itertools.product varies its last argument fastest, so feed the
    # reversed dims and flip each index tuple back
    for col, rev_idx in enumerate(
        itertools.product(*[range(d) for d in reversed(rest_dims)])
    ):
        idx = rev_idx[::-1]
        slicer = [slice(None)] * t.ndim
        for ax, i in zip(rest_axes, idx):
            slicer[ax] = i
        out[:, col] = t[tuple(slicer)]
    return out


def mode_product_by_summation(t, w, mode):
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    out_shape = list(t.shape)
    out_shape[mode] = w.shape[0]
    out = np.zeros(out_shape)
    for out_idx in itertools.product(*[range(d) for d in out_shape]):
        j = out_idx[mode]
        total = 0.0
        for i in range(t.shape[mode]):
            t_idx = list(out_idx)
            t_idx[mode] = i
            total += w[j, i] * t[tuple(t_idx)]
        out[out_idx] = total
    return out


def tensors(max_modes=4, max_dim=4):
    return st.integers(1, max_modes).flatmap(
        lambda k: st.tuples(
            *[st.integers(1, max_dim) for _ in range(k)]
        ).flatmap(
            lambda dims: hnp.arrays(
                np.float64,
                dims,
                elements=st.floats(-8, 8, allow_nan=False, width=64),
            )
        )
    )


# ---------------------------------------------------------------------------
# unfold / fold


def test_unfold_matrix_modes():
    # 2x3 matrix T[i, j] = 3 i + j + 1 (0-based): mode-0 unfolding is the
    # matrix itself, mode-1 its transpose
    t = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(unfold(t, 0), t)
    assert np.array_equal(unfold(t, 1), t.T)


def test_unfold_2x2x2_frozen():
    # storage-order values 1..8; expected matrix computed by fiber
    # enumeration and frozen here
    t = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
    expected = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    assert np.array_equal(unfold(t, 2), expected)
    assert np.array_equal(unfold_by_fiber_enumeration(t, 2), expected)


def test_unfold_matches_fiber_oracle(rng):
    for dims in [(3, 4), (2, 3, 4), (3, 2, 4, 2)]:
        t = rng.normal(size=dims)
        for mode in range(len(dims)):
            assert np.array_equal(
                unfold(t, mode), unfold_by_fiber_enumeration(t, mode)
            )


def test_unfold_mode_out_of_range():
    t = np.zeros((2, 3))
    with pytest.raises(ValueError, match="mode"):
        unfold(t, 2)
    with pytest.raises(ValueError, match="mode"):
        unfold(t, -1)


def test_fold_zero_matrix():
    assert np.array_equal(fold(np.zeros((2, 2)), 0, (2, 2)), np.zeros((2, 2)))


def test_fold_shape_mismatch():
    with pytest.raises(ValueError, match="fold"):
        fold(np.zeros((2, 5)), 0, (2, 4))


@settings(deadline=None, max_examples=60)
@given(t=tensors())
def test_unfold_fold_roundtrip(t):
    for mode in range(t.ndim):
        m = unfold(t, mode)
        assert np.array_equal(fold(m, mode, t.shape), t)


# ---------------------------------------------------------------------------
# mode products


def test_mode_product_row_vector_frozen():
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([[1.0, 1.0]])
    result = mode_product(t, w, 0)
    expected = np.array([[4.0, 6.0]])  # column sums, by the summation rule
    assert np.array_equal(result, expected)
    assert np.array_equal(mode_product_by_summation(t, w, 0), expected)


def test_mode_product_identity():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(3, 4, 2))
    for mode in range(3):
        assert np.allclose(mode_product(t, np.eye(t.shape[mode]), mode), t)


def test_mode_product_matches_summation_oracle(rng):
    for dims, mode, rows in [((3, 4), 1, 2), ((2, 3, 4), 0, 5), ((2, 2, 3), 2, 4)]:
        t = rng.normal(size=dims)
        w = rng.normal(size=(rows, dims[mode]))
        got = mode_product(t, w, mode)
        want = mode_product_by_summation(t, w, mode)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_mode_product_shape_errors():
    t = np.zeros((3, 4))
    with pytest.raises(ValueError, match="columns"):
        mode_product(t, np.zeros((2, 3)), 1)
    with pytest.raises(ValueError, match="mode"):
        mode_product(t, np.zeros((2, 3)), 5)


@settings(deadline=None, max_examples=60)
@given(t=tensors(max_modes=3), data=st.data())
def test_unfolding_identity(t, data):
    # unfold(t x_k W, k) == W @ unfold(t, k)
    mode = data.draw(st.integers(0, t.ndim - 1))
    rows = data.draw(st.integers(1, 4))
    w = data.draw(
        hnp.arrays(
            np.float64,
            (rows, t.shape[mode]),
            elements=st.floats(-8, 8, allow_nan=False, width=64),
        )
    )
    lhs = unfold(mode_product(t, w, mode), mode)
    rhs = w @ unfold(t, mode)
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


@settings(deadline=None, max_examples=40)
@given(t=tensors(max_modes=3), data=st.data())
def test_mode_product_linear(t, data):
    mode = data.draw(st.integers(0, t.ndim - 1))
    shape = (2, t.shape[mode])
    elements = st.floats(-8, 8, allow_nan=False, width=64)
    a = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    b = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    lhs = mode_product(t, a + b, mode)
    rhs = mode_product(t, a, mode) + mode_product(t, b, mode)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# multi-mode projection


def test_multi_project_identity():
    rng = np.random.default_rng(6)
    t = rng.normal(size=(3, 4, 2))
    ws = [np.eye(d) for d in t.shape]
    assert np.allclose(multi_project(t, ws), t)


def test_multi_project_k1_is_matvec(rng):
    v = rng.normal(size=5)
    w = rng.normal(size=(5, 2))
    assert np.allclose(multi_project(v, [w]), w.T @ v)


def test_multi_project_matrix_sandwich(rng):
    x = rng.normal(size=(4, 5))
    w1 = rng.normal(size=(4, 2))
    w2 = rng.normal(size=(5, 3))
    assert np.allclose(multi_project(x, [w1, w2]), w1.T @ x @ w2, rtol=1e-12)


def test_multi_project_order_independent(rng):
    t = rng.normal(size=(3, 4, 5))
    ws = [rng.normal(size=(d, 2)) for d in t.shape]
    forward = multi_project(t, ws)
    # apply modes in reverse order by hand
    out = t
    for mode in (2, 1, 0):
        out = mode_product(out, ws[mode].T, mode)
    assert np.allclose(forward, out, rtol=1e-10, atol=1e-12)


def test_multi_project_wrong_count(rng):
    t = rng.normal(size=(3, 4))
    with pytest.raises(ValueError, match="projection"):
        multi_project(t, [np.eye(3)])


def _layout(rng, shape, layout):
    """A float64 array of `shape` in C order, Fortran order, or as a
    strided view into a larger array."""
    if layout == "sliced":
        return rng.normal(size=shape[:-1] + (2 * shape[-1],))[..., ::2]
    a = rng.normal(size=shape)
    return np.asfortranarray(a) if layout == "F" else a


def project_by_einsum(stack, ws, skip=None):
    """Reference projection by one einsum: mode q of the stack is the
    upper-case letter q, its projection the lower-case one, and the
    skipped mode keeps its upper-case letter in the output."""
    letters = "abcdefgh"
    k = stack.ndim - 1
    out = ["n"] + [letters[q].upper() if q == skip else letters[q] for q in range(k)]
    terms = ["n" + "".join(letters[q].upper() for q in range(k))]
    for q, w in enumerate(ws):
        if q != skip:
            terms.append(letters[q].upper() + letters[q])
    operands = [stack] + [w for q, w in enumerate(ws) if q != skip]
    return np.einsum(",".join(terms) + "->" + "".join(out), *operands)


def project_by_chains(stack, wss, slab):
    """Every projection set in `wss` applied to every mode of `stack` by
    the scoring routine, as (N, *subspace dims) arrays."""
    order, layout = _sample_layout(stack)
    chains = [(ws[order[-1]], [ws[q] for q in reversed(order[:-1])]) for ws in wss]
    outs = [np.empty([w.shape[1] for w in ws] + [stack.shape[0]]) for ws in wss]
    for start, i, projected in _project_chains(layout, chains, slab):
        # rows follow the layout's modes, slowest first
        block = projected.reshape([wss[i][q].shape[1] for q in order] + [-1])
        outs[i][..., start : start + projected.shape[1]] = block.transpose(
            (*np.argsort(order), len(order))
        )
    return [np.moveaxis(out, -1, 0) for out in outs]


@settings(deadline=None, max_examples=80)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    n=st.integers(0, 4),
    layouts=st.lists(st.sampled_from(["C", "F", "sliced"]), min_size=5, max_size=5),
    slab=st.integers(1, 5),
    data=st.data(),
)
def test_projection_routines_match_einsum(dims, n, layouts, slab, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sub = [data.draw(st.integers(1, i)) for i in dims]
    stack = _layout(rng, (n, *dims), layouts[0])
    ws = [_layout(rng, (i, j), layouts[1 + q]) for q, (i, j) in enumerate(zip(dims, sub))]
    other = [_layout(rng, (i, data.draw(st.integers(1, i))), layouts[4]) for i in dims]

    def check(got, want):
        assert got.shape == want.shape
        atol = 1e-12 * np.abs(want).max(initial=1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)

    # the fit's routine: every mode but k, as the mode-k unfolding
    for k in range(len(dims)):
        want = np.moveaxis(project_by_einsum(stack, ws, k), k + 1, 0)
        check(_project_layout(_mode_layout(stack, k), ws, k), want.reshape(dims[k], -1))
    # the scoring routine: every mode, several projection sets at once
    for got, w in zip(project_by_chains(stack, [ws, other], slab), (ws, other)):
        check(got, project_by_einsum(stack, w))
    if n:
        want = project_by_einsum(stack[:1], ws)[0]
        np.testing.assert_allclose(
            multi_project(stack[0], ws), want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
        )


@pytest.mark.parametrize("dims", [(5, 4), (5, 4, 3), (4, 3, 3, 2), (3, 2, 2, 2, 2)])
@pytest.mark.parametrize("n", [0, 1, 6])
def test_running_product_projects_every_mode_but_one(rng, dims, n):
    # the fit's modes after the first: the last mode's layout contracted
    # with the matrices before the mode, one more per mode, then the modes
    # after it by batched products; the columns come in the order the
    # contractions leave, (later modes, sample, earlier modes)
    last = len(dims) - 1
    stack = rng.normal(size=(n, *dims))
    ws = [rng.normal(size=(i, max(1, i - 2))) for i in dims]
    product = _mode_layout(stack, last)
    for k in range(1, last + 1):
        product = _contract_first(product, ws[k - 1])
        axes = [k + 1, *range(k + 2, last + 2), 0, *range(1, k + 1)]
        want = project_by_einsum(stack, ws, k).transpose(axes).reshape(dims[k], -1)
        got = _project_later(product, ws, k)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=1))
    # the last mode's unfolding is that of its own layout, bit for bit
    assert np.array_equal(got, _project_layout(_mode_layout(stack, last), ws, last))


def test_full_projection_copies_no_stack():
    # every mode product is one gemm on a free reshape, so projecting a
    # C-ordered stack allocates about its first-mode output (7/30 of the
    # stack here) and never a copy of the stack
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(200, 40, 30))
    ws = [rng.normal(size=(40, 7)), rng.normal(size=(30, 7))]

    def project():
        order, layout = _sample_layout(stack)
        chain = (ws[order[-1]], [ws[q] for q in reversed(order[:-1])])
        return [out for _, _, out in _project_chains(layout, [chain], len(stack))]

    project()
    tracemalloc.start()
    try:
        (out,) = project()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (49, 200)
    assert peak < stack.nbytes / 2


def test_mode_product_needs_a_matrix():
    with pytest.raises(ValueError, match="^mode_product needs a 2-d matrix, got 1-d$"):
        mode_product(np.zeros((3, 4)), np.zeros(3), 0)


def test_projection_rows_must_match_their_mode():
    with pytest.raises(
        ValueError, match=r"^projection 1 has shape \(5, 2\), expected \(4, d\)$"
    ):
        multi_project(np.zeros((3, 4)), [np.eye(3), np.zeros((5, 2))])
