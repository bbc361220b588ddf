"""Scatter builders against brute-force double-loop oracles.

The oracles below follow the defining sums literally: explicit per-sample
outer products, per-sample mode products and unfoldings. The production
code batches these with stacked matrix multiplies, so agreement is a real
cross-check, not a reimplementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsda import (
    LabeledDataset,
    TrainConfig,
    class_specific_objective,
    class_statistics,
    csda_scatters,
    fit_class_specific,
    lda_scatters,
    mda_mode_scatters,
    mode_k_class_specific_scatters,
    mode_product,
    multiclass_objective,
    unfold,
)
from mcsda.discriminant import _fit, _flatten_samples, _gram, _scatter_pair
from mcsda.tensor_ops import _mode_layout, _project_layout

from conftest import assert_scatter_valid, random_dataset


# ---------------------------------------------------------------------------
# oracles


def flatten_f(x):
    return np.asarray(x, dtype=float).ravel(order="F")


def csda_scatters_bruteforce(data, positive):
    pos = data.samples[data.labels == positive]
    m_p = pos.mean(axis=0)
    d = m_p.size
    s_out = np.zeros((d, d))
    s_in = np.zeros((d, d))
    for x, label in zip(data.samples, data.labels):
        diff = flatten_f(x) - flatten_f(m_p)
        if label == positive:
            s_in += np.outer(diff, diff)
        else:
            s_out += np.outer(diff, diff)
    return s_out, s_in


def lda_scatters_bruteforce(data):
    d = data.samples[0].size
    total = flatten_f(data.samples.mean(axis=0))
    s_b = np.zeros((d, d))
    s_w = np.zeros((d, d))
    for c in range(1, data.n_classes + 1):
        block = data.samples[data.labels == c]
        mean = flatten_f(block.mean(axis=0))
        s_b += block.shape[0] * np.outer(mean - total, mean - total)
        for x in block:
            diff = flatten_f(x) - mean
            s_w += np.outer(diff, diff)
    return s_b, s_w


def side_projected_unfolding(x, projections, mode):
    """Project every mode but `mode` with W_q^T, then unfold at `mode`."""
    out = np.asarray(x, dtype=float)
    for q, w in enumerate(projections):
        if q == mode:
            continue
        out = mode_product(out, np.asarray(w).T, q)
    return unfold(out, mode)


def mode_scatters_bruteforce(data, positive, projections, mode):
    m_p = data.samples[data.labels == positive].mean(axis=0)
    i_k = data.dims[mode]
    s_out = np.zeros((i_k, i_k))
    s_in = np.zeros((i_k, i_k))
    for x, label in zip(data.samples, data.labels):
        u = side_projected_unfolding(x - m_p, projections, mode)
        if label == positive:
            s_in += u @ u.T
        else:
            s_out += u @ u.T
    return s_out, s_in


def mda_mode_scatters_bruteforce(data, projections, mode):
    total = data.samples.mean(axis=0)
    i_k = data.dims[mode]
    s_b = np.zeros((i_k, i_k))
    s_w = np.zeros((i_k, i_k))
    for c in range(1, data.n_classes + 1):
        block = data.samples[data.labels == c]
        mean = block.mean(axis=0)
        u = side_projected_unfolding(mean - total, projections, mode)
        s_b += block.shape[0] * (u @ u.T)
        for x in block:
            u = side_projected_unfolding(x - mean, projections, mode)
            s_w += u @ u.T
    return s_b, s_w


def rel_err(got, want):
    scale = max(np.linalg.norm(want), 1e-300)
    return np.linalg.norm(np.asarray(got) - np.asarray(want)) / scale


def random_projections(rng, dims, sub):
    return [rng.normal(size=(i, j)) for i, j in zip(dims, sub)]


# ---------------------------------------------------------------------------
# class statistics


def test_class_statistics_oracle(rng):
    ds = random_dataset(rng, dims=(3, 2), n_classes=3, per_class=4)
    stats = class_statistics(ds, positive=2)
    for c in range(1, 4):
        block = ds.samples[ds.labels == c]
        assert np.allclose(stats.class_means[c - 1], block.mean(axis=0), rtol=1e-12)
    assert np.allclose(stats.total_mean, ds.samples.mean(axis=0), rtol=1e-12)
    assert np.array_equal(stats.positive_mean, stats.class_means[1])
    # total mean is the count-weighted mean of class means
    weighted = (stats.class_means * (stats.counts / ds.count)[:, None, None]).sum(axis=0)
    assert np.allclose(weighted, stats.total_mean, rtol=1e-10)


def test_class_statistics_empty_class():
    ds = LabeledDataset(samples=np.zeros((2, 2)), labels=np.array([1, 3]), n_classes=3)
    with pytest.raises(ValueError, match="class 2 is empty"):
        class_statistics(ds)


def test_class_statistics_bad_positive(rng):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=3)
    with pytest.raises(ValueError, match="positive class"):
        class_statistics(ds, positive=5)


def test_class_specific_reference_is_class_statistics_mean(rng):
    # class-specific fits average only the positive class; the scoring
    # reference must stay bit-identical to class_statistics' positive mean
    ds = random_dataset(rng, dims=(4, 3), n_classes=4, per_class=5)
    for method, sub in (("csda", 3), ("mcsda", (2, 2))):
        for positive in (1, 3):
            model = fit_class_specific(
                ds, method, positive, TrainConfig(subspace_dims=sub, max_iter=2)
            )
            expected = class_statistics(ds, positive).positive_mean
            assert np.array_equal(model.reference_mean, expected)


# every public criterion function and the fit engine, called with a
# positive class; those without one drop it
W = [np.ones((2, 1))]
CRITERIA = {
    "lda_scatters": lambda ds, positive: lda_scatters(ds),
    "csda_scatters": csda_scatters,
    "mode_k_class_specific_scatters": lambda ds, positive: (
        mode_k_class_specific_scatters(ds, positive, W, 0)
    ),
    "mda_mode_scatters": lambda ds, positive: mda_mode_scatters(ds, W, 0),
    "class_specific_objective": lambda ds, positive: class_specific_objective(ds, positive, W),
    "multiclass_objective": lambda ds, positive: multiclass_objective(ds, W),
    **{
        f"fit_{method}": lambda ds, positive, method=method: _fit(
            ds, method, positive, TrainConfig(subspace_dims=1)
        )
        for method in ("lda", "csda", "mda", "mcsda")
    },
}
TAKE_POSITIVE = [
    name for name in CRITERIA
    if name not in ("lda_scatters", "mda_mode_scatters", "multiclass_objective")
]


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion_rejects_an_empty_class(name):
    empty = LabeledDataset(samples=np.zeros((3, 2)), labels=np.array([1, 3, 3]), n_classes=3)
    with pytest.raises(ValueError, match="^class 2 is empty$"):
        CRITERIA[name](empty, 1)


@pytest.mark.parametrize("name", TAKE_POSITIVE)
def test_criterion_rejects_a_positive_class_out_of_range(rng, name):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=3)
    with pytest.raises(ValueError, match=r"^positive class 5 outside 1\.\.2$"):
        CRITERIA[name](ds, 5)


@pytest.mark.parametrize("positive", [2.0, True, "2"])
@pytest.mark.parametrize("name", TAKE_POSITIVE)
def test_criterion_rejects_a_positive_class_that_is_no_integer(rng, name, positive):
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=3)
    with pytest.raises(ValueError, match=f"^positive class must be an integer, got {positive!r}$"):
        CRITERIA[name](ds, positive)


@pytest.mark.parametrize(
    "name",
    ["csda_scatters", "mode_k_class_specific_scatters", "class_specific_objective",
     "fit_csda", "fit_mcsda"],
)
def test_class_specific_criterion_needs_a_positive_class(rng, name):
    # a library error names what is missing, not a command line flag
    ds = random_dataset(rng, dims=(2,), n_classes=2, per_class=3)
    with pytest.raises(ValueError, match=r"^m?csda is class-specific: it needs a positive class$"):
        CRITERIA[name](ds, None)


# ---------------------------------------------------------------------------
# vectorized scatters


def test_csda_frozen_fixture():
    # positives on the x axis, negatives on the y axis, positive mean 0
    ds = LabeledDataset(
        samples=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]),
        labels=np.array([1, 1, 2, 2]),
        n_classes=2,
    )
    pair = csda_scatters(ds, 1)
    assert np.allclose(pair.numerator, np.diag([0.0, 8.0]), atol=1e-14)
    assert np.allclose(pair.denominator, np.diag([2.0, 0.0]), atol=1e-14)


def test_csda_single_positive_zero_in_scatter(rng):
    samples = rng.normal(size=(4, 3))
    ds = LabeledDataset(samples=samples, labels=np.array([1, 2, 2, 2]), n_classes=2)
    pair = csda_scatters(ds, 1)
    assert np.allclose(pair.denominator, 0.0, atol=1e-14)


def test_csda_matches_bruteforce(rng):
    ds = random_dataset(rng, dims=(3, 4), n_classes=3, per_class=7)
    pair = csda_scatters(ds, 2)
    s_out, s_in = csda_scatters_bruteforce(ds, 2)
    assert rel_err(pair.numerator, s_out) < 1e-10
    assert rel_err(pair.denominator, s_in) < 1e-10
    assert_scatter_valid(pair.numerator)
    assert_scatter_valid(pair.denominator)


def test_csda_in_scatter_rank_bound(rng):
    # centering on the positive mean caps the in-class rank at n_p - 1
    ds = random_dataset(rng, dims=(9,), n_classes=2, per_class=4)
    pair = csda_scatters(ds, 1)
    svals = np.linalg.svd(pair.denominator, compute_uv=False)
    rank = int((svals > svals[0] * 1e-10).sum())
    assert rank <= min(4 - 1, 9)


def test_csda_degenerate_labels(rng):
    samples = rng.normal(size=(4, 3))
    all_pos = LabeledDataset(samples=samples, labels=np.ones(4, dtype=int), n_classes=1)
    with pytest.raises(ValueError, match="positive"):
        csda_scatters(all_pos, 1)


def test_lda_matches_bruteforce(rng):
    ds = random_dataset(rng, dims=(5,), n_classes=3, per_class=6)
    pair = lda_scatters(ds)
    s_b, s_w = lda_scatters_bruteforce(ds)
    assert rel_err(pair.numerator, s_b) < 1e-10
    assert rel_err(pair.denominator, s_w) < 1e-10
    assert_scatter_valid(pair.numerator)
    assert_scatter_valid(pair.denominator)


def test_scatters_translation_invariant(rng):
    ds = random_dataset(rng, dims=(4,), n_classes=2, per_class=5)
    shift = rng.normal(size=(4,))
    shifted = LabeledDataset(
        samples=ds.samples + shift, labels=ds.labels, n_classes=ds.n_classes
    )
    for build in (lambda d: csda_scatters(d, 1), lda_scatters):
        a = build(ds)
        b = build(shifted)
        assert rel_err(b.numerator, a.numerator) < 1e-10
        assert rel_err(b.denominator, a.denominator) < 1e-10


# ---------------------------------------------------------------------------
# mode-k scatters


def test_mode_scatters_k1_equals_csda(rng):
    # one-mode tensors with the identity side projection reduce to the
    # vectorized scatters
    ds = random_dataset(rng, dims=(6,), n_classes=2, per_class=5)
    pair_t = mode_k_class_specific_scatters(ds, 1, [np.eye(6)], 0)
    pair_v = csda_scatters(ds, 1)
    assert rel_err(pair_t.numerator, pair_v.numerator) < 1e-14
    assert rel_err(pair_t.denominator, pair_v.denominator) < 1e-14


def test_mode_scatters_match_bruteforce_2mode(rng):
    ds = random_dataset(rng, dims=(4, 3), n_classes=3, per_class=6)
    ws = random_projections(rng, ds.dims, (2, 2))
    for mode in (0, 1):
        pair = mode_k_class_specific_scatters(ds, 1, ws, mode)
        s_out, s_in = mode_scatters_bruteforce(ds, 1, ws, mode)
        assert rel_err(pair.numerator, s_out) < 1e-10
        assert rel_err(pair.denominator, s_in) < 1e-10
        assert_scatter_valid(pair.numerator)
        assert_scatter_valid(pair.denominator)


def test_mode_scatters_match_bruteforce_3mode(rng):
    ds = random_dataset(rng, dims=(4, 3, 2), n_classes=2, per_class=8)
    ws = random_projections(rng, ds.dims, (2, 2, 2))
    for mode in range(3):
        pair = mode_k_class_specific_scatters(ds, 2, ws, mode)
        s_out, s_in = mode_scatters_bruteforce(ds, 2, ws, mode)
        assert rel_err(pair.numerator, s_out) < 1e-10
        assert rel_err(pair.denominator, s_in) < 1e-10


def test_mode_scatters_skip_entry_ignored(rng):
    ds = random_dataset(rng, dims=(4, 3), n_classes=2, per_class=5)
    ws = random_projections(rng, ds.dims, (2, 2))
    garbled = [np.full_like(ws[0], np.nan), ws[1]]
    pair_a = mode_k_class_specific_scatters(ds, 1, ws, 0)
    pair_b = mode_k_class_specific_scatters(ds, 1, garbled, 0)
    assert np.array_equal(pair_a.numerator, pair_b.numerator)


def test_mode_scatters_single_positive(rng):
    samples = rng.normal(size=(5, 3, 2))
    ds = LabeledDataset(samples=samples, labels=np.array([1, 2, 2, 2, 2]), n_classes=2)
    ws = [np.eye(3), np.eye(2)]
    for mode in (0, 1):
        pair = mode_k_class_specific_scatters(ds, 1, ws, mode)
        assert np.allclose(pair.denominator, 0.0, atol=1e-14)


def test_mda_mode_scatters_match_bruteforce(rng):
    ds = random_dataset(rng, dims=(3, 4), n_classes=3, per_class=5)
    ws = random_projections(rng, ds.dims, (2, 3))
    for mode in (0, 1):
        pair = mda_mode_scatters(ds, ws, mode)
        s_b, s_w = mda_mode_scatters_bruteforce(ds, ws, mode)
        assert rel_err(pair.numerator, s_b) < 1e-10
        assert rel_err(pair.denominator, s_w) < 1e-10
        assert_scatter_valid(pair.numerator)
        assert_scatter_valid(pair.denominator)


def test_mode_scatters_validation(rng):
    ds = random_dataset(rng, dims=(3, 4), n_classes=2, per_class=4)
    ws = random_projections(rng, ds.dims, (2, 2))
    with pytest.raises(ValueError, match="mode"):
        mode_k_class_specific_scatters(ds, 1, ws, 2)
    with pytest.raises(ValueError, match="projection"):
        mode_k_class_specific_scatters(ds, 1, [ws[0]], 0)


# ---------------------------------------------------------------------------
# the syrk product path: exact symmetry and bit-identity with h @ h^T


def test_public_scatters_exactly_symmetric(rng):
    ds = random_dataset(rng, dims=(5, 4, 3), n_classes=3, per_class=7)
    ws = random_projections(rng, ds.dims, (2, 2, 2))
    pairs = [lda_scatters(ds), csda_scatters(ds, 2)]
    for mode in range(3):
        pairs.append(mode_k_class_specific_scatters(ds, 2, ws, mode))
        pairs.append(mda_mode_scatters(ds, ws, mode))
    for pair in pairs:
        for s in (pair.numerator, pair.denominator):
            assert np.array_equal(s, s.T)


def _stack_layouts(rng, dims):
    base = rng.normal(size=(9, *dims))
    wide = rng.normal(size=(9, *dims[:-1], 2 * dims[-1]))
    return {
        "C": base,
        "F": np.asfortranarray(base),
        "sliced samples": rng.normal(size=(18, *dims))[::2],
        "sliced last mode": wide[..., ::2],
    }


def _gram_by_matmul(stack, ws, mode):
    h = _project_layout(_mode_layout(stack, mode), ws, mode)
    if not (h.flags.c_contiguous or h.flags.f_contiguous):
        # numpy's matmul runs a loop of its own, not BLAS, on a strided
        # operand; compare with the product of its contiguous copy
        h = np.ascontiguousarray(h)
    return h @ h.T


@pytest.mark.parametrize("dims", [(7,), (6, 5), (5, 4, 3)])
def test_scatter_pair_bit_identical_to_matmul(rng, dims):
    for name, stack in _stack_layouts(rng, dims).items():
        # no projections: the plain scatters of the flattened (N, P)
        # stacks that lda and csda pass
        cases = [(_flatten_samples(stack), (), 0)]
        ws = random_projections(rng, dims, (2,) * len(dims))
        cases += [(stack, ws, mode) for mode in range(len(dims))]
        for case, ws, mode in cases:
            pair = _scatter_pair(case, case[1::3], ws, mode)
            want_num = _gram_by_matmul(case, ws, mode)
            want_den = _gram_by_matmul(case[1::3], ws, mode)
            assert np.array_equal(pair.numerator, want_num), (name, mode)
            assert np.array_equal(pair.denominator, want_den), (name, mode)


# ---------------------------------------------------------------------------
# the fit engine's path: a stack laid out once per mode, then contracted


def _layout_scatter(stack, ws, mode):
    """The mode scatter as the fit engine builds it each sweep."""
    return _gram(_project_layout(_mode_layout(stack, mode), ws, mode))


def scatter_by_einsum(stack, ws, mode):
    """Reference: project every other mode and sum the outer products of
    the mode-`mode` fibers, all in one einsum each."""
    letters = "abcdefgh"
    k = stack.ndim - 1
    terms = ["z" + "".join(letters[q].upper() for q in range(k))]
    out = ["z"] + [letters[q] for q in range(k)]
    for q, w in enumerate(ws):
        if q != mode:
            terms.append(letters[q].upper() + letters[q])
    out[mode + 1] = letters[mode].upper()
    operands = [stack] + [w for q, w in enumerate(ws) if q != mode]
    p = np.einsum(",".join(terms) + "->" + "".join(out), *operands)
    u = np.moveaxis(p, mode + 1, 0).reshape(stack.shape[mode + 1], -1)
    return np.einsum("im,jm->ij", u, u)


@settings(deadline=None, max_examples=60)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    n=st.integers(0, 5),
    layout=st.sampled_from(["C", "F", "sliced"]),
    data=st.data(),
)
def test_layout_scatter_matches_einsum(dims, n, layout, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(2 * n, *dims))
    stack = {"C": base[:n], "F": np.asfortranarray(base[:n]), "sliced": base[::2]}[layout]
    sub = [data.draw(st.integers(1, i)) for i in dims]
    ws = [rng.normal(size=(i, j)) for i, j in zip(dims, sub)]
    for mode in range(len(dims)):
        got = _layout_scatter(stack, ws, mode)
        want = scatter_by_einsum(stack, ws, mode)
        assert got.shape == (dims[mode], dims[mode])
        atol = 1e-12 * np.abs(want).max(initial=0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
        assert np.array_equal(got, got.T)
        # the public scatter functions lay the stack out per call: same bits
        assert np.array_equal(got, _scatter_pair(stack, stack, ws, mode).numerator)
