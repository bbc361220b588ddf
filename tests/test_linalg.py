"""Ratio-trace eigensolver tests against an explicit-inverse oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg import eigh, subspace_angles

import mcsda.linalg
from mcsda import EigenBasis, ScatterPair, regularize, solve_ratio_trace
from mcsda.linalg import _solve_factor


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    r = rng.normal(size=(n, rank))
    s = r @ r.T
    return 0.5 * (s + s.T)


def eig_by_explicit_inverse(num, den_reg, d):
    """Eigenvalues of inv(den_reg) @ num, sorted descending. Numerically
    cruder than the production path, which is the point."""
    vals = np.linalg.eigvals(np.linalg.inv(den_reg) @ num)
    assert np.abs(vals.imag).max() < 1e-8
    return np.sort(vals.real)[::-1][:d]


def assert_basis_contract(pair, basis, ridge, tol=1e-8):
    num = pair.numerator
    den_reg = regularize(pair.denominator, ridge)
    # residuals of every returned eigenpair
    for j in range(basis.vectors.shape[1]):
        w = basis.vectors[:, j]
        lam = basis.values[j]
        resid = np.linalg.norm(num @ w - lam * (den_reg @ w))
        bound = tol * (np.linalg.norm(num) + abs(lam) * np.linalg.norm(den_reg))
        assert resid <= bound * max(np.linalg.norm(w), 1e-300)
    # denominator-orthonormal columns
    gram = basis.vectors.T @ den_reg @ basis.vectors
    assert np.abs(gram - np.eye(gram.shape[0])).max() <= tol
    # ordering and sign convention
    assert np.all(np.diff(basis.values) <= 1e-12)
    for j in range(basis.vectors.shape[1]):
        col = basis.vectors[:, j]
        assert col[np.argmax(np.abs(col))] >= 0


def test_regularize_frozen():
    s = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(regularize(s, 0.5), s + 0.5 * np.eye(2))
    assert np.array_equal(regularize(np.zeros((3, 3)), 0.0), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="square"):
        regularize(np.zeros((2, 3)), 0.1)


def test_scatter_pair_validation():
    with pytest.raises(ValueError, match="square"):
        ScatterPair(numerator=np.zeros((2, 3)), denominator=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="match"):
        ScatterPair(numerator=np.zeros((2, 2)), denominator=np.zeros((3, 3)))


def test_diagonal_pair_identity_denominator():
    pair = ScatterPair(numerator=np.diag([4.0, 1.0]), denominator=np.eye(2))
    basis = solve_ratio_trace(pair, 1, ridge=0.0)
    assert basis.values[0] == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(np.abs(basis.vectors[:, 0]), [1.0, 0.0], atol=1e-12)
    assert basis.vectors[0, 0] > 0


def test_diagonal_pair_frozen():
    # eigenvalues of diag(2,0) against diag(1,2): 2/1 and 0/2
    pair = ScatterPair(numerator=np.diag([2.0, 0.0]), denominator=np.diag([1.0, 2.0]))
    basis = solve_ratio_trace(pair, 2, ridge=0.0)
    assert np.allclose(basis.values, [2.0, 0.0], atol=1e-12)
    # denominator-orthonormal: second column is e2 / sqrt(2)
    assert np.allclose(basis.vectors[:, 0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(basis.vectors[:, 1], [0.0, 1.0 / np.sqrt(2.0)], atol=1e-12)


def test_identity_denominator_matches_plain_eigh(rng):
    num = random_psd(rng, 6)
    pair = ScatterPair(numerator=num, denominator=np.eye(6))
    basis = solve_ratio_trace(pair, 6, ridge=0.0)
    plain_vals = np.linalg.eigvalsh(num)[::-1]
    assert np.allclose(basis.values, plain_vals, rtol=1e-10, atol=1e-10)


def test_matches_explicit_inverse_oracle(rng):
    num = random_psd(rng, 5)
    den = random_psd(rng, 5)
    ridge = 0.01
    pair = ScatterPair(numerator=num, denominator=den)
    basis = solve_ratio_trace(pair, 3, ridge=ridge)
    oracle_vals = eig_by_explicit_inverse(num, regularize(den, ridge), 3)
    assert np.allclose(basis.values, oracle_vals, rtol=1e-8, atol=1e-8)
    assert_basis_contract(pair, basis, ridge)


def test_numerator_scaling_property(rng):
    num = random_psd(rng, 6)
    den = random_psd(rng, 6)
    pair = ScatterPair(numerator=num, denominator=den)
    scaled = ScatterPair(numerator=3.0 * num, denominator=den)
    b1 = solve_ratio_trace(pair, 3, ridge=0.01)
    b2 = solve_ratio_trace(scaled, 3, ridge=0.01)
    assert np.allclose(b2.values, 3.0 * b1.values, rtol=1e-10)
    angles = subspace_angles(b1.vectors, b2.vectors)
    assert angles.max() < 1e-8


def test_values_nonnegative_for_psd_input(rng):
    for _ in range(5):
        n = int(rng.integers(2, 12))
        pair = ScatterPair(
            numerator=random_psd(rng, n, rank=max(1, n // 2)),
            denominator=random_psd(rng, n),
        )
        basis = solve_ratio_trace(pair, n, ridge=0.01)
        assert basis.values.min() >= -1e-10


def test_rank_deficient_denominator_needs_ridge(rng):
    # a rank-deficient denominator without regularization fails with the
    # pivot named; with ridge it succeeds
    den = np.zeros((3, 3))
    den[0, 0] = 1.0
    pair = ScatterPair(numerator=np.eye(3), denominator=den)
    with pytest.raises(LinAlgError, match="pivot"):
        solve_ratio_trace(pair, 2, ridge=0.0)
    basis = solve_ratio_trace(pair, 2, ridge=0.01)
    assert isinstance(basis, EigenBasis)
    assert_basis_contract(pair, basis, 0.01)


def test_subspace_dim_out_of_range():
    pair = ScatterPair(numerator=np.eye(3), denominator=np.eye(3))
    with pytest.raises(ValueError, match="1..3"):
        solve_ratio_trace(pair, 4, ridge=0.0)
    with pytest.raises(ValueError, match="1..3"):
        solve_ratio_trace(pair, 0, ridge=0.0)


def test_contract_on_many_random_pairs(rng):
    for _ in range(20):
        n = int(rng.integers(2, 16))
        d = int(rng.integers(1, n + 1))
        pair = ScatterPair(
            numerator=random_psd(rng, n),
            denominator=random_psd(rng, n, rank=max(1, n - 1)),
        )
        basis = solve_ratio_trace(pair, d, ridge=0.01)
        assert basis.vectors.shape == (n, d)
        assert basis.values.shape == (d,)
        assert_basis_contract(pair, basis, 0.01)


# ---------------------------------------------------------------------------
# the direct LAPACK call against scipy.linalg.eigh


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(1, 40),
    ridge=st.sampled_from([0.0, 1e-2, 10.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_solve_bit_identical_to_eigh(n, ridge, seed, data):
    # the solver calls the LAPACK routine eigh picks for this problem,
    # with the same arguments: values and vectors must match bit for bit
    rng = np.random.default_rng(seed)
    d = data.draw(st.integers(1, n), label="d")
    num = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
    den = random_psd(rng, n) + 1e-3 * np.eye(n)
    num_before, den_before = num.copy(), den.copy()
    basis = solve_ratio_trace(ScatterPair(numerator=num, denominator=den), d, ridge)
    values, vectors = eigh(num, den + ridge * np.eye(n), subset_by_index=[n - d, n - 1])
    values, vectors = values[::-1], vectors[:, ::-1].copy()
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(d)] < 0
    vectors[:, flip] *= -1.0
    assert np.array_equal(basis.values, values)
    assert np.array_equal(basis.vectors, vectors)
    # neither input is written to
    assert np.array_equal(num, num_before)
    assert np.array_equal(den, den_before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["numerator", "denominator"])
def test_non_finite_scatter_raises(bad, where):
    texts = []
    for overwrite in (False, True):
        mats = {"numerator": np.eye(3), "denominator": np.eye(3)}
        mats[where][1, 0] = bad
        with pytest.raises(ValueError, match="NaN or inf") as raised:
            solve_ratio_trace(ScatterPair(**mats), 2, ridge=0.01, overwrite=overwrite)
        texts.append(str(raised.value))
    assert texts[0] == texts[1]


def test_non_finite_ridge_raises():
    pair = ScatterPair(numerator=np.eye(3), denominator=np.eye(3))
    with pytest.raises(ValueError, match="NaN or inf"):
        solve_ratio_trace(pair, 2, ridge=np.inf)


def test_unconverged_eigenvectors_raise(monkeypatch):
    # dsygvx reports 0 < info <= n when that many eigenvectors failed to
    # converge; the solver must not return them
    def fake_dsygvx(a, b, **kwargs):
        n = a.shape[0]
        return np.zeros(n), np.zeros((n, n)), n, np.zeros(n, dtype=np.int32), 2

    monkeypatch.setattr(mcsda.linalg, "dsygvx", fake_dsygvx)
    pair = ScatterPair(numerator=np.eye(3), denominator=np.eye(3))
    with pytest.raises(LinAlgError, match="2 eigenvectors"):
        solve_ratio_trace(pair, 2, ridge=0.01)


# ---------------------------------------------------------------------------
# the solves the fit engine calls: on lower-triangle scatters, and on a
# numerator given by its factor


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 30),
    ridge=st.sampled_from([0.0, 1e-2, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_reads_only_lower_triangles(n, ridge, seed):
    # LAPACK reads lower triangles only: the fit's Fortran-ordered dsyrk
    # outputs, their strict upper triangles zero, and any other order of
    # them give the bits of the mirrored pair
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, n + 1))
    num = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
    den = random_psd(rng, n) + 1e-3 * np.eye(n)
    want = solve_ratio_trace(ScatterPair(numerator=num, denominator=den), d, ridge)
    for order in "FC":
        for overwrite in (False, True):
            # a fresh pair for each call: with overwrite it is scratch
            lower = ScatterPair(*(np.array(np.tril(m), order=order) for m in (num, den)))
            got = solve_ratio_trace(lower, d, ridge, overwrite=overwrite)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.vectors, want.vectors)


@pytest.mark.parametrize("order", "FC")
def test_overwrite_of_an_aliased_pair(rng, order):
    # numerator and denominator in one buffer: the in-place ridge and
    # dsygvx's writes to one must not reach the other
    m = np.array(random_psd(rng, 8) + 1e-3 * np.eye(8), order=order)
    want = solve_ratio_trace(ScatterPair(m, m.copy()), 3, 0.5)
    got = solve_ratio_trace(ScatterPair(m, m), 3, 0.5, overwrite=True)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.vectors, want.vectors)


@settings(deadline=None, max_examples=150)
@given(
    n=st.integers(1, 12),
    rows=st.integers(2, 6),
    ridge=st.sampled_from([0.0, 1e-2, 1.0]),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_factor_solve_matches_the_full_pencil(n, rows, ridge, tied, seed, data):
    # the between-class route, x x^T against b + ridge I for an (n, rows)
    # factor x, solves the same pencil as solve_ratio_trace on the full
    # scatters: the same vectors where the top d eigenvalues are
    # separated, the same span where some are tied (equal orthogonal
    # columns of x against an identity denominator)
    rng = np.random.default_rng(seed)
    if tied:
        rows = min(rows, n)
        d = rows
        x = 3.0 * np.linalg.qr(rng.normal(size=(n, rows)))[0]
        den = np.eye(n) if ridge else 2.0 * np.eye(n)
    else:
        d = data.draw(st.integers(1, min(n, rows)), label="d")
        x = rng.normal(size=(n, rows))
        # W^T B W - I grows with the condition of B + ridge I for dsygvx and
        # this route alike (both near 1e-12 at n + 1 samples and a 1e-3
        # floor): draw n + 3 or more samples and a 1e-2 floor
        r = rng.normal(size=(n, n + int(rng.integers(3, 7))))
        den = r @ r.T + (1e-2 * np.eye(n) if ridge == 0.0 else 0.0)
    want = solve_ratio_trace(ScatterPair(numerator=x @ x.T, denominator=den), d, ridge)
    x_before = x.copy()
    got = _solve_factor(x, np.asfortranarray(np.tril(den)), d, ridge)
    assert np.array_equal(x, x_before)  # the factor is not the solve's own
    den_reg = den + ridge * np.eye(n)
    assert np.abs(got.vectors.T @ den_reg @ got.vectors - np.eye(d)).max() <= 1e-12
    np.testing.assert_allclose(got.values, want.values, rtol=1e-10, atol=1e-12 * want.values[0])
    every = solve_ratio_trace(ScatterPair(numerator=x @ x.T, denominator=den), n, ridge).values
    gaps = -np.diff(every[: d + 1]) / every[0]
    if d < n:
        assert max(subspace_angles(got.vectors, want.vectors)) < 1e-10
    if (gaps > 1e-3).all():
        scale = np.abs(want.vectors).max()
        np.testing.assert_allclose(got.vectors, want.vectors, rtol=1e-10, atol=1e-10 * scale)
        for j in range(d):
            col = got.vectors[:, j]
            assert col[np.argmax(np.abs(col))] >= 0


def test_factor_solve_errors_match_the_public_solve():
    # the same exception and text as solve_ratio_trace on the full pencil
    x = np.ones((3, 2))
    den = np.zeros((3, 3))
    den[0, 0] = 1.0
    bad_x = x.copy()
    bad_x[1, 0] = np.nan
    for x_, den_, d in ((x, den, 1), (x, np.eye(3), 4), (x, np.eye(3), 0), (bad_x, np.eye(3), 1)):
        with pytest.raises((LinAlgError, ValueError)) as public:
            solve_ratio_trace(ScatterPair(numerator=x_ @ x_.T, denominator=den_), d, 0.0)
        text = f"^{re.escape(str(public.value))}$"
        # and the same again when the solve owns its copies of both
        with pytest.raises(type(public.value), match=text) as owned:
            pair = ScatterPair(numerator=x_ @ x_.T, denominator=den_.copy())
            solve_ratio_trace(pair, d, 0.0, overwrite=True)
        assert type(owned.value) is type(public.value)
        with pytest.raises(type(public.value), match=text):
            _solve_factor(x_, np.asfortranarray(den_), d, 0.0)
    # coincident columns: a zero singular value is an eigenvalue-0
    # direction, not a division by zero
    basis = _solve_factor(x, np.eye(3, order="F"), 2, 0.0)
    assert basis.values[0] == pytest.approx(6.0, rel=1e-14)
    assert abs(basis.values[1]) <= 1e-14
    assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(2), rtol=0, atol=1e-15)
