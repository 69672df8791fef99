import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandit_lab
from bandit_lab.linalg import (
    DegenerateSpectrumError,
    cutoff_pinv_solve,
    eigendecompose,
    gaussian_sampler,
    rank_threshold,
    spectral_norm,
    sym_matrix,
    truncated_pinv_apply,
)


def random_symmetric(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2.0


@st.composite
def symmetric_matrices(draw):
    d = draw(st.integers(min_value=1, max_value=8))
    entries = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=d * d,
            max_size=d * d,
        )
    )
    return sym_matrix(np.array(entries).reshape(d, d))


class TestEigendecompose:
    def test_identity(self):
        eig = eigendecompose(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        eig = eigendecompose(np.diag([3.0, 1.0]))
        assert np.allclose(eig.eigenvalues, [3.0, 1.0])
        # eigenvectors are the axes, up to sign
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-12)

    def test_two_by_two(self):
        # roots of the characteristic polynomial l^2 - 4l + 3 = (l - 3)(l - 1)
        eig = eigendecompose([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eig.eigenvalues, [3.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigendecompose([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((2, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(rng, 6)
        first = eigendecompose(a)
        second = eigendecompose(a)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    @settings(max_examples=60, deadline=None)
    @given(symmetric_matrices())
    def test_reconstruction_and_orthonormality(self, a):
        eig = eigendecompose(a)
        u, lam = eig.eigenvectors, eig.eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.max(np.abs(u.T @ u - np.eye(eig.dim))) <= 1e-10
        recon = (u * lam) @ u.T
        assert np.max(np.abs(recon - a)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_exactly_symmetric_input_skips_the_copy_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        g = rng.standard_normal((d, d))
        for a in (g + g.T, g @ g.T, np.asfortranarray(g + g.T), (g + g.T)[::-1, ::-1]):
            assert np.array_equal(a, a.T)
            vals, vecs = np.linalg.eigh(sym_matrix(a))
            eig = eigendecompose(a)
            assert np.array_equal(eig.eigenvalues, vals[::-1])
            assert np.array_equal(eig.eigenvectors, vecs[:, ::-1])

    def test_asymmetric_input_is_still_averaged(self):
        a = np.random.default_rng(5).standard_normal((4, 4))
        vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
        eig = eigendecompose(a)
        assert np.array_equal(eig.eigenvalues, vals[::-1])
        assert np.array_equal(eig.eigenvectors, vecs[:, ::-1])
        assert not np.array_equal(eig.eigenvalues, np.linalg.eigvalsh(a)[::-1])  # not the lower triangle alone

    @pytest.mark.parametrize(
        "a",
        [
            np.diag([np.inf, 1.0]),
            np.diag([np.nan, 1.0]),
            np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
            np.zeros((2, 3)),
            np.zeros(3),
            np.zeros((0, 0)),
            np.zeros((1, 2, 2)),
        ],
    )
    def test_rejects_non_finite_non_square_and_empty_arrays(self, a):
        with pytest.raises(ValueError):
            eigendecompose(a)


class TestRankThreshold:
    def setup_method(self):
        self.eig = eigendecompose(np.diag([5.0, 3.0, 0.5]))

    def test_counts(self):
        assert rank_threshold(self.eig, 1.0) == 2

    def test_none_qualify(self):
        assert rank_threshold(self.eig, 10.0) == 0

    def test_boundary_inclusive(self):
        assert rank_threshold(self.eig, 0.5) == 3

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            rank_threshold(self.eig, -1.0)


class TestTruncatedPinvApply:
    def test_identity_full_rank(self):
        eig = eigendecompose(np.eye(4))
        y = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(truncated_pinv_apply(eig, 4, y), y)

    def test_k_zero_gives_zero_vector(self):
        eig = eigendecompose(np.diag([2.0, 1.0]))
        assert np.array_equal(truncated_pinv_apply(eig, 0, np.array([4.0, 7.0])), np.zeros(2))

    def test_rank_one_projection(self):
        # project (4, 7) onto the top eigendirection e1 and divide by 2
        eig = eigendecompose(np.diag([2.0, 1.0]))
        assert np.allclose(truncated_pinv_apply(eig, 1, np.array([4.0, 7.0])), [2.0, 0.0])

    def test_degenerate_spectrum_error(self):
        eig = eigendecompose(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateSpectrumError):
            truncated_pinv_apply(eig, 2, np.array([1.0, 1.0]))

    def test_full_rank_matches_exact_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            root = rng.standard_normal((5, 5))
            a = root @ root.T + 0.5 * np.eye(5)
            y = rng.standard_normal(5)
            got = truncated_pinv_apply(eigendecompose(a), 5, y)
            expected = np.linalg.solve(a, y)
            assert np.linalg.norm(got - expected) <= 1e-8 * np.linalg.norm(expected)



class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_golden_ratio(self):
        # top eigenvalue of A^T A solves l^2 - 3l + 1 = 0; its square root is
        # the golden ratio
        expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        assert spectral_norm([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(expected, rel=1e-8)

    def test_vector_is_its_two_norm(self):
        # A 1-D input is read as one column, whose only singular value is its length.
        v = np.array([3.0, -4.0, 12.0])
        assert spectral_norm(v) == pytest.approx(np.linalg.norm(v), rel=1e-12)
        assert spectral_norm(v) == pytest.approx(13.0, rel=1e-12)



class TestCutoffPinvSolve:
    def test_positive_definite_matches_solve(self):
        rng = np.random.default_rng(4)
        root = rng.standard_normal((6, 6))
        a = root @ root.T + np.eye(6)
        y = rng.standard_normal(6)
        assert np.allclose(cutoff_pinv_solve(a, y), np.linalg.solve(a, y))

    def test_singular_design_drops_null_directions(self):
        x = np.array([1.0, 2.0])
        a = np.outer(x, x)
        y = 3.0 * x
        got = cutoff_pinv_solve(a, y)
        assert np.allclose(a @ got, y)

    def test_zero_matrix_returns_zero(self):
        assert np.array_equal(cutoff_pinv_solve(np.zeros((3, 3)), np.ones(3)), np.zeros(3))


def test_sym_matrix_symmetrizes():
    out = sym_matrix([[1.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(out, out.T)
    assert out[0, 1] == pytest.approx(1.0)


class TestGaussianSampler:
    @pytest.mark.parametrize("shape", [(1, 3), (7, 3), (4, 5, 3), (2, 6, 5, 3)])
    def test_diagonal_draw_equals_cholesky_route(self, shape):
        cov = np.diag([0.1, 2.5, 0.7])
        draw = gaussian_sampler(cov)
        expected = np.random.default_rng(9).standard_normal(shape) @ np.linalg.cholesky(cov).T
        assert np.array_equal(draw(np.random.default_rng(9), shape), expected)

    @pytest.mark.parametrize(
        "asymmetric, symmetric",
        [
            ([[2.0, 1.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]),
            ([[2.0, 1.0], [-1.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]]),  # diagonal once symmetrized
        ],
    )
    def test_asymmetric_input_is_symmetrized(self, asymmetric, symmetric):
        draws = gaussian_sampler(asymmetric)(np.random.default_rng(2), (5, 2))
        assert np.array_equal(draws, gaussian_sampler(symmetric)(np.random.default_rng(2), (5, 2)))

    @pytest.mark.parametrize(
        "cov",
        [np.ones((2, 3)), np.ones(3), np.zeros((0, 0)), np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0]), [[1.0, np.inf], [0.0, 1.0]]],
    )
    def test_rejects_malformed_or_non_finite(self, cov):
        with pytest.raises(ValueError, match="square|finite"):
            gaussian_sampler(cov)

    @pytest.mark.parametrize(
        "cov",
        [[[1.0, 2.0], [2.0, 1.0]], np.diag([0.0, 1.0]), np.diag([-1.0, 1.0]), [[1.0, 1.0], [1.0, 1.0]]],
    )
    def test_not_positive_definite_raises_linalg_error(self, cov):
        with pytest.raises(np.linalg.LinAlgError, match="positive-definite"):
            gaussian_sampler(cov)


def test_covariance_handling_lives_only_in_linalg():
    # Factoring and symmetrizing a covariance is linalg's job; a second copy
    # elsewhere in the package is how the validation rules drifted apart.
    package = Path(bandit_lab.__file__).parent
    pattern = re.compile(r"np\.linalg\.cholesky\(|\.T\)\s*/\s*2")
    copies = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert copies == []
