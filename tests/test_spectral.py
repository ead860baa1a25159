import math

import numpy as np
import pytest

from fvptrunc import (EigenModel, ExponentOverflowError, GevreyParams, SpectralField,
                      UnsupportedDomainError, evaluate_on_grid, gevrey_norm, l2_norm)

PI2 = math.pi ** 2


@pytest.fixture(scope="module")
def model():
    return EigenModel.dirichlet_1d(16)


class TestEigenModel:
    def test_builtin_eigenvalues(self, model):
        assert model.eigenvalue(1) == PI2
        assert model.eigenvalue(3) == 9 * PI2

    def test_growth_bounds_collapse_for_exact_model(self, model):
        # e1 = e2 = pi^2 forces equality
        for j in range(1, model.mode_count + 1):
            lam = model.eigenvalue(j)
            assert model.e1 * j ** 2 == pytest.approx(lam, rel=1e-15)
            assert model.e2 * j ** 2 == pytest.approx(lam, rel=1e-15)

    def test_index_range_errors(self, model):
        with pytest.raises(IndexError):
            model.eigenvalue(0)
        with pytest.raises(IndexError):
            model.eigenvalue(model.mode_count + 1)

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(ValueError):
            EigenModel(dimension=1, lambdas=np.array([-1.0, 2.0]), e1=1.0, e2=10.0)

    @pytest.mark.parametrize("lambdas", [[1.0, math.nan], [math.nan, 2.0], [1.0, math.inf]])
    def test_rejects_non_finite_eigenvalues(self, lambdas):
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            EigenModel(dimension=1, lambdas=np.array(lambdas), e1=1.0, e2=10.0)

    def test_rejects_decreasing_sequence(self):
        with pytest.raises(ValueError):
            EigenModel(dimension=1, lambdas=np.array([4.0, 2.0]), e1=1.0, e2=10.0)

    def test_rejects_growth_bound_violation(self):
        # lambda_2 = 3 < e1 * 2^2 = 4
        with pytest.raises(ValueError):
            EigenModel(dimension=1, lambdas=np.array([1.0, 3.0]), e1=1.0, e2=1.0)

    def test_abstract_sequence_dimension_2(self):
        # d = 2: lambda_n ~ n, admits user-supplied sequences
        lam = np.arange(1.0, 9.0)
        m = EigenModel(dimension=2, lambdas=lam, e1=0.9, e2=1.1)
        assert m.eigenvalue(5) == 5.0


class TestL2Norm:
    def test_basis_mode(self, model):
        assert l2_norm(SpectralField.basis(model, 1)) == 1.0

    def test_zero(self, model):
        assert l2_norm(SpectralField.zero(model)) == 0.0

    def test_pythagoras(self, model):
        psi = SpectralField.from_coeffs(model, [(2, 3.0), (5, 4.0)])
        assert l2_norm(psi) == pytest.approx(5.0, rel=1e-15)

    def test_repeated_mode_rejected(self, model):
        # a second (2, x) pair would overwrite the first
        with pytest.raises(ValueError, match="mode 2 is given twice"):
            SpectralField.from_coeffs(model, [(2, 3.0), (1, 1.0), (2, 4.0)])

    def test_parseval_random(self, model):
        rng = np.random.default_rng(42)
        for _ in range(50):
            c = rng.standard_normal(model.mode_count)
            psi = SpectralField(model, c)
            assert l2_norm(psi) ** 2 == pytest.approx(float(np.sum(c * c)), rel=1e-12)


class TestGevreyNorm:
    def test_unweighted_is_l2(self, model):
        psi = SpectralField.basis(model, 1)
        assert gevrey_norm(psi, GevreyParams(0.0, 0.0)) == pytest.approx(1.0, rel=1e-15)

    def test_single_mode_closed_form(self, model):
        lam2 = 4 * PI2
        psi = SpectralField.basis(model, 2)
        expected = lam2 * math.exp(0.1 * lam2)  # sqrt(lam^2 e^{2 q lam}) at p=1, q=0.1
        assert gevrey_norm(psi, GevreyParams(1.0, 0.1)) == pytest.approx(expected, rel=1e-13)

    def test_two_mode_sum_against_termwise_oracle(self, model):
        # brute-force: sum the two single-mode squares directly
        gp = GevreyParams(1.0, 0.1)
        psi = SpectralField.from_coeffs(model, [(1, 1.0), (2, 1.0)])
        lam1, lam2 = PI2, 4 * PI2
        brute = math.sqrt(lam1 ** 2 * math.exp(0.2 * lam1) + lam2 ** 2 * math.exp(0.2 * lam2))
        assert gevrey_norm(psi, gp) == pytest.approx(brute, rel=1e-13)
        per_mode = math.sqrt(
            gevrey_norm(SpectralField.basis(model, 1), gp) ** 2
            + gevrey_norm(SpectralField.basis(model, 2), gp) ** 2)
        assert gevrey_norm(psi, gp) == pytest.approx(per_mode, rel=1e-13)

    def test_overflow_signalled(self, model):
        psi = SpectralField.basis(model, model.mode_count)
        with pytest.raises(ExponentOverflowError):
            gevrey_norm(psi, GevreyParams(0.0, 5.0))

    def test_zero_coefficients_never_overflow(self, model):
        # the huge weight multiplies a zero coefficient: no contribution
        psi = SpectralField.basis(model, 1)
        val = gevrey_norm(psi, GevreyParams(0.0, 5.0))
        assert val == pytest.approx(math.exp(5.0 * PI2), rel=1e-12)

    def test_monotone_in_weights(self, model):
        rng = np.random.default_rng(3)
        for _ in range(25):
            psi = SpectralField(model, rng.standard_normal(model.mode_count))
            p, q = rng.uniform(0, 2), rng.uniform(0, 0.2)
            dp, dq = rng.uniform(0, 1), rng.uniform(0, 0.1)
            assert gevrey_norm(psi, GevreyParams(p + dp, q + dq)) >= gevrey_norm(
                psi, GevreyParams(p, q)) * (1 - 1e-12)


class TestEvaluateOnGrid:
    def test_first_mode_midpoint(self, model):
        vals = evaluate_on_grid(SpectralField.basis(model, 1), [0.5])
        assert vals[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_dirichlet_boundary(self, model):
        rng = np.random.default_rng(5)
        psi = SpectralField(model, rng.standard_normal(model.mode_count))
        vals = evaluate_on_grid(psi, [0.0, 1.0])
        assert abs(vals[0]) < 1e-12 and abs(vals[1]) < 1e-12

    def test_second_mode_quarter_point(self, model):
        vals = evaluate_on_grid(SpectralField.basis(model, 2), [0.25])
        assert vals[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_non_1d_rejected(self):
        m = EigenModel(dimension=2, lambdas=np.arange(1.0, 5.0), e1=0.9, e2=1.1)
        with pytest.raises(UnsupportedDomainError):
            evaluate_on_grid(SpectralField.basis(m, 1), [0.5])

    def test_basis_orthonormal_under_quadrature(self, model):
        # sanity check of the basis convention, fine trapezoid grid
        x = np.linspace(0.0, 1.0, 20001)
        for i in (1, 2, 5):
            for j in (1, 2, 5):
                fi = evaluate_on_grid(SpectralField.basis(model, i), x)
                fj = evaluate_on_grid(SpectralField.basis(model, j), x)
                val = np.trapezoid(fi * fj, x)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


class TestFieldAlgebra:
    def test_models_never_mix(self, model):
        other = EigenModel.dirichlet_1d(8)
        with pytest.raises(ValueError):
            SpectralField.basis(model, 1) + SpectralField.basis(other, 1)

    def test_linear_ops(self, model):
        a = SpectralField.basis(model, 1)
        b = SpectralField.basis(model, 2)
        c = 2.0 * a - b * 3.0
        assert c.coeffs[0] == 2.0 and c.coeffs[1] == -3.0

    def test_coeffs_are_frozen(self, model):
        psi = SpectralField.basis(model, 1)
        with pytest.raises(ValueError):
            psi.coeffs[0] = 2.0
