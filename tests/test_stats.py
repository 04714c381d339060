import numpy as np
import pytest

from sfuda.core import make_rng
from sfuda.data import ResultsRow, ResultsTable
from sfuda.stats import adjusted_r2, fit_linear, fit_multilinear


def build_table(top1, pre, acc, task="SFUDA"):
    rows = [ResultsRow(f"bb{i}", float(t), int(p), task, float(a))
            for i, (t, p, a) in enumerate(zip(top1, pre, acc))]
    return ResultsTable(rows)


def predict_row(fit, top1, pretrain=0):
    """The fitted model's accuracy for one backbone."""
    return fit.q + fit.delta_q * pretrain + (fit.m + fit.delta_m * pretrain) * top1


def exact_line_table(n=10, m=0.9, q=5.0):
    top1 = np.linspace(55.0, 85.0, n)
    return build_table(top1, np.zeros(n), m * top1 + q), top1


class TestAdjustedR2:
    def test_perfect_fit_stays_perfect(self):
        assert adjusted_r2(1.0, 30, 3) == 1.0

    def test_hand_values(self):
        assert adjusted_r2(0.5, 12, 1) == pytest.approx(0.45)
        assert adjusted_r2(0.0, 11, 1) == pytest.approx(-1.0 / 9.0)

    def test_penalty_grows_with_predictor_count(self):
        assert adjusted_r2(0.8, 20, 1) > adjusted_r2(0.8, 20, 3)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="n > p \\+ 1"):
            adjusted_r2(0.5, 4, 3)


class TestLinearFit:
    def test_recovers_planted_line(self):
        table, _ = exact_line_table()
        fit = fit_linear(table)
        assert fit.m == pytest.approx(0.9, abs=1e-8)
        assert fit.q == pytest.approx(5.0, abs=1e-8)
        assert fit.delta_m == 0.0 and fit.delta_q == 0.0
        assert fit.adj_r2 == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(fit.residuals)) < 1e-8

    def test_predict_row_matches_the_line(self):
        table, _ = exact_line_table()
        fit = fit_linear(table)
        assert predict_row(fit, 70.0) == pytest.approx(0.9 * 70.0 + 5.0, abs=1e-8)

    def test_unrelated_response_scores_near_zero(self):
        rng = make_rng(3)
        top1 = rng.uniform(50.0, 90.0, 400)
        acc = 70.0 + rng.normal(0.0, 1.0, 400)
        fit = fit_linear(build_table(top1, np.zeros(400), acc))
        assert abs(fit.m) < 0.1
        assert fit.r2 < 0.05

    def test_residuals_are_orthogonal_to_the_design(self):
        rng = make_rng(7)
        top1 = rng.uniform(40.0, 95.0, 60)
        acc = 0.7 * top1 + 12.0 + rng.normal(0.0, 2.0, 60)
        fit = fit_linear(build_table(top1, np.zeros(60), acc))
        assert abs(fit.residuals.sum()) < 1e-8
        assert abs(fit.residuals @ top1) < 1e-6

    def test_task_filter_restricts_the_rows(self):
        top1 = np.linspace(50, 80, 8)
        rows_a = build_table(top1, np.zeros(8), 0.5 * top1 + 1.0, task="A").rows
        rows_b = build_table(top1, np.zeros(8), -0.5 * top1 + 90.0, task="B").rows
        mixed = ResultsTable(rows_a + rows_b)
        fit = fit_linear(mixed, task="B")
        assert fit.n == 8
        assert fit.m == pytest.approx(-0.5, abs=1e-8)

    def test_too_few_rows(self):
        table = build_table([50.0, 60.0], [0, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least 3 rows"):
            fit_linear(table)

    def test_constant_regressor_rejected(self):
        table = build_table(np.full(6, 70.0), np.zeros(6), np.arange(6.0))
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_linear(table)

    def test_constant_response_rejected(self):
        table = build_table(np.linspace(50, 80, 6), np.zeros(6), np.full(6, 42.0))
        with pytest.raises(ValueError, match="response is constant"):
            fit_linear(table)


class TestMultilinearFit:
    def planted(self, n_per=12, noise=0.0, rng=None):
        top1 = np.linspace(52.0, 88.0, n_per)
        top1 = np.concatenate([top1, top1])
        pre = np.repeat([0.0, 1.0], n_per)
        acc = 10.0 + 8.0 * pre + 0.5 * top1
        if noise:
            acc = acc + rng.normal(0.0, noise, acc.size)
        return build_table(top1, pre, acc)

    def test_recovers_planted_intercept_shift(self):
        fit = fit_multilinear(self.planted())
        assert fit.m == pytest.approx(0.5, abs=1e-8)
        assert fit.q == pytest.approx(10.0, abs=1e-8)
        assert fit.delta_q == pytest.approx(8.0, abs=1e-8)
        assert fit.delta_m == pytest.approx(0.0, abs=1e-8)
        assert fit.p == 3

    def test_predict_row_uses_the_group_terms(self):
        fit = fit_multilinear(self.planted())
        assert predict_row(fit, 70.0, 1) == pytest.approx(10.0 + 8.0 + 35.0,
                                                         abs=1e-8)
        assert predict_row(fit, 70.0, 0) == pytest.approx(45.0, abs=1e-8)

    def test_reduces_to_linear_when_groups_share_a_line(self):
        top1 = np.concatenate([np.linspace(50, 80, 10), np.linspace(51, 81, 10)])
        pre = np.repeat([0.0, 1.0], 10)
        acc = 0.6 * top1 + 20.0
        table = build_table(top1, pre, acc)
        mfit = fit_multilinear(table)
        lfit = fit_linear(table)
        assert mfit.delta_m == pytest.approx(0.0, abs=1e-8)
        assert mfit.delta_q == pytest.approx(0.0, abs=1e-8)
        assert mfit.m == pytest.approx(lfit.m, abs=1e-8)
        assert mfit.q == pytest.approx(lfit.q, abs=1e-8)

    def test_beats_linear_when_a_group_offset_exists(self):
        table = self.planted(noise=1.0, rng=make_rng(11))
        mfit = fit_multilinear(table)
        lfit = fit_linear(table)
        assert mfit.adj_r2 > lfit.adj_r2

    def test_missing_group_rejected(self):
        top1 = np.linspace(50, 80, 8)
        table = build_table(top1, np.zeros(8), 0.5 * top1)
        with pytest.raises(ValueError, match="pretrain=1"):
            fit_multilinear(table)

    def test_singleton_group_rejected(self):
        top1 = np.linspace(50, 80, 8)
        pre = np.array([0, 0, 0, 0, 0, 0, 0, 1])
        table = build_table(top1, pre, 0.5 * top1 + pre)
        with pytest.raises(ValueError, match="pretrain=1"):
            fit_multilinear(table)

    def test_too_few_rows(self):
        top1 = np.array([50.0, 60.0, 55.0, 65.0])
        pre = np.array([0, 0, 1, 1])
        table = build_table(top1, pre, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="at least 6 rows"):
            fit_multilinear(table)

    def test_residuals_orthogonal_to_all_four_columns(self):
        table = self.planted(noise=2.0, rng=make_rng(5))
        fit = fit_multilinear(table)
        top1 = np.array([r.top1 for r in table.rows])
        pre = np.array([float(r.pretrain) for r in table.rows])
        design = np.column_stack([np.ones(top1.size), top1, pre, pre * top1])
        assert np.max(np.abs(design.T @ fit.residuals)) < 1e-6
