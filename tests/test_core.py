import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfuda import core
from sfuda.core import (as_compute, derive_rng, derive_seed, knn_indices,
                        l2_normalize_rows, log_softmax, make_rng, one_hot, rounding_tol,
                        softmax)


class TestSoftmax:
    def test_equal_logits_split_evenly(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-12)

    def test_log2_gap(self):
        # exp(ln 2) = 2 against exp(0) = 1
        np.testing.assert_allclose(softmax([math.log(2.0), 0.0]),
                                   [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        out = softmax([1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.zeros(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    def test_log_softmax_matches_log_of_softmax(self):
        z = make_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)

    @given(arrays(np.float64, st.integers(1, 8),
                  elements=st.floats(-50, 50)))
    @settings(max_examples=60, deadline=None)
    def test_rows_form_distribution(self, z):
        p = softmax(z)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-9


class TestNormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_zero_row_error_names_index(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row 1"):
            l2_normalize_rows(m)

    def test_input_untouched(self):
        m = np.array([[3.0, 4.0]])
        keep = m.copy()
        l2_normalize_rows(m)
        np.testing.assert_array_equal(m, keep)

    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_unit_norms(self, seed, n, d):
        m = make_rng(seed).normal(size=(n, d)) + 0.05
        if np.any(np.linalg.norm(m, axis=1) == 0):
            return
        out = l2_normalize_rows(m)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestKnn:
    def test_collinear_middle_is_nearest_of_both_ends(self):
        # on the line x = 1 the middle point has the smallest angle to both ends
        pts = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 3.0]])
        nn = knn_indices(pts, 1)
        assert nn[0, 0] == 1
        assert nn[2, 0] == 1

    def test_duplicates_are_mutual(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, -1.0], [-2.0, 4.0]])
        nn = knn_indices(pts, 1)
        assert nn[0, 0] == 1
        assert nn[1, 0] == 0

    def test_k_equal_rows_rejected(self):
        pts = np.eye(3)
        with pytest.raises(ValueError, match="k=3"):
            knn_indices(pts, 3)

    def test_self_never_listed(self):
        pts = make_rng(4).normal(size=(10, 3))
        nn = knn_indices(pts, 9)
        for i in range(10):
            assert i not in nn[i]

    def test_cosine_ignores_magnitude(self):
        pts = np.array([[1.0, 0.0], [10.0, 0.1], [0.0, 1.0]])
        nn = knn_indices(pts, 1)
        assert nn[0, 0] == 1

    def test_unknown_metric(self):
        # cosine is the only metric: there is no argument to name another
        with pytest.raises(TypeError):
            knn_indices(np.eye(3), 1, metric="euclidean")
        with pytest.raises(TypeError):  # rows and unit are keyword-only
            knn_indices(np.eye(3), 1, "cosine")

    @given(st.integers(0, 10 ** 6), st.integers(3, 10))
    @settings(max_examples=40, deadline=None)
    def test_index_ranges(self, seed, n):
        pts = make_rng(seed).normal(size=(n, 4)) + 0.05
        k = min(3, n - 1)
        nn = knn_indices(pts, k)
        assert nn.shape == (n, k)
        assert np.all((0 <= nn) & (nn < n))
        for i in range(n):
            assert len(set(nn[i].tolist())) == k


def _stable_knn(m, k):
    """Full stable descending argsort of the cosine rows, self excluded."""
    u = l2_normalize_rows(m)
    sims = u @ u.T
    np.fill_diagonal(sims, -np.inf)
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


@st.composite
def knn_inputs(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 10 ** 6)))
    m = rng.normal(size=(n, d))
    shape = draw(st.sampled_from(["random", "rounded", "duplicated"]))
    if shape == "rounded":
        m = np.round(m)
    elif shape == "duplicated":
        m = m[rng.integers(0, max(1, n // 3), size=n)]
    m[~m.any(axis=1)] = 1.0   # cosine needs nonzero rows
    return m


class TestKnnMatchesStableSort:
    @given(knn_inputs())
    @settings(max_examples=150, deadline=None)
    def test_every_k_equals_the_stable_argsort(self, m):
        n = m.shape[0]
        full = _stable_knn(m, n - 1)
        for k in range(1, n):
            np.testing.assert_array_equal(knn_indices(m, k), full[:, :k])

    @given(knn_inputs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_smaller_table_is_a_prefix(self, m, data):
        n = m.shape[0]
        kk = data.draw(st.integers(1, n - 1))
        k = data.draw(st.integers(1, kk))
        np.testing.assert_array_equal(knn_indices(m, k), knn_indices(m, kk)[:, :k])


class TestRankedRows:
    """knn_indices(m, k, rows=R) ranks only R yet returns the full table's rows."""

    @staticmethod
    def ranked(m, k, rows):
        """knn_indices(m, k, rows=rows), and whether it fell back to the full
        table (the fallback calls the module-level name, which is spied on)."""
        real = core.knn_indices
        fell_back = []

        def spy(*args, **kwargs):
            fell_back.append(True)
            return real(*args, **kwargs)

        with mock.patch.object(core, "knn_indices", spy):
            out = real(m, k, rows=rows)
        return out, bool(fell_back)

    @given(knn_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_full_table_rows(self, m, data):
        self.check_rows(m, data)

    @given(knn_inputs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_float32_rows_equal_the_full_table_rows(self, m, data):
        self.check_rows(m.astype(np.float32), data)

    def check_rows(self, m, data):
        n = m.shape[0]
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)),
                        dtype=np.int64)
        # a ranked row with two exact copies elsewhere ties them at its lowest
        # cost, which no rounding bound can order
        copies = (m[rows][:, None, :] == m[None, :, :]).all(axis=2).sum(axis=1) - 1
        for k in range(1, n):
            got, fell_back = self.ranked(m, k, rows)
            assert got.shape == (rows.size, k)
            want = knn_indices(m, k)[rows]
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                knn_indices(m, k, rows=rows, unit=l2_normalize_rows(m.astype(np.float64))),
                want)
            if (copies >= 2).any():
                assert fell_back

    def test_ties_fall_back_and_separated_rows_do_not(self):
        rng = make_rng(3)
        m = rng.normal(size=(40, 8))
        got, fell_back = self.ranked(m, 5, np.array([7, 3, 3, 39]))
        assert not fell_back
        np.testing.assert_array_equal(got, knn_indices(m, 5)[[7, 3, 3, 39]])
        m[[11, 12]] = m[3]
        got, fell_back = self.ranked(m, 5, np.array([7, 3]))
        assert fell_back
        np.testing.assert_array_equal(got, knn_indices(m, 5)[[7, 3]])

    @pytest.mark.parametrize("rank", [1, 2], ids=["k+1_k+2", "k+2_k+3"])
    def test_a_tie_past_the_lowest_costs_changes_nothing(self, rank):
        """A copy of row 7's (k+rank)-th nearest row, put in place of its
        farthest, ties ranks k+rank and k+rank+1: outside its k+1 lowest
        costs, so neither the result nor the fallback decision moves."""
        k, rows = 5, np.array([7, 3, 7])
        m = make_rng(3).normal(size=(40, 8))
        before, fell_back = self.ranked(m, k, rows)
        assert not fell_back
        order = knn_indices(m, m.shape[0] - 1)[7]
        tied = m.copy()
        tied[order[-1]] = m[order[k + rank - 1]]
        assert (knn_indices(tied, k + rank + 1)[7, k + rank - 1:]
                == np.sort([order[k + rank - 1], order[-1]])).all()
        got, fell_back = self.ranked(tied, k, rows)
        assert not fell_back
        np.testing.assert_array_equal(got, knn_indices(tied, k)[rows])
        np.testing.assert_array_equal(got[[0, 2]], before[[0, 2]])

    def test_float32_rows_rank_in_float64(self):
        """A float32 matrix ranks in float64, so clustered rows whose nearest
        similarities lie closer than a float32 guard (2.4e-4 at width 256)
        rank without the full table, and equal its rows."""
        rng = make_rng(5)
        means = 3.0 * rng.normal(size=(20, 256))
        m = (means[np.repeat(np.arange(20), 25)] + rng.normal(size=(500, 256)))
        m = m.astype(np.float32)
        for size in (1, 7, 64):
            rows = rng.integers(0, 500, size=size)
            got, fell_back = self.ranked(m, 3, rows)
            assert not fell_back
            np.testing.assert_array_equal(got, knn_indices(m, 3)[rows])

    def test_nan_falls_back(self):
        m = make_rng(4).normal(size=(10, 3))
        m[6, 0] = np.nan
        got, fell_back = self.ranked(m, 2, np.array([0, 6]))
        assert fell_back
        np.testing.assert_array_equal(got, knn_indices(m, 2)[[0, 6]])

    def test_rows_outside_the_matrix_rejected(self):
        for rows in ([10], [-1], [[0, 1]]):
            with pytest.raises(ValueError, match="rows"):
                knn_indices(np.eye(10), 2, rows=np.array(rows))

    def test_unit_rows_must_match_the_matrix(self):
        with pytest.raises(ValueError, match="unit rows"):
            knn_indices(np.eye(10), 2, rows=np.arange(3), unit=np.eye(9))


class TestComputeDtype:
    def test_float32_stays_and_everything_else_is_float64(self):
        assert as_compute(np.zeros(2, dtype=np.float32)).dtype == np.float32
        for a in (np.zeros(2), np.zeros(2, dtype=np.float16), np.arange(2), [1.0], 2.0):
            assert as_compute(a).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_compute_array_is_not_copied(self, dtype):
        a = np.ones((2, 3), dtype=dtype)
        assert as_compute(a) is a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_primitives_compute_in_the_input_dtype(self, dtype):
        m = make_rng(0).normal(size=(6, 4)).astype(dtype)
        assert softmax(m).dtype == dtype
        assert log_softmax(m).dtype == dtype
        assert l2_normalize_rows(m).dtype == dtype
        assert one_hot(np.array([0, 3]), 4, dtype).dtype == dtype

    def test_rounding_tolerance(self):
        for n in (1, 65, 2048, 10 ** 6):
            assert rounding_tol(np.float64, n) == 1e-6
        # what float32 rounds to, measured: softmax sums of 65 classes off by
        # up to 4.2e-7, norms of 2,048-wide unit rows by 1.2e-7
        rng = make_rng(1)
        p = softmax(rng.normal(scale=4.0, size=(2000, 65)).astype(np.float32))
        assert np.abs(p.sum(axis=1) - 1.0).max() <= rounding_tol(np.float32, 65)
        u = l2_normalize_rows(rng.normal(size=(500, 2048)).astype(np.float32))
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= rounding_tol(np.float32, 2048)
        assert rounding_tol(np.float32, 2048) < 1e-3


class TestRngDerivation:
    def test_same_inputs_same_stream(self):
        a = derive_rng(3, "adapt").normal(size=4)
        b = derive_rng(3, "adapt").normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_tags_give_distinct_streams(self):
        a = derive_rng(3, "adapt").normal(size=4)
        b = derive_rng(3, "head-init").normal(size=4)
        assert not np.array_equal(a, b)

    def test_seeds_give_distinct_streams(self):
        a = derive_rng(3, "adapt").normal(size=4)
        b = derive_rng(4, "adapt").normal(size=4)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(0, "adapt") == derive_seed(0, "adapt")
        assert derive_seed(0, "adapt") != derive_seed(0, "adapt-shuffle")

    def test_make_rng_reproducible(self):
        np.testing.assert_array_equal(make_rng(11).integers(0, 100, 8),
                                      make_rng(11).integers(0, 100, 8))


class TestSmallUtilities:
    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
