import numpy as np
import pytest

from conftest import max_rel_err
from sfuda.core import knn_indices, make_rng, softmax
from sfuda.data import ShiftSpec, gen_gaussian_pair
from sfuda.engine import DistConfig
from sfuda.head import (PARAM_NAMES, HeadConfig, TrainConfig, backward,
                        evaluate, forward, init_head, inverse_decay, train_supervised)
from sfuda.neighbors import (AadConfig, MemoryBank, NrcConfig, aad_adapt,
                             aad_loss, build_bank, nrc_adapt,
                             nrc_loss, reciprocal_flags, sample_backgrounds,
                             softmax_score_grad)


def circle(degs):
    r = np.deg2rad(np.asarray(degs, dtype=np.float64))
    return np.stack([np.cos(r), np.sin(r)], axis=1)


def two_pair_bank():
    """Two tight mutual pairs on the unit circle with shared score rows."""
    feats = circle([0.0, 10.0, 180.0, 190.0])
    u = np.array([0.7, 0.2, 0.1])
    v = np.array([0.1, 0.3, 0.6])
    return MemoryBank(feats, np.stack([u, u, v, v]))


def random_bank(rng, n, c, d=4):
    feats = rng.normal(size=(n, d)) + 0.2
    return MemoryBank(feats / np.linalg.norm(feats, axis=1, keepdims=True),
                      rng.dirichlet(np.ones(c), size=n))


class TestMemoryBank:
    def test_non_unit_features_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            MemoryBank(np.array([[2.0, 0.0]]), np.array([[1.0]]))

    def test_non_simplex_scores_rejected(self):
        with pytest.raises(ValueError, match="simplex"):
            MemoryBank(np.eye(2), np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row counts"):
            MemoryBank(np.eye(3), np.full((2, 2), 0.5))

    def test_build_bank_snapshots_eval_outputs(self):
        model = init_head(HeadConfig(4, 3, hidden_dim=6, seed=0))
        x = make_rng(1).normal(size=(10, 4)) + 0.3
        bank = build_bank(model, x)
        logits, feats, _ = forward(model, x, "eval")
        np.testing.assert_allclose(np.linalg.norm(bank.features, axis=1), 1.0,
                                   atol=1e-9)
        np.testing.assert_array_equal(bank.scores, softmax(logits))
        np.testing.assert_allclose(bank.scores.sum(axis=1), 1.0, atol=1e-9)

    def test_refresh_renormalizes(self):
        bank = two_pair_bank()
        bank.refresh(np.array([0]), np.array([[3.0, 4.0]]),
                     np.array([[0.2, 0.3, 0.5]]))
        np.testing.assert_allclose(bank.features[0], [0.6, 0.8], atol=1e-12)
        np.testing.assert_array_equal(bank.scores[0], [0.2, 0.3, 0.5])


class TestReciprocalFlags:
    def test_mutual_pairs_all_true(self):
        flags = reciprocal_flags(two_pair_bank(), 1)
        assert flags.shape == (4, 1)
        assert flags.all()

    def test_chain_breaks_the_first_link(self):
        # nn(a)=b, nn(b)=c, nn(c)=b: only the pair (b, c) is mutual
        bank = MemoryBank(circle([0.0, 20.0, 30.0]), np.full((3, 2), 0.5))
        flags = reciprocal_flags(bank, 1)
        np.testing.assert_array_equal(flags.ravel(), [False, True, True])

    def test_duplicates_are_mutual(self):
        feats = circle([40.0, 40.0, 200.0, 212.0])
        bank = MemoryBank(feats, np.full((4, 2), 0.5))
        flags = reciprocal_flags(bank, 1)
        assert flags[0, 0] and flags[1, 0]

    def test_batch_rows_and_a_wider_table(self):
        bank = random_bank(make_rng(11), 15, 3)
        full = reciprocal_flags(bank, 2)
        rows = np.array([9, 0, 4, 4])
        wide = knn_indices(bank.features, 5)
        np.testing.assert_array_equal(reciprocal_flags(bank, 2, rows), full[rows])
        np.testing.assert_array_equal(reciprocal_flags(bank, 2, rows, wide), full[rows])


class TestNrcLoss:
    def test_two_pair_hand_value(self):
        # all neighbors reciprocal, r=0 kills the expanded term, and each
        # neighbor carries the same score row as its partner, so the affinity
        # plus self-anchor part collapses to -2 * mean squared score norm
        bank = two_pair_bank()
        cfg = NrcConfig(K=1, KK=1, r=0.0)
        p = bank.scores.copy()
        value, _ = nrc_loss(p, np.arange(4), bank, cfg)
        pbar = p.mean(axis=0)
        div = float((pbar * np.log(pbar)).sum())
        expect = -2.0 * float((p * p).sum(axis=1).mean())
        assert abs((value - div) - expect) < 1e-12

    def test_full_affinity_ignores_the_flags(self):
        bank = two_pair_bank()
        p = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3],
                      [0.1, 0.1, 0.8], [0.4, 0.4, 0.2]])
        cfg = NrcConfig(K=2, KK=2, r=1.0)
        base, gbase = nrc_loss(p, np.arange(4), bank, cfg)
        for flags in (np.ones((4, 2), bool), np.zeros((4, 2), bool)):
            v, g = nrc_loss(p, np.arange(4), bank, cfg, reciprocal_override=flags)
            assert v == base
            np.testing.assert_array_equal(g, gbase)

    def test_agreement_with_neighbors_scores_lower(self):
        bank = two_pair_bank()
        cfg = NrcConfig(K=1, KK=1, r=0.0)
        agree = bank.scores.copy()
        disagree = bank.scores[[2, 3, 0, 1]]
        anchor = np.full((4, 3), 1.0 / 3.0)
        v_agree, _ = nrc_loss(agree, np.arange(4), bank, cfg, self_anchor=anchor)
        v_disagree, _ = nrc_loss(disagree, np.arange(4), bank, cfg,
                                 self_anchor=anchor)
        assert v_agree < v_disagree

    def test_batch_permutation_invariance(self):
        rng = make_rng(2)
        feats = rng.normal(size=(12, 4)) + 0.2
        bank = MemoryBank(feats / np.linalg.norm(feats, axis=1, keepdims=True),
                          rng.dirichlet(np.ones(3), size=12))
        p = rng.dirichlet(np.ones(3), size=6)
        idx = np.array([0, 2, 4, 6, 8, 10])
        cfg = NrcConfig(K=2, KK=3, r=0.1)
        v1, _ = nrc_loss(p, idx, bank, cfg)
        perm = rng.permutation(6)
        v2, _ = nrc_loss(p[perm], idx[perm], bank, cfg)
        assert abs(v1 - v2) < 1e-12

    def test_score_gradient_matches_finite_differences(self):
        rng = make_rng(3)
        feats = rng.normal(size=(12, 4)) + 0.2
        bank = MemoryBank(feats / np.linalg.norm(feats, axis=1, keepdims=True),
                          rng.dirichlet(np.ones(3), size=12))
        p = rng.dirichlet(np.ones(3), size=4)
        idx = np.array([1, 3, 5, 7])
        cfg = NrcConfig(K=2, KK=2, r=0.1)
        anchor = p.copy()
        _, grad = nrc_loss(p, idx, bank, cfg, self_anchor=anchor)
        numeric = np.zeros_like(p)
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                orig = p[i, j]
                p[i, j] = orig + 1e-6
                hi, _ = nrc_loss(p, idx, bank, cfg, self_anchor=anchor)
                p[i, j] = orig - 1e-6
                lo, _ = nrc_loss(p, idx, bank, cfg, self_anchor=anchor)
                p[i, j] = orig
                numeric[i, j] = (hi - lo) / 2e-6
        assert max_rel_err(grad, numeric) < 1e-4

    def test_bank_too_small(self):
        bank = two_pair_bank()
        with pytest.raises(ValueError, match="bank too small"):
            nrc_loss(bank.scores, np.arange(4), bank, NrcConfig(K=4, KK=1))

    def test_bad_batch_indices(self):
        bank = two_pair_bank()
        with pytest.raises(ValueError, match="outside the bank"):
            nrc_loss(bank.scores[:2], np.array([0, 7]), bank, NrcConfig(K=1, KK=1))
        with pytest.raises(ValueError, match="match batch_scores"):
            nrc_loss(bank.scores[:2], np.arange(3), bank, NrcConfig(K=1, KK=1))


class TestAadLoss:
    def test_identical_one_hot_neighbors_score_minus_k(self):
        rng = make_rng(4)
        feats = rng.normal(size=(10, 4)) + 0.3
        onehot = np.zeros((10, 3))
        onehot[:, 1] = 1.0
        bank = MemoryBank(feats / np.linalg.norm(feats, axis=1, keepdims=True),
                          onehot)
        p = onehot[:4].copy()
        bg = np.tile(np.array([8, 9]), (4, 1))
        for k in (1, 3):
            value, _ = aad_loss(p, np.arange(4), bank, 0.0, AadConfig(K=k),
                                backgrounds=bg)
            assert abs(value + k) < 1e-12

    def test_gradient_is_the_affine_coefficient(self):
        rng = make_rng(5)
        feats = rng.normal(size=(12, 4)) + 0.2
        bank = MemoryBank(feats / np.linalg.norm(feats, axis=1, keepdims=True),
                          rng.dirichlet(np.ones(3), size=12))
        p = rng.dirichlet(np.ones(3), size=4)
        idx = np.array([0, 3, 6, 9])
        cfg = AadConfig(K=2)
        bg = np.array([[10, 11, 1, 2]] * 4)
        lam = 0.4
        value, grad = aad_loss(p, idx, bank, lam, cfg, backgrounds=bg)
        neigh = knn_indices(bank.features, 2)[idx]
        s_close = bank.scores[neigh].sum(axis=1)
        s_far = bank.scores[bg].sum(axis=1)
        np.testing.assert_allclose(grad, (-s_close + lam * s_far) / 4.0,
                                   atol=1e-12)
        expect = float((-(p * s_close).sum() + lam * (p * s_far).sum()) / 4.0)
        assert abs(value - expect) < 1e-12

    def test_background_term_vanishes_at_zero_lambda(self):
        bank = two_pair_bank()
        p = bank.scores.copy()
        a = aad_loss(p, np.arange(4), bank, 0.0, AadConfig(K=1),
                     backgrounds=np.array([[2, 3]] * 4))
        b = aad_loss(p, np.arange(4), bank, 0.0, AadConfig(K=1),
                     backgrounds=np.array([[1, 2]] * 4))
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_rng_required_when_backgrounds_absent(self):
        bank = two_pair_bank()
        with pytest.raises(ValueError, match="rng"):
            aad_loss(bank.scores, np.arange(4), bank, 1.0, AadConfig(K=1))


class TestBackgroundSampling:
    def test_excludes_self_and_neighbors(self):
        rng = make_rng(6)
        feats = rng.normal(size=(20, 4)) + 0.2
        unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        neigh = knn_indices(unit, 3)
        idx = np.arange(8)
        bg = sample_backgrounds(20, neigh[idx], idx, 6, make_rng(7))
        assert bg.shape == (8, 6)
        for i in range(8):
            assert len(set(bg[i].tolist())) == 6
            assert idx[i] not in bg[i]
            assert not set(bg[i].tolist()) & set(neigh[idx[i]].tolist())

    def test_too_small_bank_names_the_budget(self):
        neigh = np.array([[1, 2, 3]])
        with pytest.raises(ValueError,
                           match="bank of 9 too small for K=3 plus 6 background"):
            sample_backgrounds(9, neigh, np.array([0]), 6, make_rng(0))

    def test_seeded_and_reproducible(self):
        neigh = np.array([[1], [2]])
        a = sample_backgrounds(30, neigh, np.array([0, 1]), 4, make_rng(8))
        b = sample_backgrounds(30, neigh, np.array([0, 1]), 4, make_rng(8))
        np.testing.assert_array_equal(a, b)


def pool_loop_backgrounds(bank_n, neigh, batch_indices, size, rng):
    """The original sampler: build each row's pool of allowed indices and
    draw from it."""
    out = np.empty((neigh.shape[0], size), dtype=np.int64)
    for i in range(neigh.shape[0]):
        blocked = set(neigh[i].tolist())
        blocked.add(int(batch_indices[i]))
        pool = np.array([j for j in range(bank_n) if j not in blocked], dtype=np.int64)
        out[i] = rng.choice(pool, size=size, replace=False)
    return out


class TestBackgroundStream:
    def test_matches_the_pool_loop_draw_for_draw(self):
        cases = make_rng(21)
        for case in range(300):
            k = int(cases.integers(1, 6))
            size = int(cases.integers(1, 12))
            bank_n = int(cases.integers(k + size + 1, k + size + 60))
            b = int(cases.integers(1, 9))
            bidx = cases.integers(0, bank_n, size=b)
            neigh = np.stack([cases.choice(np.delete(np.arange(bank_n), i), k,
                                           replace=False) for i in bidx])
            got_rng, want_rng = make_rng(case), make_rng(case)
            got = sample_backgrounds(bank_n, neigh, bidx, size, got_rng)
            want = pool_loop_backgrounds(bank_n, neigh, bidx, size, want_rng)
            np.testing.assert_array_equal(got, want)
            # the stream stays aligned for the next caller
            assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    def test_repeated_blocked_indices_match_the_pool_loop(self):
        cases = make_rng(22)
        for case in range(200):
            k = int(cases.integers(1, 6))
            size = int(cases.integers(1, 8))
            bank_n = int(cases.integers(k + size + 1, k + size + 30))
            b = int(cases.integers(1, 9))
            bidx = cases.integers(0, bank_n, size=b)
            # neighbors may repeat and may name the row itself
            neigh = cases.integers(0, bank_n, size=(b, k))
            neigh[:, 0] = np.where(cases.random(b) < 0.3, bidx, neigh[:, 0])
            got_rng, want_rng = make_rng(case), make_rng(case)
            got = sample_backgrounds(bank_n, neigh, bidx, size, got_rng)
            want = pool_loop_backgrounds(bank_n, neigh, bidx, size, want_rng)
            np.testing.assert_array_equal(got, want)
            assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    @staticmethod
    def free_counts(bank_n, neigh, bidx):
        return [bank_n - len(set(row.tolist()) | {int(i)}) for row, i in zip(neigh, bidx)]

    def test_numpy_tail_regime_matches_the_pool_loop(self):
        # rng.choice shuffles the tail of arange(f) when f > 10,000 and
        # size > f // 50: here every row has f = 10,096 and size 210
        bank_n, size = 10_100, 210
        cases = make_rng(23)
        bidx = np.array([5, 4_000, 10_099])
        neigh = np.stack([cases.choice(np.delete(np.arange(bank_n), i), 3, replace=False)
                          for i in bidx])
        assert all(f > 10_000 and size > f // 50 for f in self.free_counts(bank_n, neigh, bidx))
        got_rng, want_rng = CountingRng(make_rng(24)), make_rng(24)
        got = sample_backgrounds(bank_n, neigh, bidx, size, got_rng)
        assert got_rng.calls == ["choice"] * len(bidx)
        want = pool_loop_backgrounds(bank_n, neigh, bidx, size, want_rng)
        np.testing.assert_array_equal(got, want)
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    def test_rows_on_both_sides_of_the_tail_regime_match_the_pool_loop(self):
        # repeated blocked indices raise a row's free count f: 9,998 with
        # none, 10,000 with two (still Floyd's path), 10,001 with three (tail)
        bank_n, size = 10_002, 210
        bidx = np.array([7, 100, 9_000, 3])
        neigh = np.array([[1, 2, 3], [100, 100, 5], [9_000, 9_000, 9_000], [4, 5, 6]])
        assert self.free_counts(bank_n, neigh, bidx) == [9_998, 10_000, 10_001, 9_998]
        # one tail row sends the whole call to per-row choice; without it
        # the call draws once
        for rows, calls in (([0, 1, 2, 3], ["choice"] * 4), ([0, 1, 3], ["integers"])):
            for seed in range(3):
                got_rng, want_rng = CountingRng(make_rng(seed)), make_rng(seed)
                got = sample_backgrounds(bank_n, neigh[rows], bidx[rows], size, got_rng)
                assert got_rng.calls == calls
                want = pool_loop_backgrounds(bank_n, neigh[rows], bidx[rows], size, want_rng)
                np.testing.assert_array_equal(got, want)
                assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    def test_a_batch_draws_with_one_integers_call(self):
        cases = make_rng(25)
        bank_n, b = 320, 64
        bidx = cases.integers(0, bank_n, size=b)
        neigh = np.stack([cases.choice(np.delete(np.arange(bank_n), i), 3, replace=False)
                          for i in bidx])
        got_rng = CountingRng(make_rng(26))
        got = sample_backgrounds(bank_n, neigh, bidx, 6, got_rng)
        assert got_rng.calls == ["integers"]
        want_rng = make_rng(26)
        np.testing.assert_array_equal(
            got, pool_loop_backgrounds(bank_n, neigh, bidx, 6, want_rng))
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)


class CountingRng:
    """Forwards every method call to a real generator and logs its name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return counted


class TestSharedNeighborTable:
    def test_nrc_given_table_is_bit_identical(self):
        rng = make_rng(31)
        bank = random_bank(rng, 20, 4)
        p = rng.dirichlet(np.ones(4), size=5)
        idx = np.array([3, 17, 0, 8, 11])
        for K, KK in ((2, 4), (3, 3), (4, 2)):
            cfg = NrcConfig(K=K, KK=KK, r=0.1)
            own = nrc_loss(p, idx, bank, cfg)
            for width in (max(K, KK), 6):
                table = knn_indices(bank.features, width)
                shared = nrc_loss(p, idx, bank, cfg, knn=table)
                assert shared[0] == own[0]
                np.testing.assert_array_equal(shared[1], own[1])

    def test_aad_given_table_is_bit_identical(self):
        rng = make_rng(32)
        bank = random_bank(rng, 20, 4)
        p = rng.dirichlet(np.ones(4), size=5)
        idx = np.array([3, 17, 0, 8, 11])
        cfg = AadConfig(K=3)
        table = knn_indices(bank.features, 5)
        own = aad_loss(p, idx, bank, 0.4, cfg, rng=make_rng(5))
        shared = aad_loss(p, idx, bank, 0.4, cfg, rng=make_rng(5), knn=table)
        assert shared[0] == own[0]
        np.testing.assert_array_equal(shared[1], own[1])

    def test_table_must_cover_the_bank(self):
        bank = random_bank(make_rng(33), 12, 3)
        p = bank.scores[:2]
        with pytest.raises(ValueError, match="neighbor table"):
            nrc_loss(p, np.arange(2), bank, NrcConfig(K=2, KK=3),
                     knn=knn_indices(bank.features, 2))
        with pytest.raises(ValueError, match="neighbor table"):
            aad_loss(p, np.arange(2), bank, 0.0, AadConfig(K=2), rng=make_rng(0),
                     knn=knn_indices(bank.features[:8], 2))

    @pytest.mark.parametrize("cell", [DistConfig(1, 64), DistConfig(16, 4)],
                             ids=lambda c: c.label)
    @pytest.mark.parametrize("adapt, cfg", [
        (nrc_adapt, NrcConfig(K=2, KK=3, epochs=2, batch_size=64, seed=0)),
        (aad_adapt, AadConfig(epochs=2, batch_size=64, seed=0)),
    ], ids=["nrc", "aad"])
    def test_bank_ranked_once_per_step(self, monkeypatch, cell, adapt, cfg):
        """Each step ranks only the table rows it reads, against the bank as
        it stands before the step: one call for AAD's batch, at most two for
        NRC's batch and its K neighbors, b * (1 + K) rows at most."""
        import sfuda.neighbors as neighbors

        steps_seen = []
        real_step = neighbors.sharded_step

        def counted(m, k, *, rows=None, unit=None):
            assert rows is not None and k == max(cfg.K, getattr(cfg, "KK", cfg.K))
            steps_seen[-1].append(len(rows))
            return knn_indices(m, k, rows=rows, unit=unit)

        def step(*args, **kwargs):
            assert steps_seen[-1], "a step ran before ranking its rows"
            steps_seen.append([])
            return real_step(*args, **kwargs)

        monkeypatch.setattr(neighbors, "knn_indices", counted)
        monkeypatch.setattr(neighbors, "sharded_step", step)
        steps_seen.append([])
        _, tgt, first = TestAdaptationLoops().make_setup()
        adapt(first, tgt.features, cfg, dist=cell)
        ranked = steps_seen[:-1]
        b = cfg.batch_size
        assert len(ranked) == cfg.epochs * (tgt.features.shape[0] // b)
        for calls in ranked:
            assert calls[0] == b
            assert len(calls) <= (2 if adapt is nrc_adapt else 1)
            assert sum(calls) <= b * (1 + cfg.K)
        if adapt is nrc_adapt:
            assert any(len(calls) == 2 for calls in ranked)

    @pytest.mark.parametrize("cell", [DistConfig(1, 64), DistConfig(16, 4)],
                             ids=lambda c: c.label)
    @pytest.mark.parametrize("adapt, loss_name, cfg", [
        (nrc_adapt, "nrc_loss", NrcConfig(K=2, KK=3, epochs=2, batch_size=64, seed=0)),
        (aad_adapt, "aad_loss", AadConfig(epochs=2, batch_size=64, seed=0)),
    ], ids=["nrc", "aad"])
    def test_partial_table_adapts_like_the_full_table(self, monkeypatch, cell, adapt,
                                                      loss_name, cfg):
        """The table whose unread rows hold n gives the parameter bytes that
        the bank's full table gives."""
        import sfuda.neighbors as neighbors

        _, tgt, first = TestAdaptationLoops().make_setup()
        partial = adapt(first, tgt.features, cfg, dist=cell)
        real = getattr(neighbors, loss_name)

        def with_full_table(p, sh, bank, *args, knn, **kwargs):
            table = knn_indices(bank.features, knn.shape[1])
            ranked = knn[:, 0] < bank.n
            np.testing.assert_array_equal(knn[ranked], table[ranked])
            return real(p, sh, bank, *args, knn=table, **kwargs)

        monkeypatch.setattr(neighbors, loss_name, with_full_table)
        full = adapt(first, tgt.features, cfg, dist=cell)
        for name in PARAM_NAMES:
            assert partial.params()[name].tobytes() == full.params()[name].tobytes()


class TestDecay:
    def test_boundary_values(self):
        assert inverse_decay(0.0, 0.75) == 1.0
        assert inverse_decay(0.5, 0.0) == 1.0
        assert abs(inverse_decay(1.0, 1.0) - 1.0 / 11.0) < 1e-12

    def test_non_increasing(self):
        vals = [inverse_decay(s / 40, 0.75) for s in range(41)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestScoreGradPullback:
    def test_matches_softmax_jacobian(self):
        rng = make_rng(9)
        logits = rng.normal(size=(3, 4))
        dscores = rng.normal(size=(3, 4))
        p = softmax(logits)
        got = softmax_score_grad(p, dscores)
        numeric = np.zeros_like(logits)
        for i in range(3):
            for j in range(4):
                orig = logits[i, j]
                logits[i, j] = orig + 1e-6
                hi = float((softmax(logits)[i] * dscores[i]).sum())
                logits[i, j] = orig - 1e-6
                lo = float((softmax(logits)[i] * dscores[i]).sum())
                logits[i, j] = orig
                numeric[i, j] = (hi - lo) / 2e-6
        assert max_rel_err(got, numeric) < 1e-4


class TestAdaptationLoops:
    def make_setup(self, seed=13):
        d = 10
        shift = ShiftSpec(np.full(d, 0.3), np.full(d, 1.1), np.zeros(d))
        src, tgt = gen_gaussian_pair(4, d, 75, 5.0, shift, make_rng(seed))
        model = init_head(HeadConfig(d, 4, hidden_dim=32, seed=0))
        first = train_supervised(model, src, "classifier_only", TrainConfig(seed=0))
        return src, tgt, first

    def test_nrc_beats_the_frozen_first_transfer(self):
        _, tgt, first = self.make_setup()
        before = evaluate(first, tgt.features, tgt.labels)
        adapted = nrc_adapt(first, tgt.features, NrcConfig(seed=0))
        after = evaluate(adapted, tgt.features, tgt.labels)
        assert after >= before

    def test_zero_learning_rate_keeps_parameters(self):
        _, tgt, first = self.make_setup()
        out = nrc_adapt(first, tgt.features,
                        NrcConfig(epochs=2, learning_rate=0.0, seed=0))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(out.params()[name], first.params()[name])
        out = aad_adapt(first, tgt.features,
                        AadConfig(epochs=2, learning_rate=0.0, seed=0))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(out.params()[name], first.params()[name])

    def test_adaptation_is_deterministic(self):
        _, tgt, first = self.make_setup()
        a = nrc_adapt(first, tgt.features, NrcConfig(epochs=2, seed=3))
        b = nrc_adapt(first, tgt.features, NrcConfig(epochs=2, seed=3))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(a.params()[name], b.params()[name])

    def test_aad_moves_every_parameter_group(self):
        _, tgt, first = self.make_setup()
        out = aad_adapt(first, tgt.features, AadConfig(epochs=2, seed=0))
        for name in PARAM_NAMES:
            assert not np.array_equal(out.params()[name], first.params()[name])

    def test_single_worker_dist_matches_plain(self):
        _, tgt, first = self.make_setup()
        cfg = NrcConfig(epochs=2, seed=0)
        plain = nrc_adapt(first, tgt.features, cfg)
        dist = nrc_adapt(first, tgt.features, cfg, dist=DistConfig(1, cfg.batch_size))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(plain.params()[name], dist.params()[name])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NrcConfig(K=0)
        with pytest.raises(ValueError):
            NrcConfig(r=-0.1)
        with pytest.raises(ValueError):
            AadConfig(beta=-1.0)
        assert AadConfig(K=5).background_size == 10
