import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furcasep.metrics import PitResult, best_permutation, pit_assign, sdr
from furcasep.signal import Waveform


def rand_vec(seed, n=64):
    return np.random.default_rng(seed).normal(size=n)


class TestSdr:
    def test_scaled_target_hits_positive_clamp(self):
        x = rand_vec(0)
        for alpha in (1.0, 0.3, -2.0):
            assert sdr(x, alpha * x).sdr_db == 100.0

    def test_orthogonal_hits_negative_clamp(self):
        assert sdr([1.0, 0.0], [0.0, 1.0]).sdr_db == -100.0

    def test_hand_case_zero_db(self):
        res = sdr([1.0, 1.0], [1.0, 0.0])
        assert res.scale == 0.5
        assert res.projection_energy == pytest.approx(0.5, abs=1e-15)
        assert res.error_energy == pytest.approx(0.5, abs=1e-15)
        assert abs(res.sdr_db) < 1e-12

    def test_zero_estimate_clamps_low(self):
        assert sdr(rand_vec(1), np.zeros(64)).sdr_db == -100.0

    def test_zero_energy_target_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            sdr(np.zeros(8), np.ones(8))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sdr(np.ones(8), np.ones(9))

    def test_rate_mismatch(self):
        a = Waveform(np.ones(8), 8000)
        b = Waveform(np.ones(8), 16000)
        with pytest.raises(ValueError, match="sample rates"):
            sdr(a, b)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance_both_arguments(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=128)
        s = rng.normal(size=128)
        base = sdr(x, s).sdr_db
        assert sdr(x, alpha * s).sdr_db == pytest.approx(base, abs=1e-9)
        assert sdr(beta * x, s).sdr_db == pytest.approx(base, abs=1e-9)


def brute_force_pit(targets, estimates):
    """Independent oracle: recursive permutation enumeration, SDR recomputed per pair."""
    n = len(targets)

    def perms(rest):
        if not rest:
            yield ()
            return
        for i, head in enumerate(rest):
            for tail in perms(rest[:i] + rest[i + 1 :]):
                yield (head,) + tail

    best_perm, best_mean = None, -np.inf
    for perm in perms(list(range(n))):
        total = 0.0
        for j in range(n):
            total += sdr(targets[perm[j]], estimates[j]).sdr_db
        mean = total / n
        if mean > best_mean:
            best_perm, best_mean = perm, mean
    return best_perm, best_mean


class TestPitAssign:
    def test_swapped_estimates(self):
        x1, x2 = rand_vec(6), rand_vec(7)
        res = pit_assign([x1, x2], [x2, x1])
        assert res.permutation == (1, 0)
        assert res.mean_sdr_db == 100.0
        assert res.loss == -100.0

    def test_identity_assignment(self):
        x1, x2 = rand_vec(8), rand_vec(9)
        res = pit_assign([x1, x2], [x1, x2])
        assert res.permutation == (0, 1)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, seed, n_sources):
        rng = np.random.default_rng(seed)
        targets = [rng.normal(size=32) for _ in range(n_sources)]
        estimates = [rng.normal(size=32) for _ in range(n_sources)]
        res = pit_assign(targets, estimates)
        want_perm, want_mean = brute_force_pit(targets, estimates)
        assert res.permutation == want_perm
        assert res.mean_sdr_db == want_mean
        assert res.loss == -want_mean

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_maximality_vs_identity(self, seed):
        rng = np.random.default_rng(seed)
        targets = [rng.normal(size=48) for _ in range(3)]
        estimates = [rng.normal(size=48) for _ in range(3)]
        res = pit_assign(targets, estimates)
        identity_mean = sum(sdr(t, e).sdr_db for t, e in zip(targets, estimates)) / 3
        assert res.mean_sdr_db >= identity_mean

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant_to_common_rescale(self, seed, gain):
        rng = np.random.default_rng(seed)
        targets = [rng.normal(size=48) for _ in range(2)]
        estimates = [rng.normal(size=48) for _ in range(2)]
        base = pit_assign(targets, estimates)
        scaled = pit_assign(targets, [gain * e for e in estimates])
        assert scaled.permutation == base.permutation
        assert scaled.mean_sdr_db == pytest.approx(base.mean_sdr_db, abs=1e-9)

    def test_tie_breaks_lexicographically(self):
        x1, x2 = rand_vec(10), rand_vec(11)
        mixture = x1 + x2
        res = pit_assign([x1, x2], [mixture, mixture])  # all pairings tie
        assert res.permutation == (0, 1)

    def test_too_many_sources_guarded(self):
        vec = [rand_vec(i) for i in range(9)]
        with pytest.raises(ValueError, match="at most 8"):
            pit_assign(vec, vec)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="targets vs"):
            pit_assign([rand_vec(0)] * 2, [rand_vec(1)] * 3)

    def test_result_is_bijection(self):
        rng = np.random.default_rng(12)
        targets = [rng.normal(size=16) for _ in range(4)]
        estimates = [rng.normal(size=16) for _ in range(4)]
        res: PitResult = pit_assign(targets, estimates)
        assert sorted(res.permutation) == [0, 1, 2, 3]
        assert res.mean_sdr_db == pytest.approx(float(np.mean(res.per_source_sdr_db)), abs=1e-12)


class TestBestPermutation:
    """The one PIT search, shared by pit_assign and layers.usdr_loss."""

    def test_picks_the_best_mean(self):
        matrix = [[1.0, 5.0, 0.0], [4.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        perm, mean = best_permutation(matrix)
        assert perm == (1, 0, 2)  # output 0 -> target 1, output 1 -> target 0
        assert mean == (4.0 + 5.0 + 2.0) / 3

    def test_ties_go_to_the_lexicographically_smallest(self):
        assert best_permutation([[1.0, 2.0], [2.0, 1.0]]) == ((1, 0), 2.0)
        assert best_permutation([[3.0] * 3] * 3) == ((0, 1, 2), 3.0)

    def test_mean_is_a_left_to_right_sum(self):
        # 0.1 + 0.2 + 0.3 rounds differently from an exactly rounded fsum
        matrix = [[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]]
        assert best_permutation(matrix)[1] == (0.1 + 0.2 + 0.3) / 3

    def test_non_finite_scores_still_give_a_permutation(self):
        # a NaN mixture scores NaN everywhere; the loss must come out NaN, not fail to pick
        perm, mean = best_permutation([[np.nan, np.nan], [np.nan, np.nan]])
        assert perm == (0, 1) and np.isnan(mean)
        assert best_permutation([[-np.inf, -np.inf], [-np.inf, -np.inf]]) == ((0, 1), -np.inf)

    def test_source_count_guarded(self):
        with pytest.raises(ValueError, match="at least 2"):
            best_permutation([[1.0]])
        with pytest.raises(ValueError, match="at most 8"):
            best_permutation([[0.0] * 9] * 9)
