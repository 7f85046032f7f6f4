import math

import numpy as np
import pytest
from scipy import stats

from vanetmarket import (
    FIELD_PRIME,
    GridSpec,
    SpatioTemporalMap,
    adversary_reconstruct,
    aggregate_secure,
    empirical_privacy_curve,
    generate_synthetic,
    mean_similarity_by_frequency,
    route_samples,
    secret_share,
    subsample,
)

SPEC = GridSpec((39.8, 40.0, 116.25, 116.5))


def random_partials(rng, n_servers, n_cells=8, max_count=10**6):
    partials = []
    for _ in range(n_servers):
        counts = {}
        for _ in range(n_cells):
            key = (int(rng.integers(0, 20)), int(rng.integers(0, 20)), int(rng.integers(0, 5)))
            counts[key] = int(rng.integers(1, max_count))
        partials.append(SpatioTemporalMap(SPEC, counts))
    return partials


def scalar_aggregate_secure(partials, seed=0):
    """The per-cell secret_share loop aggregate_secure replaced: the bitwise reference."""
    s = len(partials)
    cells = tuple(sorted(set().union(*(p.counts.keys() for p in partials))))
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    share_matrix = [[[] for _ in range(s)] for _ in range(s)]
    for i, partial in enumerate(partials):
        for cell in cells:
            shares = secret_share(partial.counts.get(cell, 0), s, rng)
            for j in range(s):
                share_matrix[i][j].append(shares[j])
    per_server_sums = [
        [sum(share_matrix[i][j][c] for i in range(s)) % FIELD_PRIME for c in range(len(cells))]
        for j in range(s)
    ]
    totals = [
        sum(per_server_sums[j][c] for j in range(s)) % FIELD_PRIME for c in range(len(cells))
    ]
    counts = {cell: t for cell, t in zip(cells, totals) if t > 0}
    dropped = sum(p.dropped_outside for p in partials)
    return cells, share_matrix, per_server_sums, counts, dropped


def plaintext_sum(partials):
    total = {}
    for p in partials:
        for cell, c in p.counts.items():
            total[cell] = total.get(cell, 0) + c
    return total


class TestRouting:
    def test_single_server_gets_everything(self, small_fleet):
        inboxes = route_samples(small_fleet, 0.5, 1, seed=0)
        assert len(inboxes) == 1
        expected = sum(len(subsample(t, 0.5)) for t in small_fleet)
        assert len(inboxes[0].received) == expected

    def test_partition_property(self, small_fleet):
        inboxes = route_samples(small_fleet, 0.25, 4, seed=1)
        routed = [(vid, s) for inbox in inboxes for vid, s in inbox.received]
        expected = [
            (t.vehicle_id, s) for t in small_fleet for s in subsample(t, 0.25).samples
        ]
        assert sorted(routed) == sorted(expected)

    @pytest.mark.parametrize("f_d, s", [(1.0, 16), (0.5, 8), (0.2, 4)])
    def test_inbox_keeps_input_order_and_time_order(self, fleet, f_d, s):
        # Each inbox is a subsequence of the fleet's subsampled samples in input
        # order, so each vehicle's samples are contiguous and in time order.
        in_order = [(t.vehicle_id, g) for t in fleet for g in subsample(t, f_d).samples]
        for inbox in route_samples(fleet, f_d, s, seed=0):
            received = set(inbox.received)
            assert inbox.received == [pair for pair in in_order if pair in received]

    def test_deterministic_per_seed(self, small_fleet):
        a = route_samples(small_fleet, 0.5, 3, seed=9)
        b = route_samples(small_fleet, 0.5, 3, seed=9)
        assert [i.received for i in a] == [i.received for i in b]

    def test_per_server_rate_is_f_over_s(self):
        # one long trajectory: inbox occupancy is Binomial(n, 1/s) with more
        # than 10^4 seeded routing decisions in total
        traj = generate_synthetic(1, 600, seed=5)[0]
        s, f_d, trials = 5, 1.0, 20
        n_per_trial = len(subsample(traj, f_d))
        got = sum(len(route_samples([traj], f_d, s, seed=k)[0].received) for k in range(trials))
        n = trials * n_per_trial
        assert n >= 10**4
        expectation = n / s
        sigma = math.sqrt(n * (1 / s) * (1 - 1 / s))
        assert abs(got - expectation) <= 3 * sigma

    def test_server_count_validation(self, small_fleet):
        with pytest.raises(ValueError):
            route_samples(small_fleet, 0.5, 0, seed=0)


class TestSecretSharing:
    def test_single_share_is_identity(self):
        assert secret_share(42, 1) == [42]

    def test_shares_sum_to_secret(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = int(rng.integers(0, FIELD_PRIME))
            n = int(rng.integers(1, 12))
            shares = secret_share(x, n, seed=int(rng.integers(0, 2**31)))
            assert len(shares) == n
            assert all(0 <= sh < FIELD_PRIME for sh in shares)
            assert sum(shares) % FIELD_PRIME == x

    def test_deterministic_per_seed(self):
        assert secret_share(99, 4, seed=5) == secret_share(99, 4, seed=5)
        assert secret_share(99, 4, seed=5) != secret_share(99, 4, seed=6)

    def test_field_range_enforced(self):
        with pytest.raises(ValueError):
            secret_share(-1, 2)
        with pytest.raises(ValueError):
            secret_share(FIELD_PRIME, 2)
        with pytest.raises(ValueError):
            secret_share(1, 0)

    def test_share_subset_uniform_regardless_of_secret(self):
        # quick screen; the acceptance suite runs the full-size test
        rng = np.random.default_rng(np.random.SeedSequence([101]))
        observed = {}
        for x in (0, 987654321):
            firsts = np.array(
                [secret_share(x, 3, rng)[0] for _ in range(20000)], dtype=np.int64
            )
            obs = np.bincount(firsts >> 55, minlength=64)
            _, p = stats.chisquare(obs)
            assert p > 0.01
            observed[x] = obs
        # joint distribution should be indistinguishable between secrets
        table = np.vstack([observed[0], observed[987654321]])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01


class TestAggregation:
    def test_single_server_identity(self):
        rng = np.random.default_rng(11)
        partials = random_partials(rng, 1)
        transcript = aggregate_secure(partials, seed=0)
        assert transcript.reconstructed.counts == partials[0].counts

    def test_disjoint_union(self):
        a = SpatioTemporalMap(SPEC, {(0, 0, 0): 3})
        b = SpatioTemporalMap(SPEC, {(1, 1, 0): 5})
        transcript = aggregate_secure([a, b], seed=1)
        assert transcript.reconstructed.counts == {(0, 0, 0): 3, (1, 1, 0): 5}

    def test_matches_plaintext_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(25):
            s = int(rng.integers(1, 11))
            partials = random_partials(rng, s)
            transcript = aggregate_secure(partials, seed=trial)
            assert transcript.reconstructed.counts == plaintext_sum(partials)

    def test_share_matrix_shape_and_consistency(self):
        rng = np.random.default_rng(13)
        partials = random_partials(rng, 3, n_cells=4)
        transcript = aggregate_secure(partials, seed=2)
        s, n_cells = 3, len(transcript.cells)
        assert len(transcript.share_matrix) == s
        assert all(len(row) == s for row in transcript.share_matrix)
        assert all(len(vec) == n_cells for row in transcript.share_matrix for vec in row)
        # each server's outgoing shares reconstruct its own partial map
        for i in range(s):
            for c, cell in enumerate(transcript.cells):
                total = sum(transcript.share_matrix[i][j][c] for j in range(s)) % FIELD_PRIME
                assert total == partials[i].counts.get(cell, 0)

    @pytest.mark.parametrize("s", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_loop(self, s, seed):
        rng = np.random.default_rng(np.random.SeedSequence([s, seed]))
        partials = random_partials(rng, s, n_cells=40)
        # a cell only the first server holds, and counts next to the field size
        partials[0].counts[(99, 99, 9)] = FIELD_PRIME - 1
        partials[-1].counts[(0, 0, 0)] = FIELD_PRIME - 2
        for p in partials:
            p.dropped_outside = int(rng.integers(0, 5))
        transcript = aggregate_secure(partials, seed=seed)
        cells, share_matrix, per_server_sums, counts, dropped = scalar_aggregate_secure(
            partials, seed
        )
        assert transcript.cells == cells
        assert transcript.share_matrix == share_matrix
        assert transcript.per_server_sums == per_server_sums
        assert transcript.reconstructed.counts == counts
        assert transcript.reconstructed.dropped_outside == dropped
        assert all(type(v) is int for row in transcript.share_matrix for vec in row for v in vec)
        assert all(type(v) is int for vec in transcript.per_server_sums for v in vec)
        assert all(type(v) is int for v in transcript.reconstructed.counts.values())

    def test_empty_partials_match_scalar_loop(self):
        partials = [SpatioTemporalMap(SPEC), SpatioTemporalMap(SPEC)]
        transcript = aggregate_secure(partials, seed=4)
        cells, share_matrix, per_server_sums, counts, _ = scalar_aggregate_secure(partials, 4)
        assert (transcript.cells, transcript.share_matrix) == (cells, share_matrix)
        assert transcript.per_server_sums == per_server_sums
        assert transcript.reconstructed.counts == counts == {}

    @pytest.mark.parametrize("count", [-1, FIELD_PRIME])
    def test_count_outside_the_field_rejected(self, count):
        a = SpatioTemporalMap(SPEC, {(0, 0, 0): 1, (1, 0, 0): count})
        with pytest.raises(ValueError, match="outside"):
            aggregate_secure([a, SpatioTemporalMap(SPEC, {(0, 0, 0): 2})])

    def test_mismatched_specs_rejected(self):
        other = GridSpec((0.0, 1.0, 0.0, 1.0))
        a = SpatioTemporalMap(SPEC, {(0, 0, 0): 1})
        b = SpatioTemporalMap(other, {(0, 0, 0): 1})
        with pytest.raises(ValueError, match="mismatched"):
            aggregate_secure([a, b])

    def test_transcript_share_elision(self):
        rng = np.random.default_rng(14)
        partials = random_partials(rng, 2, n_cells=3)
        transcript = aggregate_secure(partials, seed=3)
        small = transcript.to_json_dict(keep_shares=False, share_limit=10**6)
        assert small["shares_elided"] is False
        elided = transcript.to_json_dict(keep_shares=False, share_limit=1)
        assert elided["shares_elided"] is True and elided["share_matrix"] is None
        kept = transcript.to_json_dict(keep_shares=True, share_limit=1)
        assert kept["shares_elided"] is False


class TestAdversary:
    def test_full_compromise_native_rate_reconstructs_exactly(self, small_fleet):
        s = 4
        inboxes = route_samples(small_fleet, 1.0, s, seed=0)
        adversary = frozenset(range(s))
        results = adversary_reconstruct(inboxes, adversary, small_fleet)
        assert all(r.similarity == 1.0 for r in results.values())

    def test_few_samples_score_zero(self, small_fleet):
        # tiny capture probability: route to many servers, compromise one
        inboxes = route_samples(small_fleet, 0.05, 40, seed=2)
        adversary = frozenset({0})
        results = adversary_reconstruct(inboxes, adversary, small_fleet)
        for traj in small_fleet:
            captured = [1 for vid, _ in inboxes[0].received if vid == traj.vehicle_id]
            if len(captured) < 2:
                assert results[traj.vehicle_id].similarity == 0.0

    def test_empty_compromised_set_rejected(self, small_fleet):
        inboxes = route_samples(small_fleet, 0.5, 2, seed=0)
        with pytest.raises(ValueError, match="no adversary"):
            adversary_reconstruct(inboxes, frozenset(), small_fleet)

    def test_unknown_server_rejected(self, small_fleet):
        inboxes = route_samples(small_fleet, 0.5, 2, seed=0)
        with pytest.raises(ValueError):
            adversary_reconstruct(inboxes, frozenset({5}), small_fleet)

    def test_similarity_non_decreasing_in_compromised_count(self, fleet):
        s = 6
        inboxes = route_samples(fleet, 0.5, s, seed=4)
        means = []
        for k in range(1, s + 1):
            adversary = frozenset(range(k))
            results = adversary_reconstruct(inboxes, adversary, fleet)
            means.append(np.mean([r.similarity for r in results.values()]))
        # pooling strictly more servers can only add samples per vehicle
        assert all(a <= b + 5e-3 for a, b in zip(means, means[1:]))


class TestEmpiricalCurve:
    def test_single_server_matches_calibration_exactly(self, fleet):
        freqs = (0.5, 0.25, 0.125)
        curve = empirical_privacy_curve(fleet, freqs, [1], n_compromised=1, seeds=[0])
        calibration = mean_similarity_by_frequency(fleet, freqs)
        assert [(pt.f_d, pt.mean_similarity) for pt in curve] == calibration

    def test_native_rate_single_server_is_one(self, small_fleet):
        curve = empirical_privacy_curve(small_fleet, [1.0], [1], seeds=[3])
        assert curve[0].mean_similarity == 1.0

    def test_monotone_non_increasing_in_servers(self, fleet):
        curve = empirical_privacy_curve(fleet, [0.5], [1, 2, 4, 8], seeds=[0, 1, 2])
        sims = [pt.mean_similarity for pt in curve]
        assert all(a >= b - 5e-3 for a, b in zip(sims, sims[1:]))

    def test_matches_per_call_reconstruction_exactly(self, fleet):
        f_d_values, s_values, seeds = (0.5, 0.2), [1, 2, 4], [0, 1]
        expected = []
        for f_d in f_d_values:
            for s in s_values:
                sims = []
                for seed in seeds:
                    inboxes = route_samples(fleet, f_d, s, seed)
                    recon = adversary_reconstruct(inboxes, frozenset({0}), fleet)
                    sims.extend(r.similarity for r in recon.values())
                expected.append((f_d, s, math.fsum(sims) / len(sims)))
        curve = empirical_privacy_curve(fleet, f_d_values, s_values, seeds=seeds)
        assert [tuple(pt) for pt in curve] == expected

    def test_validation(self, small_fleet):
        with pytest.raises(ValueError):
            empirical_privacy_curve(small_fleet, [], [1])
        with pytest.raises(ValueError):
            empirical_privacy_curve(small_fleet, [0.5], [1], n_compromised=2)
        with pytest.raises(ValueError):
            empirical_privacy_curve(small_fleet, [0.5], [1], seeds=[])
