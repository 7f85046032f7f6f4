import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from vanetmarket import (
    FIELD_PRIME,
    GridSpec,
    SpatioTemporalMap,
    Trajectory,
    adversary_reconstruct,
    aggregate_secure,
    build_map,
    build_utility_surface,
    calibrate_per_server_loss,
    empirical_privacy_curve,
    generate_synthetic,
    mean_similarity_by_frequency,
    route_samples,
    secret_share,
    subsample,
)
from reference_impls import per_seed_privacy_curve, regrouped_partial_maps
from vanetmarket import privacy, smpc, trajectories

SPEC = GridSpec((39.8, 40.0, 116.25, 116.5))


def duplicated_fleet(shift=0.5):
    """Five trajectories, two under id v0000: the second is v0001's path, `shift` minutes later."""
    trajs = generate_synthetic(4, 30, seed=1)
    twin = tuple(g._replace(t=g.t + shift) for g in trajs[1].samples)
    return [*trajs, Trajectory("v0000", twin)]


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


# Server counts `operator.index` refuses: each would once have been truncated
# by the draw or failed in numpy or range.
NON_INTEGER_SERVER_COUNTS = [2.5, 2.0, math.nan, "2"]


def not_an_integer(s):
    return f"server count must be an integer, got {re.escape(repr(s))}$"


def no_thinning(*args):
    raise AssertionError("thinning started before the server count was checked")


def no_drawing(*args):
    raise AssertionError("the draw started before the server count was checked")


class TestServerDraw:
    """`_draw_servers` makes one numpy call per round; the routing it stands
    for draws one vehicle at a time from the same generator."""

    @pytest.mark.parametrize("s", [1, 2, 3, 8, 2**32, 2**32 + 1, 2**40])
    def test_one_call_is_the_per_vehicle_draws(self, s):
        rng = np.random.default_rng(41)
        size_lists = [[0], [5], [0, 0, 3], [3, 0, 0], [1] * 9] + [
            rng.integers(0, 6, size=int(rng.integers(1, 12))).tolist() for _ in range(40)
        ]
        for seed, sizes in enumerate(size_lists):
            per_vehicle = np.random.default_rng(np.random.SeedSequence([seed]))
            want = [per_vehicle.integers(0, s, size=n) for n in sizes]
            got = smpc._draw_servers(sum(sizes), s, seed)
            assert got.dtype == np.int64
            assert got.tobytes() == np.concatenate(want).tobytes(), (s, sizes)


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

    @pytest.mark.parametrize("s", NON_INTEGER_SERVER_COUNTS)
    def test_non_integer_server_count_rejected_before_any_work(self, small_fleet, monkeypatch, s):
        monkeypatch.setattr(trajectories, "_kept_index", no_thinning)
        with pytest.raises(ValueError, match=not_an_integer(s)):
            route_samples(small_fleet, 0.5, s, seed=0)


# (f_d, s, bbox): a round at the native rate, a single server, a thinned round,
# a bbox that drops samples, and more servers than samples.
ROUTE_CASES = [
    (1.0, 8, SPEC.bbox),
    (1.0, 1, SPEC.bbox),
    (0.25, 4, SPEC.bbox),
    (1.0, 4, (39.85, 39.95, 116.3, 116.45)),
    (1.0, 500, SPEC.bbox),
]


class TestRouteFleet:
    """`smpc._route` + `build_map` against the inbox regroup they replaced."""

    @pytest.mark.parametrize("count_mode", ["vehicles", "samples"])
    @pytest.mark.parametrize("f_d, s, bbox", ROUTE_CASES)
    def test_partial_maps_equal_the_inbox_regroup(self, small_fleet, count_mode, f_d, s, bbox):
        spec = GridSpec(bbox)
        fleet = trajectories._Fleet.of(small_fleet)
        servers = smpc._route(fleet, fleet._kept_rows(f_d), s, seed=6)
        got = [trajectories.build_map(rows, spec, count_mode) for rows in servers]
        want = regrouped_partial_maps(small_fleet, f_d, s, 6, spec, count_mode)
        assert [list(p.counts.items()) for p in got] == [list(p.counts.items()) for p in want]
        assert [p.dropped_outside for p in got] == [p.dropped_outside for p in want]
        n_kept = sum(len(rows.txy) for rows in servers)
        assert n_kept == sum(len(subsample(t, f_d)) for t in small_fleet)
        if bbox != SPEC.bbox:
            assert sum(p.dropped_outside for p in want) > 0
        if s == 500:
            assert any(len(rows.txy) == 0 for rows in servers)

    @pytest.mark.parametrize("f_d, s", [(f_d, s) for f_d, s, _ in ROUTE_CASES])
    def test_server_rows_are_the_inbox_samples(self, small_fleet, f_d, s):
        fleet = trajectories._Fleet.of(small_fleet)
        servers = smpc._route(fleet, fleet._kept_rows(f_d), s, seed=2)
        inboxes = route_samples(small_fleet, f_d, s, seed=2)
        assert len(servers) == len(inboxes) == s
        for rows, inbox in zip(servers, inboxes):
            assert rows.ids == [t.vehicle_id for t in small_fleet]
            received = [(t.vehicle_id, g) for t in rows.trajectories() for g in t.samples]
            assert received == inbox.received

    def test_server_count_validation(self, small_fleet):
        fleet = trajectories._Fleet.of(small_fleet)
        with pytest.raises(ValueError, match="server count must be >= 1, got 0"):
            smpc._route(fleet, fleet._kept_rows(1.0), 0, seed=0)

    @pytest.mark.parametrize("s", NON_INTEGER_SERVER_COUNTS)
    def test_non_integer_server_count_rejected_before_any_work(self, small_fleet, monkeypatch, s):
        fleet = trajectories._Fleet.of(small_fleet)
        rows = fleet._kept_rows(1.0)
        monkeypatch.setattr(smpc, "_draw_servers", no_drawing)
        with pytest.raises(ValueError, match=not_an_integer(s)):
            smpc._route(fleet, rows, s, seed=0)


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
        assert transcript.share_matrix.dtype == np.uint64
        assert transcript.share_matrix.shape == (s, s, len(cells))
        assert transcript.share_matrix.tolist() == share_matrix
        assert transcript.per_server_sums.tolist() == per_server_sums
        assert transcript.reconstructed.counts == counts
        assert transcript.reconstructed.dropped_outside == dropped
        written = transcript.to_json_dict(keep_shares=True)
        assert all(type(v) is int for row in written["share_matrix"] for vec in row for v in vec)
        assert all(type(v) is int for vec in written["per_server_sums"] for v in vec)
        assert all(type(v) is int for v in transcript.reconstructed.counts.values())

    def test_empty_partials_match_scalar_loop(self):
        partials = [SpatioTemporalMap(SPEC), SpatioTemporalMap(SPEC)]
        transcript = aggregate_secure(partials, seed=4)
        cells, share_matrix, per_server_sums, counts, _ = scalar_aggregate_secure(partials, 4)
        assert transcript.cells == cells
        assert transcript.share_matrix.dtype == np.uint64
        assert transcript.share_matrix.shape == (2, 2, 0)
        assert transcript.share_matrix.tolist() == share_matrix
        assert transcript.per_server_sums.tolist() == per_server_sums
        assert transcript.reconstructed.counts == counts == {}

    def test_retains_the_share_tensor_only(self):
        # 16 servers over about 2,000 cells: a list copy of the shares as
        # Python ints would retain about 5x the tensor's bytes.
        partials = random_partials(np.random.default_rng(15), 16, n_cells=500)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            transcript = aggregate_secure(partials, seed=5)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(transcript.cells) > 1500
        assert retained <= 2 * transcript.share_matrix.nbytes

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

    @pytest.mark.parametrize("shift", [0.5, 0.0])
    def test_duplicate_vehicle_id_rejected(self, shift):
        # Inboxes carry only the id, so two vehicles under one id would be
        # pooled into one reconstruction.
        trajs = duplicated_fleet(shift)
        inboxes = route_samples(trajs[:-1], 0.5, 2, seed=0)
        with pytest.raises(ValueError, match="duplicate vehicle id 'v0000'"):
            adversary_reconstruct(inboxes, frozenset({0}), trajs)

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


# Each public function that takes trajectories, applied to the list `trajs`.
TRACE_FUNCTIONS = {
    "build_map": lambda trajs: build_map(trajs, SPEC),
    "build_utility_surface": lambda trajs: build_utility_surface(trajs, SPEC, [2], [0.5]),
    "mean_similarity_by_frequency": lambda trajs: mean_similarity_by_frequency(trajs, [0.5]),
    "calibrate_per_server_loss": calibrate_per_server_loss,
    "empirical_privacy_curve": lambda trajs: empirical_privacy_curve(trajs, [0.5], [2]),
    "route_samples": lambda trajs: route_samples(trajs, 0.5, 2, seed=0),
    "adversary_reconstruct": lambda trajs: adversary_reconstruct(
        route_samples(trajs[:-1], 0.5, 2, seed=0), [0], trajs
    ),
}


@pytest.mark.parametrize("shift", [0.5, 0.0])
@pytest.mark.parametrize("function", sorted(TRACE_FUNCTIONS))
def test_a_vehicle_id_names_one_vehicle(function, shift):
    # A trace file cannot repeat a vehicle id, so a list that does is an error
    # everywhere: not merged per cell in one place and scored apart in another.
    with pytest.raises(ValueError, match="duplicate vehicle id 'v0000'"):
        TRACE_FUNCTIONS[function](duplicated_fleet(shift))


class TestEmpiricalCurve:
    def test_single_server_matches_calibration_exactly(self, fleet, monkeypatch):
        # The curve's batched sweep against calibration's per-pair kernel, at
        # the module's chunk budget and with every pair in a chunk alone.
        swept = []
        block = privacy._frechet_block

        def counting_block(pairs, chunk):
            swept.append(len(chunk))
            return block(pairs, chunk)

        monkeypatch.setattr(privacy, "_frechet_block", counting_block)
        freqs = privacy.DEFAULT_CALIBRATION_FREQS
        calibration = mean_similarity_by_frequency(fleet, freqs)
        for budget in (privacy._FRECHET_POINTS, 1):
            monkeypatch.setattr(privacy, "_FRECHET_POINTS", budget)
            swept.clear()
            curve = empirical_privacy_curve(fleet, freqs, [1], n_compromised=1, seeds=[0])
            assert [(pt.f_d, pt.mean_similarity) for pt in curve] == calibration
            assert swept
        assert set(swept) == {1}

    def test_native_rate_single_server_is_one(self, small_fleet):
        curve = empirical_privacy_curve(small_fleet, [1.0], [1], seeds=[3])
        assert curve[0].mean_similarity == 1.0

    def test_monotone_non_increasing_in_servers(self, fleet):
        curve = empirical_privacy_curve(fleet, [0.5], [1, 2, 4, 8], seeds=[0, 1, 2])
        sims = [pt.mean_similarity for pt in curve]
        assert all(a >= b - 5e-3 for a, b in zip(sims, sims[1:]))

    def test_matches_per_call_reconstruction_exactly(self, fleet):
        # The adversary holds servers 0 .. n_compromised - 1.
        f_d_values, seeds = (0.5, 0.2), [0, 1]
        for n_compromised, s_values in ((1, [1, 2, 4]), (2, [2, 4])):
            expected = []
            for f_d in f_d_values:
                for s in s_values:
                    sims = []
                    for seed in seeds:
                        inboxes = route_samples(fleet, f_d, s, seed)
                        recon = adversary_reconstruct(inboxes, range(n_compromised), fleet)
                        sims.extend(r.similarity for r in recon.values())
                    expected.append((f_d, s, math.fsum(sims) / len(sims)))
            curve = empirical_privacy_curve(
                fleet, f_d_values, s_values, n_compromised=n_compromised, seeds=seeds
            )
            assert [tuple(pt) for pt in curve] == expected

    def test_subsamples_each_vehicle_once_per_frequency(self, small_fleet, monkeypatch):
        calls = []

        kept_rows = trajectories._Fleet._kept_rows

        def counting(fleet, f_d):
            calls.extend((vehicle_id, f_d) for vehicle_id in fleet.ids)
            return kept_rows(fleet, f_d)

        def no_subsample(traj, f_d):
            raise AssertionError("the curve built a subsampled trajectory")

        monkeypatch.setattr(trajectories._Fleet, "_kept_rows", counting)
        monkeypatch.setattr(smpc, "subsample", no_subsample)
        f_d_values = (0.5, 0.25, 0.2)
        empirical_privacy_curve(small_fleet, f_d_values, [1, 2, 4], n_compromised=1, seeds=[0, 1])
        assert sorted(calls) == sorted((t.vehicle_id, f) for t in small_fleet for f in f_d_values)

    @pytest.mark.parametrize(
        "n_compromised, s_values", [(1, [1, 2]), (2, [2])], ids=["one-compromised", "two-compromised"]
    )
    def test_equals_per_seed_scoring_exactly(self, fleet, n_compromised, s_values, input_forms):
        # At s = n_compromised the capture is scored once and counted per seed.
        f_d_values, seeds = (0.5, 0.2), [0, 1, 2]
        expected = per_seed_privacy_curve(fleet, f_d_values, s_values, n_compromised, seeds)
        for form, trajs in input_forms(fleet).items():
            curve = empirical_privacy_curve(
                trajs, f_d_values, s_values, n_compromised=n_compromised, seeds=seeds
            )
            assert [tuple(pt) for pt in curve] == expected, form

    def test_projects_each_vehicle_once_per_frequency(self, small_fleet, monkeypatch):
        calls = []

        planar = trajectories._planar

        def counting(txy, origin):
            calls.append(txy.tobytes())
            return planar(txy, origin)

        # Both names, so a projection through `project_planar` is counted too.
        monkeypatch.setattr(trajectories, "_planar", counting)
        monkeypatch.setattr(privacy, "_planar", counting)
        f_d_values = (0.5, 0.25, 0.2)
        empirical_privacy_curve(small_fleet, f_d_values, [1, 2, 4], n_compromised=1, seeds=[0, 1])
        # The full paths only: each f_d's kept samples are rows of them.
        assert calls == [np.array(t.samples, dtype=np.float64).tobytes() for t in small_fleet]

    def test_captures_of_one_sample_start_no_frechet_work(self, small_fleet, monkeypatch):
        batches = []

        def recording(points, p_start, n_p, q_rows, n_q):
            batches.append(n_q.tolist())
            return privacy._frechet_rows(points, p_start, n_p, q_rows, n_q)

        monkeypatch.setattr(smpc, "_frechet_rows", recording)
        f_d, s_values, seeds = 0.1, [4, 8], [0, 1, 2]
        empirical_privacy_curve(small_fleet, [f_d], s_values, n_compromised=1, seeds=seeds)
        sizes = [len(subsample(t, f_d)) for t in small_fleet]
        captured = [
            int((servers < 1).sum())
            for s in s_values
            for seed in seeds
            for servers in np.split(smpc._draw_servers(sum(sizes), s, seed), np.cumsum(sizes)[:-1])
        ]
        assert 1 in captured  # the case is reached, not just allowed for
        assert batches == [[n for n in captured if n >= 2]]

    def test_server_counts_checked_before_any_work(self, small_fleet, monkeypatch):
        def no_subsample(fleet, f_d):
            raise AssertionError("subsampling started before the server counts were checked")

        monkeypatch.setattr(trajectories._Fleet, "_kept_rows", no_subsample)
        with pytest.raises(ValueError, match="n_compromised=2 invalid for s=1"):
            empirical_privacy_curve(small_fleet, [0.5], [4, 1], n_compromised=2)

    @pytest.mark.parametrize("s", NON_INTEGER_SERVER_COUNTS)
    def test_non_integer_server_count_rejected_before_any_work(self, small_fleet, monkeypatch, s):
        # 2.5 once drew servers from {0, 1} and was reported as s = 2.
        monkeypatch.setattr(trajectories._Fleet, "_kept_rows", no_thinning)
        with pytest.raises(ValueError, match=not_an_integer(s)):
            empirical_privacy_curve(small_fleet, [0.5], [4, s])

    def test_numpy_integer_server_count_is_that_count(self, small_fleet):
        want = empirical_privacy_curve(small_fleet, [0.5], [2], seeds=[0, 1])
        assert empirical_privacy_curve(small_fleet, [0.5], [np.int64(2)], seeds=[0, 1]) == want

    def test_validation(self, small_fleet):
        with pytest.raises(ValueError):
            empirical_privacy_curve(small_fleet, [], [1])
        with pytest.raises(ValueError):
            empirical_privacy_curve(small_fleet, [0.5], [1], n_compromised=2)
        with pytest.raises(ValueError):
            empirical_privacy_curve(small_fleet, [0.5], [1], seeds=[])
        with pytest.raises(ValueError, match="need at least one trajectory"):
            empirical_privacy_curve([], [0.5], [1], seeds=[0])
