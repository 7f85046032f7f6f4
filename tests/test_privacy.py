import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_impls import scalar_projection, total_loss
from vanetmarket import (
    CalibrationReport,
    DEFAULT_CALIBRATION_FREQS,
    LossModel,
    GeoSample,
    PlanarPath,
    Trajectory,
    calibrate_per_server_loss,
    discrete_frechet,
    fit_per_server_decay,
    mean_similarity_by_frequency,
    path_similarity,
    project_planar,
    subsample,
    total_loss_raw,
)
from vanetmarket import privacy, trajectories
from vanetmarket.privacy import _ROW_BLOCK


def brute_force_frechet(p, q):
    """Minimum over all monotone couplings of the max coupled distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def dist(i, j):
        return math.sqrt((p[i, 0] - q[j, 0]) ** 2 + (p[i, 1] - q[j, 1]) ** 2)

    best = [math.inf]

    def walk(i, j, current):
        current = max(current, dist(i, j))
        if current >= best[0]:
            return
        if i == len(p) - 1 and j == len(q) - 1:
            best[0] = current
            return
        if i + 1 < len(p):
            walk(i + 1, j, current)
        if j + 1 < len(q):
            walk(i, j + 1, current)
        if i + 1 < len(p) and j + 1 < len(q):
            walk(i + 1, j + 1, current)

    walk(0, 0, 0.0)
    return best[0]


def naive_recursive_frechet(p, q):
    """Textbook recursive definition, no memoization."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def dist(i, j):
        return math.sqrt((p[i, 0] - q[j, 0]) ** 2 + (p[i, 1] - q[j, 1]) ** 2)

    def rec(i, j):
        d = dist(i, j)
        if i == 0 and j == 0:
            return d
        if i == 0:
            return max(rec(0, j - 1), d)
        if j == 0:
            return max(rec(i - 1, 0), d)
        return max(min(rec(i - 1, j), rec(i - 1, j - 1), rec(i, j - 1)), d)

    return rec(len(p) - 1, len(q) - 1)


def scalar_dp_frechet(p, q):
    """Eiter & Mannila's DP with per-cell numpy-scalar arithmetic and math.sqrt:
    the bitwise reference for paths too long for the naive recursion."""
    n = p.shape[0]
    m = q.shape[0]
    prev = np.empty(m)
    curr = np.empty(m)
    dx = p[0, 0] - q[0, 0]
    dy = p[0, 1] - q[0, 1]
    prev[0] = math.sqrt(dx * dx + dy * dy)
    for j in range(1, m):
        dx = p[0, 0] - q[j, 0]
        dy = p[0, 1] - q[j, 1]
        d = math.sqrt(dx * dx + dy * dy)
        prev[j] = max(prev[j - 1], d)
    for i in range(1, n):
        dx = p[i, 0] - q[0, 0]
        dy = p[i, 1] - q[0, 1]
        curr[0] = max(prev[0], math.sqrt(dx * dx + dy * dy))
        for j in range(1, m):
            dx = p[i, 0] - q[j, 0]
            dy = p[i, 1] - q[j, 1]
            d = math.sqrt(dx * dx + dy * dy)
            c = prev[j]
            if prev[j - 1] < c:
                c = prev[j - 1]
            if curr[j - 1] < c:
                c = curr[j - 1]
            curr[j] = c if c > d else d
        tmp = prev
        prev = curr
        curr = tmp
    return prev[m - 1]


def random_path(rng, max_len=8, lattice=False):
    n = int(rng.integers(1, max_len + 1))
    if lattice:
        return rng.integers(0, 3, size=(n, 2)).astype(float)
    return rng.uniform(-10, 10, size=(n, 2))


class TestDiscreteFrechet:
    def test_identical_paths(self):
        p = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, 0.0]])
        assert discrete_frechet(p, p.copy()) == 0.0

    def test_single_pair_euclidean(self):
        assert discrete_frechet(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0

    def test_parallel_segments(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert discrete_frechet(p, q) == 1.0
        assert brute_force_frechet(p, q) == 1.0

    def test_against_coupling_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            p, q = random_path(rng, 6), random_path(rng, 6)
            assert discrete_frechet(p, q) == pytest.approx(brute_force_frechet(p, q), abs=1e-12)

    def test_against_naive_recursion_random_lattice(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            p = random_path(rng, 6, lattice=True)
            q = random_path(rng, 6, lattice=True)
            assert discrete_frechet(p, q) == naive_recursive_frechet(p, q)

    def test_symmetry_nonnegativity_triangle(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            p, q, r = (random_path(rng) for _ in range(3))
            dpq = discrete_frechet(p, q)
            dqr = discrete_frechet(q, r)
            dpr = discrete_frechet(p, r)
            assert dpq >= 0.0
            assert dpq == discrete_frechet(q, p)
            assert dpr <= dpq + dqr + 1e-9

    def test_dominates_hausdorff(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            p, q = random_path(rng), random_path(rng)
            d2 = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
            hausdorff = max(d2.min(axis=1).max(), d2.min(axis=0).max())
            assert discrete_frechet(p, q) >= hausdorff - 1e-12

    def test_fleet_pairs_match_scalar_dp_exactly(self, fleet):
        for traj in fleet:
            origin = traj.centroid()
            full = project_planar(traj, origin=origin)
            for f in DEFAULT_CALIBRATION_FREQS:
                sub = project_planar(subsample(traj, f), origin=origin)
                assert discrete_frechet(full, sub) == scalar_dp_frechet(full.points, sub.points)

    def test_pair_longer_than_row_block_matches_scalar_dp_exactly(self):
        rng = np.random.default_rng(25)
        p = np.cumsum(rng.normal(scale=300.0, size=(2 * _ROW_BLOCK + 37, 2)), axis=0)
        q = p[::40] + rng.normal(scale=50.0, size=(len(p[::40]), 2))
        assert discrete_frechet(p, q) == scalar_dp_frechet(p, q)
        assert discrete_frechet(q, p) == scalar_dp_frechet(q, p)

    def test_accepts_planar_paths(self):
        p = PlanarPath(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert discrete_frechet(p, p) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            discrete_frechet(np.empty((0, 2)), np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize(
        "bad",
        [
            np.empty((0, 2)),
            np.zeros(4),
            np.zeros((3, 3)),
            np.zeros((2, 2, 1)),
            np.array([[0.0, 0.0], [np.nan, 1.0]]),
            np.array([[0.0, np.inf], [1.0, 1.0]]),
        ],
        ids=["empty", "1-d", "three-columns", "3-d", "nan", "inf"],
    )
    def test_array_arguments_get_the_planar_path_checks(self, bad):
        with pytest.raises(ValueError) as built:
            PlanarPath(bad)
        good = np.array([[0.0, 0.0], [1.0, 0.0]])
        for args in ((bad, good), (good, bad)):
            with pytest.raises(ValueError) as direct:
                discrete_frechet(*args)
            assert str(direct.value) == str(built.value)

    def test_array_arguments_are_read_as_planar_paths(self):
        p = [[0, 0], [3, 4], [6, 0]]
        q = np.array([[0, 1], [6, 1]], dtype=np.int64)
        assert discrete_frechet(p, q) == discrete_frechet(PlanarPath(p), PlanarPath(q))


def distances_bytes(dists):
    return np.array(dists, dtype=np.float64).tobytes()


@st.composite
def fleet_captures(draw):
    """Full paths, some with stops (a point held over several rows), in one
    table of points, and captures of them: each a strictly increasing set of
    one path's rows, as the privacy curve draws them."""
    coord = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3, allow_nan=False)
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=20, unique=True))
        stops = st.lists(st.sampled_from([1, 1, 2, 4]), min_size=len(points), max_size=len(points))
        paths.append(np.repeat(np.array(points), draw(stops), axis=0))
    offsets = np.cumsum([0] + [len(p) for p in paths])
    captures = []
    for _ in range(draw(st.integers(0, 10))):
        v = draw(st.integers(0, len(paths) - 1))
        kept = draw(st.lists(st.booleans(), min_size=len(paths[v]), max_size=len(paths[v])))
        rows = np.flatnonzero(kept) if any(kept) else np.array([len(paths[v]) - 1])
        captures.append((v, offsets[v] + rows))
    return paths, offsets, captures


def row_args(pairs):
    """`_frechet_rows`' arguments for (p, rows) pairs, q being p[rows]: the
    table is the ps in order."""
    ps = [p for p, _ in pairs]
    n_p = np.array([len(p) for p in ps], dtype=np.intp)
    starts = np.cumsum(n_p) - n_p
    q_rows = [np.asarray(rows, dtype=np.intp) + a for (_, rows), a in zip(pairs, starts)]
    n_q = np.array([len(rows) for rows in q_rows], dtype=np.intp)
    return ps, starts, n_p, np.concatenate(q_rows), n_q


def frechet_rows(pairs):
    """`_frechet_rows` of a nonempty batch of (p, rows) pairs."""
    return privacy._frechet_rows(*row_args(pairs))


class TestFrechetMany:
    """`_frechet_rows`, the batched kernel, is bitwise `_dfd_core` on every
    pair, whatever the batch."""

    def test_bitwise_equal_to_dfd_core_on_drawn_batches(self, monkeypatch):
        blocks = []
        anchored = []
        block = privacy._frechet_block
        bounds = privacy._bounds

        def counting_block(pairs, chunk):
            blocks.append(len(chunk))
            return block(pairs, chunk)

        def recording_bounds(pts, qts, n_p, n_q, anchor=None):
            lower, upper = bounds(pts, qts, n_p, n_q, anchor)
            if anchor is None:  # a pair of points: `_dfd_core` searches
                return lower, upper
            # Each q point sits at its anchor's row of p, so U is always finite.
            for k, (a, m) in enumerate(zip(anchor, n_q)):
                assert (pts[:, k, a[:m]] == qts[:, k, :m]).all()
                assert (np.diff(a[:m]) > 0).all()
            anchored.append(upper.tolist())
            return lower, upper

        monkeypatch.setattr(privacy, "_frechet_block", counting_block)
        monkeypatch.setattr(privacy, "_bounds", recording_bounds)
        reached = {"empty": 0, "|q| = 1": 0, "q = p": 0, "anchor not the first equal row": 0,
                   "chunk boundary": 0, "swept": 0, "over budget alone": 0}

        # Budgets small enough to cut every batch into chunks, or to leave a
        # single pair over budget, and the module's own. A zero threshold
        # sends every reference `_dfd_core` pair through the bounds' search
        # for the first equal row, which a capture's own rows need not be.
        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(
            drawn=fleet_captures(),
            budget=st.sampled_from([1, 6, 30, 150, privacy._FRECHET_POINTS]),
            threshold=st.sampled_from([0, privacy._BOUNDED_CELLS]),
        )
        def check(drawn, budget, threshold):
            paths, offsets, captures = drawn
            monkeypatch.setattr(privacy, "_FRECHET_POINTS", budget)
            monkeypatch.setattr(privacy, "_BOUNDED_CELLS", threshold)
            points = np.concatenate(paths)  # the table `_frechet_rows` reads from `paths`
            vehicles = np.array([v for v, _ in captures], dtype=np.intp)
            n_q = np.array([len(rows) for _, rows in captures], dtype=np.intp)
            q_rows = np.concatenate([rows for _, rows in captures] + [np.empty(0, np.intp)])
            blocks.clear()
            anchored.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # whatever pytest's own filters say
                got = privacy._frechet_rows(
                    paths, offsets[vehicles], np.diff(offsets)[vehicles], q_rows, n_q
                )
            assert all(upper < math.inf for chunk in anchored for upper in chunk)
            assert all(type(d) is float for d in got)
            assert distances_bytes(got) == distances_bytes(
                [privacy._dfd_core(paths[v], points[rows]) for v, rows in captures]
            )
            reached["empty"] += not captures
            reached["chunk boundary"] += len(anchored) >= 2
            reached["swept"] += len(blocks) >= 1
            for v, rows in captures:
                local = rows - offsets[v]
                first_equal = [
                    np.flatnonzero((paths[v] == pt).all(axis=1))[0] for pt in points[rows]
                ]
                reached["anchor not the first equal row"] += first_equal != list(local)
                reached["|q| = 1"] += len(rows) == 1 < len(paths[v])
                reached["q = p"] += len(rows) == len(paths[v])
                reached["over budget alone"] += len(paths[v]) * len(rows) > budget

        check()
        assert all(count >= 1 for count in reached.values()), reached

    def test_fleet_pairs_in_one_batch(self, fleet):
        pairs = []
        for traj in fleet:
            full = project_planar(traj, origin=traj.centroid()).points
            kept = trajectories._Fleet.of([traj])
            pairs.extend((full, rows) for f in DEFAULT_CALIBRATION_FREQS for rows in kept.kept(f))
        want = [privacy._dfd_core(p, p[rows]) for p, rows in pairs]
        assert distances_bytes(frechet_rows(pairs)) == distances_bytes(want)

    def test_empty_batch(self):
        none = np.empty(0, dtype=np.intp)
        assert privacy._frechet_rows([np.zeros((3, 2))], none, none, none, none) == []

    @pytest.mark.parametrize("n_pairs", [44, 220])
    def test_peak_memory_is_one_chunk(self, n_pairs, monkeypatch):
        # 44 pairs of 120 + 64 points fill one chunk (8,096 of 8,192 padded
        # points); 220 such pairs run as 5 chunks in the same memory.
        assert privacy._FRECHET_POINTS == 1 << 13
        bounded, swept = [], []
        block, bounds = privacy._frechet_block, privacy._bounds

        def counting_block(pairs, chunk):
            swept.append(len(chunk))
            return block(pairs, chunk)

        def counting_bounds(pts, qts, n_p, n_q, anchor=None):
            bounded.append(len(n_p))
            return bounds(pts, qts, n_p, n_q, anchor)

        monkeypatch.setattr(privacy, "_frechet_block", counting_block)
        monkeypatch.setattr(privacy, "_bounds", counting_bounds)
        rng = np.random.default_rng(26)
        pairs = [
            (rng.uniform(-1e3, 1e3, size=(120, 2)), np.sort(rng.choice(120, 64, replace=False)))
            for _ in range(n_pairs)
        ]
        args = row_args(pairs)
        tracemalloc.start()
        try:
            privacy._frechet_rows(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Both passes run on full chunks; the sweep gets the pairs the bounds
        # did not settle.
        assert bounded == [44] * (n_pairs // 44)
        assert max(swept) == min(44, sum(swept))
        # The packed points, three diagonals and numpy's ufunc buffers, with
        # the table and the results: 0.80 MB (44 pairs) and 1.14 MB (220)
        # measured. The bound is the one the 2**16-cell distance block met.
        assert peak <= 3 * 8 * (1 << 16)

    def test_pair_over_the_budget_is_swept_in_bounded_memory(self, monkeypatch):
        # One pair of 1,500 × 300 = 450,000 cells, far over the 65,536 that
        # once sent a pair to `_dfd_core`: it runs alone through the bounds
        # and the sweep, in memory linear in |p| + |q|.
        swept = []
        block = privacy._frechet_block

        def counting_block(pairs, chunk):
            swept.append(len(chunk))
            return block(pairs, chunk)

        def no_core(p, q):
            raise AssertionError("_frechet_rows called _dfd_core")

        rng = np.random.default_rng(32)
        p = np.cumsum(rng.uniform(-10.0, 10.0, size=(1500, 2)), axis=0)
        rows = np.sort(rng.choice(1500, 300, replace=False))
        want = privacy._dfd_core(p, p[rows])
        monkeypatch.setattr(privacy, "_frechet_block", counting_block)
        monkeypatch.setattr(privacy, "_dfd_core", no_core)
        args = row_args([(p, rows)])
        tracemalloc.start()
        try:
            got = privacy._frechet_rows(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert swept == [1]  # the bounds did not settle it
        assert distances_bytes(got) == distances_bytes([want])
        # 0.23 MB measured, some 16 float64 values a point; `_dfd_core` peaks
        # at 8.6 MB on this pair, and one float64 per cell would be 3.6 MB.
        assert peak <= 32 * 8 * (len(p) + len(rows))


@st.composite
def subset_pairs(draw):
    """A (p, q, rows) triple where q is p[rows], rows strictly increasing (the
    form every pair the package scores takes), or (p, q, None) for an
    unrelated path or a pair either way round. p may hold runs of one
    repeated point (a stationary vehicle), so that a column of the distance
    matrix holds several zeros."""
    coord = draw(st.sampled_from([
        st.integers(0, 4).map(float),  # ties and equal distances
        st.integers(-100, 100).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ]))
    # Distinct points, so that a path can wander back towards an earlier
    # anchor without meeting it; stops repeat a point on purpose.
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=24, unique=True))
    stops = st.sampled_from([1, 1, 1, 2, 3])
    repeats = draw(st.lists(stops, min_size=len(points), max_size=len(points)))
    p = np.repeat(np.array(points, dtype=np.float64), repeats, axis=0)
    n = len(p)
    kind = draw(st.sampled_from(["rows", "rows", "rows", "whole", "one", "unrelated"]))
    if kind == "whole":
        rows = np.arange(n)
    elif kind == "one":
        rows = np.array([draw(st.integers(0, n - 1))])
    elif kind == "rows":
        kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows = np.flatnonzero(kept) if any(kept) else np.array([n - 1])
    else:
        q = np.array(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=24)))
        return (q, p, None) if draw(st.booleans()) else (p, q, None)
    return (p[rows], p, None) if draw(st.booleans()) else (p, p[rows], rows)


def packed(pairs):
    """`_bounds`' arguments for a batch of (p, rows) pairs, as `_frechet_rows` packs them."""
    return privacy._pack(privacy._pairs_of(*row_args(pairs)), np.arange(len(pairs)))


def bounds_of(p, q):
    """`_bounds` of one pair of points, as `_dfd_core` takes them, as Python floats."""
    n_p, n_q = np.array([len(p)]), np.array([len(q)])
    lower, upper = privacy._bounds(p.T[:, None], q.T[:, None], n_p, n_q)
    return lower.item(), upper.item()


class TestFrechetBounds:
    """The bounds step of both kernels: L <= d_F <= U, and results bitwise the
    full dynamic program's whichever branch a pair takes."""

    def test_kernels_bitwise_equal_scalar_dp_on_row_subsets(self, monkeypatch):
        seen = []
        bounds = privacy._bounds

        def recording_bounds(pts, qts, n_p, n_q, anchor=None):
            lower, upper = bounds(pts, qts, n_p, n_q, anchor)
            seen.extend(zip(lower.tolist(), upper.tolist()))
            return lower, upper

        monkeypatch.setattr(privacy, "_bounds", recording_bounds)
        reached = {"settled": 0, "pruned DP": 0, "no finite U": 0, "first row dropped": 0,
                   "last row dropped": 0, "|q| = 1": 0, "q = p": 0, "stationary": 0,
                   "swapped": 0, "unrelated": 0, "several row blocks": 0}

        # Row blocks of 5 rows take pairs past one block at these sizes; a
        # zero cell threshold sends every pair of `_dfd_core` through the bounds.
        @settings(max_examples=250, deadline=None, derandomize=True)
        @given(
            batch=st.lists(subset_pairs(), min_size=1, max_size=4),
            row_block=st.sampled_from([5, privacy._ROW_BLOCK]),
            threshold=st.sampled_from([0, privacy._BOUNDED_CELLS]),
        )
        def check(batch, row_block, threshold):
            monkeypatch.setattr(privacy, "_ROW_BLOCK", row_block)
            monkeypatch.setattr(privacy, "_BOUNDED_CELLS", threshold)
            want = [scalar_dp_frechet(p, q) for p, q, _ in batch]
            by_rows = [(p, rows) for p, _, rows in batch if rows is not None]
            seen.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                core = [privacy._dfd_core(p, q) for p, q, _ in batch]
                many = frechet_rows(by_rows) if by_rows else []
            assert all(type(d) is float for d in core + many)
            assert distances_bytes(core) == distances_bytes(want)
            assert distances_bytes(many) == distances_bytes(
                [d for (_, _, rows), d in zip(batch, want) if rows is not None]
            )
            for (p, q, _), d in zip(batch, want):
                lower, upper = bounds_of(p, q)
                assert lower <= d <= upper
            if by_rows:
                # A batch's padding changes no pair's bounds, and q's own rows
                # as anchors bound d_F too.
                lower, upper = privacy._bounds(*packed(by_rows))
                alone = [privacy._bounds(*packed([pair])) for pair in by_rows]
                assert distances_bytes(lower) == distances_bytes([lo.item() for lo, _ in alone])
                assert distances_bytes(upper) == distances_bytes([up.item() for _, up in alone])
                rows_want = [d for (_, _, rows), d in zip(batch, want) if rows is not None]
                assert (lower <= rows_want).all() and (rows_want <= upper).all()

            reached["settled"] += any(lo == up for lo, up in seen)
            reached["pruned DP"] += any(lo < up < math.inf for lo, up in seen)
            reached["no finite U"] += any(up == math.inf for _, up in seen)
            for p, q, _ in batch:
                rows = [np.flatnonzero((p == point).all(axis=1)) for point in q]
                subset = all(len(r) for r in rows)
                swapped = not subset and all(len(np.flatnonzero((q == pt).all(axis=1))) for pt in p)
                reached["unrelated"] += not subset and not swapped
                reached["swapped"] += swapped and len(q) > len(p)
                reached["first row dropped"] += subset and not (q[0] == p[0]).all()
                reached["last row dropped"] += subset and not (q[-1] == p[-1]).all()
                reached["|q| = 1"] += subset and len(q) == 1 < len(p)
                reached["q = p"] += subset and p.shape == q.shape and (p == q).all()
                reached["stationary"] += bool((p[1:] == p[:-1]).all(axis=1).any())
                reached["several row blocks"] += max(len(p), len(q)) > row_block

        check()
        assert all(count >= 1 for count in reached.values()), reached

    def test_gap_that_doubles_back_takes_its_best_split(self):
        # Between the anchors q_0 = p_0 and q_1 = p_3 the path nears q_1, then
        # q_0 again: each row's nearer side is 0.1 away, but any one split
        # puts p_1 on the left (9.0 away) or p_2 on the right (8.9 away).
        p = np.array([[0.0, 0.0], [9.0, 0.1], [0.1, 0.0], [9.0, 0.0]])
        q = p[[0, 3]]
        want = scalar_dp_frechet(p, q)
        assert want == math.hypot(8.9, 0.0)
        lower, upper = bounds_of(p, q)
        assert lower <= want == upper
        assert distances_bytes(frechet_rows([(p, [0, 3])])) == distances_bytes([want])

    def test_pair_longer_than_row_block_on_row_subsets(self):
        # A walk with stops, past two row blocks, against kept rows of it and
        # the other way round, at the module's own block and threshold.
        rng = np.random.default_rng(27)
        steps = rng.normal(scale=300.0, size=(2 * _ROW_BLOCK + 37, 2))
        steps[rng.random(len(steps)) < 0.1] = 0.0
        p = np.cumsum(steps, axis=0)
        for keep in (slice(None, None, 9), slice(5, -3, 17)):
            rows = np.arange(len(p))[keep]
            q = p[rows]
            for a, b in ((p, q), (q, p)):
                want = scalar_dp_frechet(a, b)
                lower, upper = bounds_of(a, b)
                assert lower <= want <= upper
                assert distances_bytes([privacy._dfd_core(a, b)]) == distances_bytes([want])
            want = scalar_dp_frechet(p, q)
            assert distances_bytes(frechet_rows([(p, rows)])) == distances_bytes([want])

    def test_bounds_meet_on_most_subsampled_fleet_paths(self, fleet):
        settled = total = 0
        for traj in fleet:
            origin = traj.centroid()
            full = project_planar(traj, origin=origin).points
            for f in DEFAULT_CALIBRATION_FREQS:
                sub = full[trajectories._Fleet.of([traj]).kept(f)[0]]
                lower, upper = bounds_of(full, sub)
                assert upper < math.inf
                settled += lower == upper
                total += 1
        assert 2 * settled >= total, (settled, total)  # 223 of 360


class TestPathSimilarity:
    def test_identical_is_one(self):
        p = PlanarPath(np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]]))
        assert path_similarity(p, p) == 1.0

    def test_fully_displaced_is_zero(self):
        p = PlanarPath(np.array([[0.0, 0.0], [100.0, 0.0]]))
        q = PlanarPath(np.array([[0.0, 500.0], [100.0, 500.0]]))
        assert path_similarity(p, q) == 0.0

    def test_straight_line_two_endpoint_subsample(self):
        # 10 collinear points spanning 100 m against just the two endpoints:
        # interior vertices sit up to (4/9)*100 m from the nearest endpoint,
        # so the discrete metric leaves similarity at 5/9 (oracle-confirmed).
        xs = np.linspace(0.0, 100.0, 10)
        full = np.column_stack([xs, np.zeros(10)])
        ends = np.array([[0.0, 0.0], [100.0, 0.0]])
        expected_d = brute_force_frechet(full, ends)
        assert expected_d == pytest.approx(400.0 / 9.0, rel=1e-12)
        sim = path_similarity(PlanarPath(full), PlanarPath(ends))
        assert sim == pytest.approx(5.0 / 9.0, rel=1e-12)

    def test_zero_diameter_rejected(self):
        p = PlanarPath(np.array([[1.0, 1.0], [1.0, 1.0]]))
        q = PlanarPath(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="diameter"):
            path_similarity(p, q)

    @pytest.mark.parametrize("diameter", [math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0])
    def test_diameter_outside_open_positive_range_rejected(self, diameter):
        # NaN and inf pass a `diam <= 0.0` test and would score 0.0 and 1.0.
        p = PlanarPath(np.array([[0.0, 0.0], [1.0, 0.0]]))
        message = f"diameter must be positive and finite, got {diameter}"
        with pytest.raises(ValueError, match=message):
            path_similarity(p, p, diameter)

    def test_short_paths_rejected(self):
        p = PlanarPath(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            path_similarity(p, PlanarPath(np.array([[0.0, 0.0]])))


class TestLossModel:
    def test_invariants(self):
        with pytest.raises(ValueError):
            LossModel(k=0.0)
        with pytest.raises(ValueError):
            LossModel(p=-1.0)
        with pytest.raises(ValueError):
            LossModel(eps_clamp=0.0)
        with pytest.raises(ValueError):
            LossModel(eps_clamp=1.5)

    def test_value_at_unit_point(self):
        model = LossModel()
        assert total_loss_raw(model, 1.0, 1.0) == pytest.approx(0.09511325254069622, rel=1e-12)
        assert total_loss(model, 1.0, 1.0) == pytest.approx(0.09511325254069622, rel=1e-12)

    def test_clamp_activates_at_reported_operating_point(self):
        model = LossModel()
        raw = total_loss_raw(model, 7.31, 15.12)
        assert raw == pytest.approx(-3.4058440550044367e-06, rel=1e-9)
        assert total_loss(model, 7.31, 15.12) == model.eps_clamp

    def test_limit_reduces_to_first_term(self):
        # with huge p and q the frequency and server terms are both suppressed
        model = LossModel(k=12.447, p=1e6, q=1e6)
        f_d, s = 0.35, 2.0
        assert total_loss(model, f_d, s) == pytest.approx(
            1.0 - math.exp(-12.447 * f_d / s), abs=1e-12
        )

    def test_clamped_range_property(self):
        model = LossModel()
        rng = np.random.default_rng(31)
        for _ in range(500):
            f_d = float(10 ** rng.uniform(-2, 2))
            s = float(rng.uniform(1, 100))
            val = total_loss(model, f_d, s)
            assert model.eps_clamp <= val <= 1.0

    def test_first_term_monotonicity(self):
        model = LossModel()
        first = lambda f, s: 1.0 - math.exp(-model.k * f / s)
        fs = np.linspace(0.05, 2.0, 25)  # below float saturation of the exponential
        ss = np.linspace(1, 100, 25)
        assert all(first(a, 5.0) < first(b, 5.0) for a, b in zip(fs, fs[1:]))
        assert all(first(2.0, a) > first(2.0, b) for a, b in zip(ss, ss[1:]))

    def test_preconditions(self):
        model = LossModel()
        for f_d, s in [(0.0, 1.0), (1.0, 0.5), (math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                total_loss_raw(model, f_d, s)

    @pytest.mark.parametrize("field", ["k", "p", "q", "eps_clamp"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            LossModel(**{field: math.nan})


class TestPerServerFit:
    def test_planted_coefficient_recovery(self):
        points = [(f, 1.0 - math.exp(-12.447 * f)) for f in DEFAULT_CALIBRATION_FREQS]
        report = fit_per_server_decay(points)
        assert report.fitted_k == pytest.approx(12.447, abs=1e-6)
        assert report.residual_rms < 1e-9
        assert report.converged

    def test_default_ladder_is_half_down_to_tenth(self):
        assert DEFAULT_CALIBRATION_FREQS == tuple(1.0 / m for m in range(2, 11))

    def test_underdetermined(self):
        with pytest.raises(ValueError, match="underdetermined"):
            fit_per_server_decay([(0.5, 0.9), (0.5, 0.91)])

    def test_degenerate_all_zero_similarities(self):
        points = [(f, 0.0) for f in DEFAULT_CALIBRATION_FREQS]
        report = fit_per_server_decay(points)
        assert abs(report.fitted_k) < 1e-3  # flat decay fits k ~ 0

    def test_report_validation(self):
        with pytest.raises(ValueError):
            CalibrationReport(fitted_k=1.0, residual_rms=-0.1, points=((0.5, 0.9),))
        with pytest.raises(ValueError):
            CalibrationReport(fitted_k=1.0, residual_rms=0.0, points=())
        with pytest.raises(ValueError):
            CalibrationReport(fitted_k=1.0, residual_rms=0.0, points=((0.5, 1.2),))


# Latitudes and longitudes over the whole range the projection takes, signed
# zeros included.
LATITUDES = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-89.0, 89.0))
LONGITUDES = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-179.0, 179.0))


@st.composite
def moving_trajectories(draw, vid):
    points = draw(st.lists(st.tuples(LATITUDES, LONGITUDES), min_size=2, max_size=50))
    traj = Trajectory(vid, tuple(GeoSample(float(t), *p) for t, p in enumerate(points)))
    # A full path needs a positive diameter, which subnormal steps underflow to 0.
    assume(PlanarPath(scalar_projection(traj, traj.centroid())).diameter() > 0.0)
    return traj


class TestFullPaths:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_columns_give_the_trajectory_centroid_and_projection(self, data):
        n = data.draw(st.integers(1, 4))
        trajs = [data.draw(moving_trajectories(f"v{i}")) for i in range(n)]
        for traj, full in zip(trajs, privacy._full_paths(trajectories._Fleet.of(trajs))):
            origin = traj.centroid()
            assert np.array(full.origin).tobytes() == np.array(origin).tobytes()
            want = scalar_projection(traj, origin).tobytes()
            assert full.path.points.tobytes() == want
            assert project_planar(traj, origin=origin).points.tobytes() == want


class TestCalibration:
    def test_mean_similarity_non_decreasing_in_frequency(self, fleet):
        points = dict(mean_similarity_by_frequency(fleet, DEFAULT_CALIBRATION_FREQS))
        ordered = [points[f] for f in sorted(points)]
        assert all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))

    def test_report_points_match_measurement(self, fleet, input_forms):
        freqs = (0.5, 0.25, 0.125)
        report = calibrate_per_server_loss(fleet, freqs)
        measured = mean_similarity_by_frequency(fleet, freqs)
        assert report.points == tuple(measured)
        assert 0.0 < report.fitted_k
        for form, trajs in input_forms(fleet).items():
            assert mean_similarity_by_frequency(trajs, freqs) == measured, form
            assert calibrate_per_server_loss(trajs, freqs) == report, form

    def test_vehicle_order_invariance(self, fleet):
        freqs = (0.5, 0.2)
        forward = mean_similarity_by_frequency(fleet, freqs)
        backward = mean_similarity_by_frequency(list(reversed(fleet)), freqs)
        assert forward == backward

    def test_empty_inputs_rejected(self, fleet):
        with pytest.raises(ValueError):
            calibrate_per_server_loss([], (0.5, 0.2))
        with pytest.raises(ValueError):
            mean_similarity_by_frequency(fleet, [])

    def test_projects_each_vehicle_once(self, small_fleet, monkeypatch):
        calls = []

        planar = trajectories._planar

        def counting(txy, origin):
            calls.append(txy.tobytes())
            return planar(txy, origin)

        # Both names, so a projection through `project_planar` is counted too.
        monkeypatch.setattr(trajectories, "_planar", counting)
        monkeypatch.setattr(privacy, "_planar", counting)
        mean_similarity_by_frequency(small_fleet, (0.5, 0.25, 0.2))
        # The full paths only: each frequency's subsampled path is rows of them.
        assert calls == [np.array(t.samples, dtype=np.float64).tobytes() for t in small_fleet]

    def test_parked_vehicle_named_before_any_frechet_work(self, small_fleet, monkeypatch):
        samples = tuple(GeoSample(float(t), 39.9, 116.4) for t in range(10, 20))
        parked = Trajectory("parked-7", samples)

        def no_frechet(p, q):
            raise AssertionError("Fréchet work started before the fleet was checked")

        monkeypatch.setattr(privacy, "discrete_frechet", no_frechet)
        with pytest.raises(ValueError, match="'parked-7' never moves"):
            mean_similarity_by_frequency([*small_fleet, parked], (0.5, 0.2))
