import functools
import itertools
import math

import numpy as np
import pytest

import meandim as md
from meandim import FiniteDistribution, RdProblem, kernels
from meandim.errors import NonConvergenceError
from meandim.information import entropy_bits

from conftest import FIXTURES, disc


class TestBlahutArimoto:
    def test_binary_hamming_closed_form(self):
        prob = md.binary_hamming_problem()
        for D in (0.05, 0.1, 0.25):
            pt = md.blahut_arimoto(prob, md.slope_for_hamming_distortion(D), tol=1e-11)
            assert abs(pt.rate - (1 - md.binary_entropy(D))) < 1e-4
            assert abs(pt.distortion - D) < 1e-6

    def test_zero_distortion_limit_gives_source_entropy(self):
        src = FiniteDistribution(("a", "b", "c"), (0.5, 0.3, 0.2))
        prob = RdProblem.build(src, ("a", "b", "c"),
                               [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        pt = md.blahut_arimoto(prob, slope=40.0, tol=1e-11)
        assert abs(pt.rate - entropy_bits(src.prob_array())) < 1e-6
        assert pt.distortion < 1e-9

    def test_large_distortion_gives_zero_rate(self):
        src = FiniteDistribution(("a", "b"), (0.5, 0.5))
        prob = RdProblem.build(src, ("a", "b"), [[0, 1], [1, 0]])
        pt = md.blahut_arimoto(prob, slope=1e-4, tol=1e-11)
        assert pt.rate < 1e-6
        assert pt.distortion <= 0.5 + 1e-9  # best single reproduction

    def test_convex_nonincreasing_sweep(self):
        src = FiniteDistribution(("a", "b"), (0.35, 0.65))
        prob = RdProblem.build(src, ("a", "b"), [[0, 1], [1, 0]])
        slopes = np.linspace(0.2, 8.0, 50)
        pts = md.rd_curve(prob, slopes, tol=1e-11)
        pts = sorted(pts, key=lambda p: p.distortion)
        rates = [p.rate for p in pts]
        assert all(r2 <= r1 + 1e-9 for r1, r2 in zip(rates, rates[1:]))
        for i in range(1, len(pts) - 1):
            d0, d1, d2 = (pts[j].distortion for j in (i - 1, i, i + 1))
            r0, r1, r2 = (pts[j].rate for j in (i - 1, i, i + 1))
            if d1 - d0 > 1e-12 and d2 - d1 > 1e-12:
                s01 = (r1 - r0) / (d1 - d0)
                s12 = (r2 - r1) / (d2 - d1)
                assert s12 >= s01 - 1e-6

    def test_nonconvergence_carries_gap(self):
        src = FiniteDistribution(("a", "b", "c"), (0.6, 0.3, 0.1))
        rho = [[0, 2, 1], [1, 0, 3], [2, 1, 0]]
        prob = RdProblem.build(src, ("a", "b", "c"), rho)
        with pytest.raises(NonConvergenceError) as ei:
            md.blahut_arimoto(prob, slope=2.0, tol=1e-13, max_iter=2)
        assert ei.value.gap > 0
        assert "slope 2" in str(ei.value) and "still above tol" in str(ei.value)
        # a sweep names the slope that failed
        with pytest.raises(NonConvergenceError, match="slope 1.5: .* still above tol"):
            md.rd_curve(prob, [3.0, 1.5], max_iter=100)

    def test_deterministic(self):
        src = FiniteDistribution(("a", "b", "c"), (0.6, 0.3, 0.1))
        rho = [[0, 2, 1], [1, 0, 3], [2, 1, 0]]
        prob = RdProblem.build(src, ("a", "b", "c"), rho)
        p1 = md.blahut_arimoto(prob, 1.7)
        p2 = md.blahut_arimoto(prob, 1.7)
        assert (p1.rate, p1.distortion, p1.iterations) == (p2.rate, p2.distortion,
                                                           p2.iterations)

    def test_zero_probability_outcomes_dropped(self):
        src = FiniteDistribution(("a", "b", "z"), (0.5, 0.5, 0.0))
        prob = RdProblem.build(src, ("a", "b"), [[0, 1], [1, 0], [7, 7]])
        pt = md.blahut_arimoto(prob, md.slope_for_hamming_distortion(0.1), tol=1e-11)
        assert abs(pt.rate - (1 - md.binary_entropy(0.1))) < 1e-4

    def test_validation(self):
        src = FiniteDistribution(("a", "b"), (0.5, 0.5))
        with pytest.raises(ValueError):
            RdProblem.build(src, ("a",), [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            RdProblem.build(src, ("a", "b"), [[0, -1], [1, 0]])
        with pytest.raises(ValueError, match="the reproduction alphabet is empty"):
            RdProblem.build(src, (), np.zeros((2, 0)))
        prob = RdProblem.build(src, ("a", "b"), [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            md.blahut_arimoto(prob, slope=-1.0)


def textbook_ba(p, rho, beta, tol, max_iter, renormalise=False):
    """Blahut-Arimoto as written before the subnormal flush; also returns q.

    q is not renormalised: q c sums to sum(p) whatever the scale of q.
    ``renormalise`` divides each new q by its sum, as the kernel once did.
    """
    K = np.exp2(-beta * rho)
    q = np.full(rho.shape[1], 1.0 / rho.shape[1])
    gap, it, converged = np.inf, 0, False
    while it < max_iter and not converged:
        it += 1
        Z = K @ q
        c = (p / Z) @ K
        gap = float(np.log2(np.max(c)))
        q = q * c
        if renormalise:
            q /= q.sum()
        converged = gap < tol
    Z = K @ q
    cond = K * q[None, :] / Z[:, None]
    qbar = p @ cond
    ratio = np.divide(cond, qbar[None, :], out=np.ones_like(cond),
                      where=(cond > 0) & (qbar[None, :] > 0))
    rate = float(np.sum(p[:, None] * cond * np.log2(ratio)))
    dist = float(np.sum(p[:, None] * cond * rho))
    return (rate, dist, it, gap, converged), q


class TestSubnormalFlush:
    def test_matches_textbook_loop_where_q_underflows(self):
        tiny = np.finfo(np.float64).tiny
        flushed = 0
        for p, rho, beta in underflow_problems():
            want, q = textbook_ba(p, rho, beta, 1e-9, 20000)
            assert kernels.ba_solve(p, rho, beta, 1e-9, 20000) == want
            flushed += bool(((q > 0) & (q < tiny)).any())
        # the reference ends with subnormal reproduction mass on most seeds
        assert flushed >= 6

    def test_golden_window_point_pinned(self, fixtures_dir):
        measure = md.parse_measure(fixtures_dir / "parry_golden.measure")
        prob = md.rd_problem_from_measure(measure, 2, M=2)
        pt = md.blahut_arimoto(prob, 8.0)
        assert pt.rate == pytest.approx(0.6151819001716224, rel=1e-12, abs=0)
        assert pt.distortion == pytest.approx(0.5026095208094385, rel=1e-12, abs=0)
        assert pt.iterations == 8504


GOLDEN_SLOPES = (0.5, 1, 2, 4, 8, 16)


@functools.cache
def golden_textbook(beta, renormalise=False):
    """``textbook_ba`` on the golden window problem's dense arrays at the
    benchmark slope ``beta``, run once per session."""
    measure = md.parse_measure(FIXTURES / "parry_golden.measure")
    p, rho, *_ = md.rd_problem_from_measure(measure, 2, M=2).reduced
    return textbook_ba(p, rho, beta, 1e-9, 20000, renormalise)[0]


def underflow_problems():
    """Twelve random problems, as (p, rho, beta), on most of which some
    reproduction mass sinks below the smallest normal double."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        p = rng.random(30)
        p /= p.sum()
        rho = rng.uniform(0.0, 3.0, (30, 60))
        yield p, rho, float(rng.uniform(8.0, 40.0))


class TestKernelBits:
    def test_golden_window_matches_textbook_loop_at_benchmark_slopes(self, fixtures_dir):
        measure = md.parse_measure(fixtures_dir / "parry_golden.measure")
        p, rho, *_ = md.rd_problem_from_measure(measure, 2, M=2).reduced
        for beta in GOLDEN_SLOPES:
            want = golden_textbook(beta)
            # identity labels: the dense arithmetic, bit for bit
            assert kernels.ba_solve(p, rho, beta, 1e-9, 20000) == want
            if beta == 0.5:
                assert want[2] == 20000 and not want[4] and f"{want[3]:.3e}" == "3.669e-09"

    def test_golden_window_iterations_pinned(self):
        counts = [golden_textbook(beta)[2] for beta in GOLDEN_SLOPES]
        assert counts == [20000, 11574, 6298, 3513, 8504, 1977]

    def test_matches_the_renormalised_loop(self, fixtures_dir):
        # the loop that divided q by its sum at every iteration: the same
        # iterates up to rounding
        measure = md.parse_measure(fixtures_dir / "parry_golden.measure")
        p, rho, *_ = md.rd_problem_from_measure(measure, 2, M=2).reduced
        runs = [((p, rho, beta), golden_textbook(beta, True)) for beta in GOLDEN_SLOPES]
        runs += [(args, textbook_ba(*args, 1e-9, 20000, True)[0])
                 for args in underflow_problems()]
        got = [kernels.ba_solve(*args, 1e-9, 20000) for args, _ in runs]
        for new, (_, want) in zip(got, runs):
            assert new[2:5:2] == want[2:5:2]  # iterations and converged
            for k in (0, 1, 3):  # rate, distortion and gap
                assert new[k] == pytest.approx(want[k], abs=1e-12)
        assert f"{got[0][3]:.3e}" == f"{runs[0][1][3]:.3e}" == "3.669e-09"  # slope 0.5

    def test_hamming_sweep_matches_single_slope_runs(self):
        p0 = float(np.random.default_rng(11).uniform(0.2, 0.45))
        p, rho, *classes = md.binary_hamming_problem(p0).reduced
        slopes = [0.2 + i * (8.0 - 0.2) / 399 for i in range(400)]
        got = kernels.ba_sweep(p, rho, slopes, 1e-9, 20000, classes)
        assert got == [kernels.ba_solve(p, rho, s, 1e-9, 20000, classes) for s in slopes]

    @pytest.mark.parametrize("tol", [1e-300, 1e-15, 1e-12, 1e-9, 1e-3, 0.5, 1.0, 3.7, 1023.5, 1e6])
    def test_stops_where_the_textbook_gap_test_stops(self, tol, monkeypatch):
        # once per block, the loop tests the same np.log2(max c) < tol that
        # the textbook loop tests on every iteration, alone and stacked, from
        # a tol no gap reaches to one the first gap passes
        p, rho, *_ = planted_problem(4)[0].reduced
        slopes = [0.5, 2.0, 7.0]
        want = [textbook_ba(p, rho, s, tol, 200)[0] for s in slopes]
        assert [kernels.ba_solve(p, rho, s, tol, 200) for s in slopes] == want
        monkeypatch.setattr(kernels, "LONE_SLOPES", 1)
        assert kernels.ba_sweep(p, rho, slopes, tol, 200) == want
        if tol >= 1.0:
            assert {run[2] for run in want} == {1}


class TestProcessLevelProblem:
    def test_window_problem_shapes(self, bern_half):
        prob = md.rd_problem_from_measure(bern_half, 2.0, 2)
        n = 2 ** 9
        assert len(prob.source.outcomes) == n
        d = prob.distortion_array()
        assert d.shape == (n, n)
        # truncated self-distortion: agreement on the window reads alpha^-M
        assert np.allclose(np.diag(d), 2.0 ** -2)
        assert d.max() == 1.0  # somewhere two patterns disagree at the origin

    def test_distortion_is_a_read_only_array(self, bern_half):
        prob = md.rd_problem_from_measure(bern_half, 2.0, 1)
        d = prob.distortion_array()
        assert d is prob.distortion and d.dtype == np.float64
        with pytest.raises(ValueError):
            d[0, 0] = 5.0
        # equality compares values, and equal problems hash equal
        same = RdProblem.build(prob.source, prob.reproductions, d.tolist())
        assert same == prob and hash(same) == hash(prob) and len({same, prob}) == 1
        other = RdProblem.build(prob.source, prob.reproductions, d * 2)
        assert other != prob

    def test_window_problem_rate_bounds(self, bern_half):
        prob = md.rd_problem_from_measure(bern_half, 2.0, 1)
        pt = md.blahut_arimoto(prob, slope=12.0, tol=1e-10)
        assert 0.0 <= pt.rate <= 1.0 + 1e-9

    def test_window_problem_markov_source(self, parry):
        prob = md.rd_problem_from_measure(parry, 2.0, 1)
        # depth-1 window: the source is just the stationary symbol law
        probs = dict(zip((p.cells[0][1] for p in prob.source.outcomes),
                         prob.source.probs))
        assert abs(probs["0"] - parry.pi()[0]) < 1e-12
        pt = md.blahut_arimoto(prob, slope=8.0, tol=1e-10)
        assert 0.0 <= pt.rate <= 1.0



def planted_problem(seed, nx=12, distinct=7, ny=20, zero_rows=2):
    """A random problem whose ny reproduction columns repeat ``distinct``
    columns, with ``zero_rows`` source outcomes of probability 0."""
    rng = np.random.default_rng(seed)
    p = rng.random(nx)
    p[rng.choice(nx, zero_rows, replace=False)] = 0.0
    p /= p.sum()
    base = rng.uniform(0.0, 3.0, (nx, distinct))
    pick = np.concatenate([np.arange(distinct), rng.integers(0, distinct, ny - distinct)])
    rng.shuffle(pick)
    rho = base[:, pick]
    # columns that differ only on outcomes of probability 0 lump too
    rho[p == 0, :] = rng.uniform(0.0, 3.0, (zero_rows, ny))
    src = FiniteDistribution(tuple(range(nx)), tuple(p))
    return RdProblem.build(src, tuple(range(ny)), rho), p, rho, len(set(pick))


def relabel(keys):
    """Class labels of ``keys`` in first-occurrence order."""
    seen = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


def assert_matches_textbook(prob, p, rho, beta):
    """The reduced run of ``prob`` against ``textbook_ba`` on the full
    arrays ``p``, ``rho``, zero-probability rows included."""
    rp, rrho, *classes = prob.reduced
    for tol, max_iter in ((1e-14, 40), (1e-10, 20000)):
        want, _ = textbook_ba(p, rho, beta, tol, max_iter)
        got = kernels.ba_solve(rp, rrho, beta, tol, max_iter, classes)
        assert got[2:5:2] == want[2:5:2]  # iterations and converged
        for k in (0, 1, 3):  # rate, distortion and gap
            assert got[k] == pytest.approx(want[k], abs=1e-12)
    if not want[4]:
        with pytest.raises(NonConvergenceError, match=f"after {max_iter} iterations"):
            md.blahut_arimoto(prob, beta, tol=1e-10)
        return
    pt = md.blahut_arimoto(prob, beta, tol=1e-10)
    assert pt.iterations == want[2]
    assert pt.rate == pytest.approx(max(want[0], 0.0), abs=1e-12)
    assert pt.distortion == pytest.approx(want[1], abs=1e-12)


class TestLumping:
    """Equal distortion columns are lumped into one column class."""

    def test_lumped_run_matches_dense_textbook_loop(self):
        for seed in range(8):
            prob, p, rho, distinct = planted_problem(seed)
            rp, rrho, rows, cols = prob.reduced
            assert prob.reduced is prob.reduced  # computed once per problem
            assert all(not a.flags.writeable for a in prob.reduced)
            # zero-probability rows dropped, every column kept
            assert np.array_equal(rp, p[p > 0]) and np.array_equal(rrho, rho[p > 0])
            # distinct p: single rows, and one class per group of equal
            # columns, in first-occurrence order
            assert rows.tolist() == list(range(len(rp)))
            assert cols.tolist() == relabel(map(tuple, rrho.T)) and cols.max() + 1 == distinct
            beta = float(np.random.default_rng(seed).uniform(0.5, 6.0))
            for b in (0.5, beta, 12.0):
                assert_matches_textbook(prob, p, rho, b)

    def test_distinct_columns_run_the_dense_arrays(self):
        src = FiniteDistribution(("a", "b", "z"), (0.6, 0.4, 0.0))
        prob = RdProblem.build(src, ("a", "b"), [[0, 1], [1, 0], [7, 7]])
        p, rho, rows, cols = prob.reduced
        assert rho.tolist() == [[0, 1], [1, 0]] and p.tolist() == [0.6, 0.4]
        assert rows.tolist() == [0, 1] and cols.tolist() == [0, 1]
        # identity labels run the dense arithmetic, bit for bit
        for beta in (0.3, 2.0, 9.0):
            want, _ = textbook_ba(p, rho, beta, 1e-12, 500)
            assert kernels.ba_solve(p, rho, beta, 1e-12, 500, (rows, cols)) == want
            assert kernels.ba_solve(p, rho, beta, 1e-12, 500) == want

    def test_golden_window_lumps_to_one_column_per_centre_symbol(self, parry):
        prob = md.rd_problem_from_measure(parry, 2.0, 2)
        p, rho, rows, cols = prob.reduced
        assert rho.shape == (125, 512)
        # the 387 inadmissible patterns share one distortion column per
        # centre symbol, and each of the two groups is a column class
        groups = {}
        for j, col in enumerate(map(tuple, rho.T)):
            groups.setdefault(col, []).append(j)
        equal = sorted((g for g in groups.values() if len(g) > 1), key=len)
        assert [len(g) for g in equal] == [156, 231]
        for g in equal:
            assert np.flatnonzero(cols == cols[g[0]]).tolist() == g


def signed_zero_problem(seed, nx=9, distinct=5, ny=12):
    """Distinct p, one zero-probability row, and duplicate columns whose
    zeros are stored as 0.0 in one copy and as -0.0 in another."""
    rng = np.random.default_rng(seed)
    p = rng.random(nx)
    p[0] = 0.0
    p /= p.sum()
    base = rng.choice([0.0, 0.5, 1.0, 2.0], (nx, distinct))
    pick = np.concatenate([np.arange(distinct), rng.integers(0, distinct, ny - distinct)])
    rho = base[:, pick]
    for j in range(distinct, ny):
        rho[rho[:, j] == 0.0, j] = -0.0
    assert np.signbit(rho).any() and (rho == 0.0).any()
    src = FiniteDistribution(tuple(range(nx)), tuple(p))
    return RdProblem.build(src, tuple(range(ny)), rho), p, rho, len(set(pick.tolist()))


def coarser_than_lumped_problem():
    """Four rows of equal p; columns A, A, B, C, D, D, each with two 0s and
    two 1s, and every row sees three of each.  The dense partition is one
    class of each side, but lumping first (A and D of mass 2/6, B and C of
    1/6) would start B and C apart from A and D."""
    A, B, C, D = (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)
    rho = np.array([A, A, B, C, D, D], dtype=np.float64).T
    src = FiniteDistribution(tuple(range(4)), (0.25,) * 4)
    return RdProblem.build(src, tuple(range(6)), rho)


class TestPlantedDifferential:
    """The reduced run against ``textbook_ba`` on the full arrays: the same
    iterations and ``converged``, rate, distortion and gap within 1e-12
    (with ``TestLumping``, which plants zero rows and equal columns)."""

    def test_zeros_stored_as_either_sign(self):
        for seed in range(6):
            prob, p, rho, distinct = signed_zero_problem(seed)
            _, rrho, rows, cols = prob.reduced
            assert cols.tolist() == relabel(map(tuple, (rrho + 0.0).T))
            assert cols.max() + 1 == distinct
            for beta in (0.5, 3.0, 12.0):
                assert_matches_textbook(prob, p, rho, beta)

    def test_single_column_equitable_with_a_duplicated_one(self):
        prob = coarser_than_lumped_problem()
        p, rho, rows, cols = prob.reduced
        assert rows.tolist() == [0] * 4 and cols.tolist() == [0] * 6
        for beta in (0.5, 3.0, 12.0):
            assert_matches_textbook(prob, p, rho, beta)


class TestBatchedSweep:
    @pytest.fixture(autouse=True)
    def stacked(self, monkeypatch):
        # every stack of two or more slopes iterates stacked, not alone
        monkeypatch.setattr(kernels, "LONE_SLOPES", 1)

    def test_matches_single_slope_runs(self, monkeypatch):
        probs = [md.binary_hamming_problem(0.3), planted_problem(3)[0],
                 RdProblem.build(FiniteDistribution(("a", "b", "c"), (0.6, 0.3, 0.1)),
                                 ("a", "b", "c"), [[0, 2, 1], [1, 0, 3], [2, 1, 0]])]
        slopes = [4.0, 0.7, 2.5, 0.7, 9.0, 1.3, 4.0, 0.3]
        for prob in probs:
            want = [md.blahut_arimoto(prob, s, tol=1e-10) for s in slopes]
            assert md.rd_curve(prob, slopes, tol=1e-10) == want
            # chunks of three slopes give the same points
            _, rho, *classes = prob.reduced
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "BATCH_BYTES", 3 * kernels.slope_bytes(rho, classes))
                assert md.rd_curve(prob, slopes, tol=1e-10) == want
        assert md.rd_curve(probs[0], []) == []

    def test_first_failing_slope_in_schedule_order_is_raised(self, monkeypatch):
        prob = md.binary_hamming_problem(0.4)
        slopes = [3.0, 0.62, 5.0, 0.56, 1.5]
        fails = {}
        for s in slopes:
            try:
                md.blahut_arimoto(prob, s, max_iter=300)
            except NonConvergenceError as exc:
                fails[s] = exc
        assert list(fails) == [0.62, 0.56]
        _, rho, *classes = prob.reduced
        for chunk_slopes in (len(slopes), 1):
            monkeypatch.setattr(kernels, "BATCH_BYTES",
                                chunk_slopes * kernels.slope_bytes(rho, classes))
            with pytest.raises(NonConvergenceError) as ei:
                md.rd_curve(prob, slopes, max_iter=300)
            assert str(ei.value) == str(fails[0.62]) and ei.value.gap == fails[0.62].gap

    def test_gap_of_a_slope_moved_on_the_last_iteration(self):
        # slope 3 converges on the last allowed iteration and leaves the
        # stack; the failing slope behind it keeps its own gap
        prob = md.binary_hamming_problem(0.4)
        n = md.blahut_arimoto(prob, 3.0).iterations
        with pytest.raises(NonConvergenceError) as single:
            md.blahut_arimoto(prob, 0.62, max_iter=n)
        with pytest.raises(NonConvergenceError) as sweep:
            md.rd_curve(prob, [3.0, 0.62], max_iter=n)
        assert sweep.value.gap == single.value.gap
        assert str(sweep.value) == str(single.value)

    def test_later_chunks_are_not_run_after_a_failure(self, monkeypatch):
        prob = md.binary_hamming_problem(0.4)
        monkeypatch.setattr(kernels, "BATCH_BYTES", 8 * 4)
        seen = []
        sweep = kernels.ba_sweep

        def spy(p, rho, betas, *rest):
            seen.extend(betas)
            return sweep(p, rho, betas, *rest)

        monkeypatch.setattr(kernels, "ba_sweep", spy)
        with pytest.raises(NonConvergenceError, match="slope 0.62"):
            md.rd_curve(prob, [3.0, 0.62, 5.0], max_iter=300)
        assert seen == [3.0, 0.62]


class TestLoneSlopes:
    def test_stack_shrinks_into_lone_slopes(self, monkeypatch):
        # the fast slopes stop within 84 iterations; the three slow ones then
        # run alone from the end of that block, two of them to max_iter
        prob = md.binary_hamming_problem(0.4)
        p, rho, *classes = prob.reduced
        slow = [0.62, 1.0, 0.7]
        slopes = [3.0, 0.62, 2.0, 1.0, 4.0, 5.0, 0.7, 6.0, 2.5, 8.0, 1.5, 3.5, 7.0, 9.0, 10.0]
        assert len(slow) <= kernels.LONE_SLOPES < len(slopes)
        starts = []
        run_alone = kernels._run_alone

        def spy(K, Z, ps, ring, cs, it, *rest):
            starts.append(it)
            return run_alone(K, Z, ps, ring, cs, it, *rest)

        monkeypatch.setattr(kernels, "_run_alone", spy)
        runs = kernels.ba_sweep(p, rho, slopes, 1e-9, 300, classes)
        assert len(starts) == len(slow) and len(set(starts)) == 1
        assert 0 < starts[0] < 300 and starts[0] % kernels.FLUSH_EVERY == 0
        assert runs == [kernels.ba_solve(p, rho, s, 1e-9, 300, classes) for s in slopes]
        ends = {s: run[2:5:2] for s, run in zip(slopes, runs) if s in slow}
        assert ends[0.62] == ends[0.7] == (300, False)
        assert starts[0] < ends[1.0][0] < 300 and ends[1.0][1]
        with pytest.raises(NonConvergenceError) as single:
            md.blahut_arimoto(prob, 0.62, max_iter=300)
        with pytest.raises(NonConvergenceError) as sweep:
            md.rd_curve(prob, slopes, max_iter=300)
        assert str(sweep.value) == str(single.value) and sweep.value.gap == single.value.gap


@pytest.fixture
def stacks(monkeypatch):
    """Every array that ``kernels`` makes by ``np.empty`` from here on, in order."""
    made = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            made.append(np.empty(*args, **kwargs))
            return made[-1]

    monkeypatch.setattr(kernels, "np", Numpy())
    return made


class TestSlopeBytes:
    def test_counts_every_stacked_array_of_a_sweep(self, stacks, fixtures_dir):
        # the float arrays ba_sweep holds per slope are each a stack of one
        # or FLUSH_EVERY slices per slope; slope_bytes is the sum of their
        # per-slope bytes on every problem shape
        rng = np.random.default_rng(7)
        measure = md.parse_measure(fixtures_dir / "parry_golden.measure")
        p, rho, rows, cols = md.rd_problem_from_measure(measure, 2, M=2).reduced
        assert (rows.max() + 1, cols.max() + 1) == (48, 50)
        problems = [(np.ones(1), np.zeros((1, 1)), None),
                    (np.array([0.3, 0.7]), np.array([[0.0, 1.0], [1.0, 0.0]]), None),
                    (rng.dirichlet(np.ones(3)), rng.random((3, 5)), None),
                    (p, rho, (rows, cols)),
                    (rng.dirichlet(np.ones(125)), rng.random((125, 512)), None)]
        betas = [0.5, 1.0, 2.0, 4.0, 8.0]
        assert len(betas) > kernels.LONE_SLOPES
        for p, rho, classes in problems:
            stacks.clear()
            kernels.ba_sweep(p, rho, betas, 1e-9, 64, classes)
            # K, both rings, Z and Q; the iteration counts, gaps and flags are 1-D
            held = [a for a in stacks if a.ndim > 1]
            n, F = len(betas), kernels.FLUSH_EVERY
            mx, my = rho.shape if classes is None else (c.max() + 1 for c in classes)
            assert sorted(a.shape for a in held) == sorted(
                [(n, mx, my), (F, n, my), (F, n, my), (n, mx), (n, my)])
            assert {a.dtype for a in held} == {np.dtype(np.float64)}
            assert sum(a.nbytes for a in held) == n * kernels.slope_bytes(rho, classes)
        # a binary slope: K, Z and Q, 4 + 2 + 2 doubles, and 64 ring slots of 2
        assert kernels.slope_bytes(np.zeros((2, 2))) == 8 * (8 + 4 * kernels.FLUSH_EVERY) == 1088


class TestSliceOffsets:
    def test_stacked_slopes_match_lone_runs_at_every_offset(self, stacks):
        # a stacked slope's kernel slice starts wherever np.empty puts the
        # stack: an odd number of doubles per slice puts eight consecutive
        # slices at all eight offsets mod 64 that a double can take, and at
        # each a slope follows its lone run bit for bit
        rng = np.random.default_rng(5)
        slopes = [0.3 * 1.5 ** k for k in range(10)]
        assert len(slopes) > kernels.LONE_SLOPES + 4
        for shape in ((1, 1), (1, 3), (3, 5), (5, 7)):
            p, rho = rng.dirichlet(np.ones(shape[0])), rng.uniform(0.0, 3.0, shape)
            stacks.clear()
            runs = kernels.ba_sweep(p, rho, slopes, 1e-9, 3000)
            K = stacks[0]
            assert K.shape == (len(slopes), *shape)
            assert {K[k].ctypes.data % 64 for k in range(len(slopes))} == set(range(0, 64, 8))
            assert runs == [kernels.ba_solve(p, rho, s, 1e-9, 3000) for s in slopes]


def ba_point(P, rho, beta, cols, width, Q):
    """The lone reading of one point that ``kernels.ba_sweep`` once made per
    slope, kept as the oracle for ``kernels._ba_points``: (rate, distortion)."""
    K = np.exp2(-beta * rho)
    q = (Q / width)[cols]
    Z = K @ q
    cond = K * q[None, :] / Z[:, None]
    qbar = (np.bincount(cols, P @ cond) / width)[cols]
    ratio = np.divide(cond, qbar[None, :], out=np.ones_like(cond),
                      where=(cond > 0) & (qbar[None, :] > 0))
    rate = float(np.sum(P[:, None] * cond * np.log2(ratio, out=ratio)))
    dist = float(np.sum(P[:, None] * cond * rho))
    return rate, dist


def class_reading(p, rho, classes):
    """What ``kernels.ba_sweep`` reads its points from: the row class
    masses, one row of rho per row class, the column labels and the
    column class sizes."""
    rows, cols = classes
    order, first, _ = kernels._runs(rows)
    return np.add.reduceat(p[order], first), rho[order[first]], cols, kernels._runs(cols)[2]


class TestPointReading:
    def test_stacked_reading_has_the_lone_bits(self, fixtures_dir):
        measure = md.parse_measure(fixtures_dir / "parry_golden.measure")
        problems = [(md.rd_problem_from_measure(measure, 2, M=2), GOLDEN_SLOPES)]
        problems += [(planted_problem(seed)[0], (0.5, 2.0, 3.3, 12.0)) for seed in range(6)]
        problems += [(md.binary_hamming_problem(p0), (0.3, 1.0, 4.0, 9.0))
                     for p0 in (0.1, 0.3, 0.45)]
        rng = np.random.default_rng(7)
        for prob, slopes in problems:
            p, rho, *classes = prob.reduced
            P, lead, cols, width = class_reading(p, rho, classes)
            # class marginals summing to 1, some of them without mass
            Q = rng.dirichlet(np.ones(len(width)), len(slopes))
            empty = rng.random(Q.shape) < 0.2
            empty[:, 0] = False
            Q[empty] = 0.0
            got = kernels._ba_points(P, lead, np.array(slopes, dtype=float), cols, width, Q)
            assert got == [ba_point(P, lead, float(s), cols, width, Q[k])
                           for k, s in enumerate(slopes)]

    def test_reading_is_split_by_batch_bytes(self, fixtures_dir, monkeypatch):
        measure = md.parse_measure(fixtures_dir / "parry_golden.measure")
        p, rho, *classes = md.rd_problem_from_measure(measure, 2, M=2).reduced
        slopes = [16.0 + k / 4 for k in range(11)]
        want = [kernels.ba_solve(p, rho, s, 1e-9, 20000, classes) for s in slopes]
        # a reading of three slopes fits, at 32 bytes per slope and entry of
        # the rows it reads
        lead = class_reading(p, rho, classes)[1]
        monkeypatch.setattr(kernels, "BATCH_BYTES", 3 * 32 * lead.size + 100)
        seen = []
        read = kernels._ba_points

        def spy(P, rho, betas, *rest):
            seen.append(len(betas))
            return read(P, rho, betas, *rest)

        monkeypatch.setattr(kernels, "_ba_points", spy)
        assert kernels.ba_sweep(p, rho, slopes, 1e-9, 20000, classes) == want
        assert seen == [3, 3, 3, 2]


def symmetric_problem(seed, row_cycles=(3, 3, 3, 2, 2, 1), col_cycles=(3, 3, 3, 2, 2, 1)):
    """A random problem with a planted symmetry: a row permutation sigma and
    a column permutation tau, each a product of cycles of the given
    lengths, with rho(sigma x, tau y) = rho(x, y) and p constant on the
    cycles of sigma.  Values repeat, and a zero is stored as 0.0 or -0.0
    at random.  Returns the problem and sigma."""
    rng = np.random.default_rng(seed)

    def perm(lengths):
        order = rng.permutation(sum(lengths)).tolist()
        out, at = [0] * len(order), 0
        for k in lengths:
            cycle = order[at:at + k]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                out[a] = b
            at += k
        return out

    sigma, tau = perm(row_cycles), perm(col_cycles)
    nx, ny = len(sigma), len(tau)
    rho = np.full((nx, ny), np.nan)
    p = np.full(nx, np.nan)
    for x0 in range(nx):
        w, x = rng.uniform(0.5, 2.0), x0
        while np.isnan(p[x]):  # the cycle of x0
            p[x] = w
            x = sigma[x]
        for y0 in range(ny):
            v, x, y = rng.choice([0.0, 0.5, 1.0, 2.5]), x0, y0
            while np.isnan(rho[x, y]):  # the orbit of (x0, y0)
                rho[x, y] = v if v else rng.choice([0.0, -0.0])
                x, y = sigma[x], tau[y]
    p /= p.sum()
    src = FiniteDistribution(tuple(range(nx)), tuple(p))
    return RdProblem.build(src, tuple(range(ny)), rho), sigma


def naive_classes(p, rho):
    """The coarsest equitable partition by colour refinement over tuples,
    from rows in classes of equal p and the columns in one class."""
    vals = rho.tolist()

    def signature(label, sees, other):
        # for each class of `other`, the sorted values seen there
        return label, tuple(tuple(sorted(v for v, c in zip(sees, other) if c == k))
                            for k in range(max(other) + 1))

    rows, cols = relabel(p.tolist()), [0] * len(vals[0])
    while True:
        new_rows = relabel(signature(rows[x], vals[x], cols) for x in range(len(rows)))
        new_cols = relabel(signature(cols[y], [row[y] for row in vals], new_rows)
                           for y in range(len(cols)))
        if (max(new_rows), max(new_cols)) == (max(rows), max(cols)):
            return new_rows, new_cols
        rows, cols = new_rows, new_cols


def assert_equitable(p, rho, rows, cols):
    """Counted per class pair and per distortion value: every row of a
    class sees each value equally often in each column class, and every
    column of a class equally often in each row class."""
    rho = rho + 0.0
    for R in range(rows.max() + 1):
        xs = np.flatnonzero(rows == R)
        assert len(set(p[xs].tolist())) == 1
        for C in range(cols.max() + 1):
            ys = np.flatnonzero(cols == C)
            block = rho[np.ix_(xs, ys)]
            for v in np.unique(block):
                assert len(set((block == v).sum(axis=1).tolist())) == 1
                assert len(set((block == v).sum(axis=0).tolist())) == 1


def assert_quotient_matches_dense(got, want):
    # a new, stated tolerance: the class problem sums in another order
    assert got[2:5:2] == want[2:5:2]  # iterations and converged
    for k in (0, 1, 3):  # rate, distortion and gap
        assert got[k] == pytest.approx(want[k], abs=1e-12)


class TestSymmetryQuotient:
    def test_planted_symmetry_classes_are_the_coarsest_equitable_ones(self):
        for seed in range(8):
            prob, sigma = symmetric_problem(seed)
            p, rho, rows, cols = prob.reduced
            assert_equitable(p, rho, rows, cols)
            # every cycle of the planted symmetry lies inside one row class
            assert all(rows[x] == rows[sigma[x]] for x in range(len(sigma)))
            assert (rows.tolist(), cols.tolist()) == naive_classes(p, rho)
            assert rows.max() + 1 < len(p)
        # rows one ulp apart in one entry split; rows apart only in the sign
        # of a zero do not
        src = FiniteDistribution(tuple(range(3)), (0.25, 0.25, 0.5))
        for second, same in ((np.nextafter(1.0, 2.0), False), (1.0, True)):
            rho = np.array([[0.0, 1.0], [-0.0 if same else 0.0, second], [0.0, 3.0]])
            p, rho, rows, cols = RdProblem.build(src, (0, 1), rho).reduced
            assert (rows.tolist(), cols.tolist()) == naive_classes(p, rho)
            assert (rows[0] == rows[1]) == same

    def test_planted_symmetry_run_matches_the_dense_run(self):
        for seed in range(8):
            prob, _ = symmetric_problem(seed)
            p, rho, *classes = prob.reduced
            for beta in (0.4, 3.0, 11.0):
                for tol, max_iter in ((1e-14, 40), (1e-10, 20000)):
                    want = kernels.ba_solve(p, rho, beta, tol, max_iter)
                    got = kernels.ba_solve(p, rho, beta, tol, max_iter, classes)
                    assert_quotient_matches_dense(got, want)
            pt = md.blahut_arimoto(prob, 3.0, tol=1e-10)
            want = kernels.ba_solve(p, rho, 3.0, 1e-10, 20000)
            assert pt.iterations == want[2]
            assert pt.rate == pytest.approx(max(want[0], 0.0), abs=1e-12)
            assert pt.distortion == pytest.approx(want[1], abs=1e-12)

    def test_distinct_probabilities_give_identity_labels(self):
        # the Hamming problems and a random dense one run the dense
        # arithmetic bit for bit
        rng = np.random.default_rng(5)
        src = FiniteDistribution(tuple(range(30)), tuple(rng.dirichlet(np.ones(30))))
        dense = RdProblem.build(src, tuple(range(40)), rng.uniform(0.0, 3.0, (30, 40)))
        for prob in (md.binary_hamming_problem(0.3), dense):
            p, rho, rows, cols = prob.reduced
            assert rows.tolist() == list(range(len(p)))
            assert cols.tolist() == list(range(rho.shape[1]))
            for beta in (0.7, 4.0):
                pt = md.blahut_arimoto(prob, beta, tol=1e-10)
                want, _ = textbook_ba(p, rho, beta, 1e-10, 20000)
                assert (pt.rate, pt.distortion, pt.iterations) == \
                    (max(want[0], 0.0), want[1], want[2])

    def test_golden_window_quotient(self, fixtures_dir):
        measure = md.parse_measure(fixtures_dir / "parry_golden.measure")
        prob = md.rd_problem_from_measure(measure, 2, M=2)
        p, rho, rows, cols = prob.reduced
        assert (rows.max() + 1, cols.max() + 1) == (48, 50)
        assert_equitable(p, rho, rows, cols)
        for beta in GOLDEN_SLOPES:
            got = kernels.ba_solve(p, rho, beta, 1e-9, 20000, (rows, cols))
            assert_quotient_matches_dense(got, golden_textbook(beta))
            if beta == 0.5:
                assert got[2] == 20000 and not got[4] and f"{got[3]:.3e}" == "3.669e-09"

    @pytest.mark.parametrize("kind", ["parry", "bernoulli", "markov"])
    def test_l2_window_problems_match_the_dense_run(self, parry, kind):
        # window problems whose classes are neither trivial nor one class:
        # the distortion alpha^-(Euclidean norm) on the radius-1 disc
        binary = md.alphabet("0", "1")
        measure = {"parry": parry,
                   "bernoulli": md.MeasureSpec.bernoulli(binary, (0.3, 0.7)),
                   "markov": md.MeasureSpec.markov_row(binary, [[0.9, 0.1], [0.4, 0.6]])}[kind]
        source = md.window_marginal(measure, disc(1))
        prob = RdProblem.build(source, source.outcomes,
                               loop_distortion(measure, 2, disc(1), euclidean))
        p, rho, rows, cols = prob.reduced
        assert 1 < rows.max() + 1 < len(p) and 1 < cols.max() + 1 < rho.shape[1]
        assert_equitable(p, rho, rows, cols)
        assert (rows.tolist(), cols.tolist()) == naive_classes(p, rho)
        for beta in (0.5, 2.0, 8.0):
            assert_quotient_matches_dense(
                kernels.ba_solve(p, rho, beta, 1e-9, 20000, (rows, cols)),
                kernels.ba_solve(p, rho, beta, 1e-9, 20000))

    def test_bernoulli_window_is_one_class(self, bern_half):
        prob = md.rd_problem_from_measure(bern_half, 2, M=2)
        p, rho, rows, cols = prob.reduced
        assert rows.tolist() == [0] * 512 and cols.tolist() == [0] * 512
        for beta in (0.5, 16):
            got = kernels.ba_solve(p, rho, beta, 1e-9, 20000, (rows, cols))
            assert got[2] == 1 and got[4]
            want = kernels.ba_solve(p, rho, beta, 1e-9, 20000)
            assert got[:2] == pytest.approx(want[:2], abs=1e-12)

    def test_sweep_matches_single_slope_runs(self):
        prob, _ = symmetric_problem(5)
        slopes = [4.0, 0.7, 2.5, 9.0, 0.3]
        want = [md.blahut_arimoto(prob, s, tol=1e-10) for s in slopes]
        assert md.rd_curve(prob, slopes, tol=1e-10) == want
        p, rho, *classes = prob.reduced
        for max_iter in (37, 20000):
            assert kernels.ba_sweep(p, rho, slopes, 1e-12, max_iter, classes) == \
                [kernels.ba_solve(p, rho, s, 1e-12, max_iter, classes) for s in slopes]


def old_split(labels, sig):
    """``ratedistortion._split`` as it was when it hashed every row, kept
    as an oracle for its labels."""
    classes = {}
    return np.array([classes.setdefault((label, row.tobytes()), len(classes))
                     for label, row in zip(labels.tolist(), sig)], dtype=np.intp)


class TestSplit:
    """Rows equal to their class's first row are not hashed, and the labels
    are those of hashing every row."""

    def test_quotients_match_hashing_every_row(self, fixtures_dir, monkeypatch):
        probs = [md.rd_problem_from_measure(md.parse_measure(fixtures_dir / f"{name}.measure"),
                                            2, M=2)
                 for name in ("bern12", "parry_golden")]
        probs.append(md.binary_hamming_problem(0.3))
        probs += [symmetric_problem(seed)[0] for seed in range(6)]
        probs += [signed_zero_problem(seed)[0] for seed in range(4)]
        probs += [planted_problem(seed)[0] for seed in range(4)]
        for prob in probs:
            got = prob.reduced
            with monkeypatch.context() as patch:
                patch.setattr(md.ratedistortion, "_split", old_split)
                want = RdProblem.build(prob.source, prob.reproductions,
                                       prob.distortion).reduced
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_labels_with_ties_and_signed_zeros(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n, m = rng.integers(1, 40), rng.integers(1, 5)
            labels = np.array(relabel(rng.integers(0, 4, n).tolist()), dtype=np.intp)
            sig = rng.choice([0.0, -0.0, 1.0, 2.5], (n, m))
            got = md.ratedistortion._split(labels, sig)
            assert got.dtype == np.intp
            assert got.tolist() == old_split(labels, sig).tolist()


class TestBlockStop:
    @staticmethod
    def gaps(p, rho, beta, n):
        """The textbook gap after each of the first n iterations."""
        return [textbook_ba(p, rho, beta, -np.inf, k)[0][3] for k in range(1, n + 1)]

    def test_stops_at_block_edges_as_the_textbook_loop(self, monkeypatch):
        # every stack of two or more slopes iterates stacked, not alone
        monkeypatch.setattr(kernels, "LONE_SLOPES", 1)
        prob = planted_problem(0)[0]
        p, rho, *_ = prob.reduced
        beta = 2.0
        F = kernels.FLUSH_EVERY
        gaps = self.gaps(p, rho, beta, F + 1)
        tols = {1: 10.0}
        for stop in (F - 1, F, F + 1):
            # a tol above the gap after iteration `stop`, below every earlier one
            assert gaps[stop - 1] < min(gaps[:stop - 1])
            tols[stop] = (gaps[stop - 1] + min(gaps[:stop - 1])) / 2
        for stop, tol in tols.items():
            want, _ = textbook_ba(p, rho, beta, tol, 20000)
            assert want[2] == stop and want[4]
            assert kernels.ba_solve(p, rho, beta, tol, 20000) == want
            # a slope of a stack stops where it stops alone
            runs = kernels.ba_sweep(p, rho, [0.3, beta, 7.0], tol, 20000)
            assert runs == [kernels.ba_solve(p, rho, s, tol, 20000) for s in (0.3, beta, 7.0)]
            assert runs[1] == want

    def test_max_iter_not_a_multiple_of_the_block(self, monkeypatch):
        monkeypatch.setattr(kernels, "LONE_SLOPES", 1)
        prob = planted_problem(2)[0]
        p, rho, *_ = prob.reduced
        F = kernels.FLUSH_EVERY
        for max_iter in (1, 5, F - 1, F, F + 1, 2 * F + 5, 6 * F + 4):
            want, _ = textbook_ba(p, rho, 1.5, 1e-15, max_iter)
            assert want[2] == max_iter and not want[4]
            assert kernels.ba_solve(p, rho, 1.5, 1e-15, max_iter) == want
            runs = kernels.ba_sweep(p, rho, [1.5, 6.0], 1e-15, max_iter)
            assert runs[0] == want
            assert runs[1] == kernels.ba_solve(p, rho, 6.0, 1e-15, max_iter)

class TestInputGuards:
    @pytest.mark.parametrize("kwargs", [
        {"slope": float("nan")}, {"slope": float("inf")}, {"slope": 0.0},
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0},
        {"max_iter": 0}, {"max_iter": -3},
    ])
    def test_ba_arguments_rejected_before_any_work(self, kwargs, monkeypatch):
        def never(*args, **kw):
            raise AssertionError("Blahut-Arimoto ran")

        monkeypatch.setattr(kernels, "ba_sweep", never)
        prob = md.binary_hamming_problem(0.3)
        args = {"slope": 2.0, "tol": 1e-9, "max_iter": 100, **kwargs}
        with pytest.raises(ValueError):
            md.blahut_arimoto(prob, **args)
        # rd_curve checks the whole schedule first, the bad slope last
        with pytest.raises(ValueError):
            md.rd_curve(prob, [1.0, 2.0, args["slope"]], tol=args["tol"],
                        max_iter=args["max_iter"])

    def test_window_problem_arguments(self, bern_half):
        with pytest.raises(ValueError, match="M must be at least 1"):
            md.rd_problem_from_measure(bern_half, 2.0, 0)
        for alpha in (float("inf"), float("nan"), 1.0):
            with pytest.raises(ValueError, match="alpha"):
                md.rd_problem_from_measure(bern_half, alpha, 2)


def sup_norm(u):
    return float(max(abs(u[0]), abs(u[1])))


def euclidean(u):
    return math.sqrt(u[0] * u[0] + u[1] * u[1])


def loop_distortion(measure, alpha, window, norm_of):
    """The distortion of the patterns on a window about the origin,
    alpha^-(smallest norm_of of a disagreement site), as a loop of masked
    row reductions."""
    pats = md.window_marginal(measure, window).outcomes
    pts = window.points
    norms = np.array([norm_of(u) for u in pts])
    # agreeing patterns get alpha^-(smallest norm outside the window),
    # searched over a square around it
    r = window.bounding_box().b + 2
    agree = min(norm_of(u) for u in itertools.product(range(-r, r + 1), repeat=2)
                if u not in window)
    arrays = np.array([[measure.alphabet.index(pat[pt]) for pt in pts] for pat in pats])
    dist = np.empty((len(pats), len(pats)))
    for i in range(len(pats)):
        masked = np.where(arrays != arrays[i], norms[None, :], np.inf)
        expo = masked.min(axis=1)
        dist[i] = alpha ** (-np.where(np.isinf(expo), agree, expo))
    return dist


@pytest.mark.parametrize("name", ["bern12", "parry_golden"])
@pytest.mark.parametrize("M", [1, 2])
def test_distortion_build_matches_row_loop(fixtures_dir, name, M):
    measure = md.parse_measure(fixtures_dir / f"{name}.measure")
    for alpha in (2, 1.7):
        got = md.rd_problem_from_measure(measure, alpha, M).distortion_array()
        want = loop_distortion(measure, alpha, md.norm_ball(M - 1), sup_norm)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


@pytest.mark.parametrize("name", ["bern12", "parry_golden"])
def test_window_problem_agrees_with_metric_eval(fixtures_dir, name):
    # each entry, on every 37th source pattern, is metric_eval's value on
    # its pair of patterns
    measure = md.parse_measure(fixtures_dir / f"{name}.measure")
    spec = md.MetricSpec(2.0)
    prob = md.rd_problem_from_measure(measure, 2.0, 2)
    dist = prob.distortion_array()
    pats = prob.source.outcomes
    for i in range(0, len(pats), 37):
        for j, q in enumerate(prob.reproductions):
            want = md.metric_eval(spec, pats[i], q).value
            assert abs(dist[i, j] - want) <= 1e-15 * want, (i, j)
