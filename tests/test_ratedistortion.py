import itertools
import math

import numpy as np
import pytest

import meandim as md
from meandim import FiniteDistribution, RdProblem, kernels
from meandim.errors import NonConvergenceError


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
        assert abs(pt.rate - md.shannon_entropy(src)) < 1e-6
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
        prob = RdProblem.build(src, ("a", "b"), [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            md.blahut_arimoto(prob, slope=-1.0)


def textbook_ba(p, rho, beta, tol, max_iter, q0=None):
    """Blahut-Arimoto as written before the subnormal flush; also returns q."""
    K = np.exp2(-beta * rho)
    q = np.full(rho.shape[1], 1.0 / rho.shape[1]) if q0 is None else np.array(q0)
    gap, it, converged = np.inf, 0, False
    while it < max_iter and not converged:
        it += 1
        Z = K @ q
        c = (p / Z) @ K
        gap = float(np.log2(np.max(c)))
        q = q * c
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
        for seed in range(12):
            rng = np.random.default_rng(seed)
            p = rng.random(30)
            p /= p.sum()
            rho = rng.uniform(0.0, 3.0, (30, 60))
            beta = float(rng.uniform(8.0, 40.0))
            want, q = textbook_ba(p, rho, beta, 1e-9, 20000)
            assert kernels.ba_solve(p, rho, beta, 1e-9, 20000) == want
            flushed += bool(((q > 0) & (q < tiny)).any())
        # the reference ends with subnormal reproduction mass on most seeds
        assert flushed >= 6

    def test_kernel_buffer_is_cache_line_aligned(self):
        for n in (1, 3):
            for shape in ((1,), (1, 1), (3, 5), (125, 127), (125, 512)):
                K = kernels._aligned_stack(n, shape)
                assert K.shape == (n, *shape) and K.dtype == np.float64
                for k in range(n):
                    assert K[k].ctypes.data % 64 == 0 and K[k].flags.c_contiguous
                    assert K[k].flags.writeable

    def test_golden_window_point_pinned(self, fixtures_dir):
        measure = md.parse_measure(fixtures_dir / "parry_golden.measure")
        prob = md.rd_problem_from_measure(measure, 2, M=2)
        pt = md.blahut_arimoto(prob, 8.0)
        assert pt.rate == pytest.approx(0.6151819001716224, rel=1e-12, abs=0)
        assert pt.distortion == pytest.approx(0.5026095208094385, rel=1e-12, abs=0)
        assert pt.iterations == 8504


class TestKernelBits:
    def test_golden_window_matches_textbook_loop_at_benchmark_slopes(self, parry):
        p, rho, q0 = md.rd_problem_from_measure(parry, 2, M=2).lumped
        for beta in (0.5, 1, 2, 4, 8, 16):
            want, _ = textbook_ba(p, rho, beta, 1e-9, 20000, q0)
            assert kernels.ba_solve(p, rho, beta, 1e-9, 20000, q0) == want
            if beta == 0.5:
                assert want[2] == 20000 and not want[4] and f"{want[3]:.3e}" == "3.669e-09"

    def test_hamming_sweep_matches_single_slope_runs(self):
        p0 = float(np.random.default_rng(11).uniform(0.2, 0.45))
        p, rho, q0 = md.binary_hamming_problem(p0).lumped
        slopes = [0.2 + i * (8.0 - 0.2) / 399 for i in range(400)]
        got = kernels.ba_sweep(p, rho, slopes, 1e-9, 20000, q0)
        assert got == [kernels.ba_solve(p, rho, s, 1e-9, 20000, q0) for s in slopes]

    @pytest.mark.parametrize("tol", [1e-300, 1e-15, 1e-12, 1e-9, 1e-3, 0.5, 1.0, 3.7, 1023.5, 1e6])
    def test_stop_threshold_is_the_last_double_under_tol(self, tol):
        m = kernels._stop_threshold(tol)
        with np.errstate(over="ignore"):  # above the largest double is inf
            below, above = np.nextafter(m, 0.0), np.nextafter(m, np.inf)
        assert np.log2(below) < tol and np.log2(m) < tol
        assert not np.log2(above) < tol


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


class TestLumping:
    def test_lumped_run_matches_dense_textbook_loop(self):
        for seed in range(8):
            prob, p, rho, distinct = planted_problem(seed)
            lp, lrho, q0 = prob.lumped
            assert lrho.shape == (int((p > 0).sum()), distinct)
            # one column per group, in first-occurrence order
            firsts = {}
            for j, col in enumerate(map(tuple, rho[p > 0].T)):
                firsts.setdefault(col, j)
            assert np.array_equal(lrho, rho[p > 0][:, sorted(firsts.values())])
            assert q0.sum() == pytest.approx(1.0, abs=1e-15)
            beta = float(np.random.default_rng(seed).uniform(0.5, 6.0))
            for tol, max_iter in ((1e-14, 40), (1e-10, 20000)):
                want, _ = textbook_ba(p[p > 0], rho[p > 0], beta, tol, max_iter)
                got = kernels.ba_solve(lp, lrho, beta, tol, max_iter, q0=q0)
                assert got[2:5:2] == want[2:5:2]  # iterations and converged
                assert got[0] == pytest.approx(want[0], abs=1e-12)
                assert got[1] == pytest.approx(want[1], abs=1e-12)
                assert got[3] == pytest.approx(want[3], abs=1e-12)
            pt = md.blahut_arimoto(prob, beta, tol=1e-10)
            assert want[4] and pt.iterations == want[2]
            assert pt.rate == pytest.approx(max(want[0], 0.0), abs=1e-12)
            assert pt.distortion == pytest.approx(want[1], abs=1e-12)

    def test_distinct_columns_run_the_dense_arrays(self):
        src = FiniteDistribution(("a", "b", "z"), (0.5, 0.5, 0.0))
        prob = RdProblem.build(src, ("a", "b"), [[0, 1], [1, 0], [7, 7]])
        p, rho, q0 = prob.lumped
        assert rho.tolist() == [[0, 1], [1, 0]] and p.tolist() == [0.5, 0.5]
        assert q0.tolist() == [0.5, 0.5]
        assert prob.lumped is prob.lumped  # computed once per problem
        # the uniform q0 is the dense run's own start, bit for bit
        for beta in (0.3, 2.0, 9.0):
            assert kernels.ba_solve(p, rho, beta, 1e-12, 500, q0=q0) == \
                kernels.ba_solve(p, rho, beta, 1e-12, 500)

    def test_golden_window_lumps_to_one_column_per_centre_symbol(self, parry):
        prob = md.rd_problem_from_measure(parry, 2.0, 2)
        p, rho, q0 = prob.lumped
        assert rho.shape == (125, 127)
        # 387 inadmissible patterns lump into one column per centre symbol
        assert sorted(q0 * 512) == [1.0] * 125 + [156.0, 231.0]


class TestBatchedSweep:
    def test_matches_single_slope_runs(self, monkeypatch):
        probs = [md.binary_hamming_problem(0.3), planted_problem(3)[0],
                 RdProblem.build(FiniteDistribution(("a", "b", "c"), (0.6, 0.3, 0.1)),
                                 ("a", "b", "c"), [[0, 2, 1], [1, 0, 3], [2, 1, 0]])]
        slopes = [4.0, 0.7, 2.5, 0.7, 9.0, 1.3, 4.0, 0.3]
        for prob in probs:
            want = [md.blahut_arimoto(prob, s, tol=1e-10) for s in slopes]
            assert md.rd_curve(prob, slopes, tol=1e-10) == want
            # chunks of three slopes give the same points
            monkeypatch.setattr(kernels, "BATCH_BYTES", 3 * 8 * prob.lumped[1].size)
            assert md.rd_curve(prob, slopes, tol=1e-10) == want
            monkeypatch.undo()
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
        for chunk_slopes in (len(slopes), 1):
            monkeypatch.setattr(kernels, "BATCH_BYTES", chunk_slopes * 8 * 4)
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


def loop_distortion(measure, alpha, M, norm):
    """The distortion build as a loop of masked row reductions."""
    window = md.norm_ball(M - 1, norm)
    pats = md.window_marginal(measure, window).outcomes
    pts = window.points

    def norm_of(u):
        m, n = u
        return float(max(abs(m), abs(n))) if norm == "linf" else math.sqrt(m * m + n * n)

    norms = np.array([norm_of(u) for u in pts])
    # agreeing patterns get alpha^-(smallest norm outside the window),
    # searched over a square around it
    agree = min(norm_of(u) for u in itertools.product(range(-M - 1, M + 2), repeat=2)
                if u not in window)
    arrays = np.array([[measure.alphabet.index(pat[pt]) for pt in pts] for pat in pats])
    dist = np.empty((len(pats), len(pats)))
    for i in range(len(pats)):
        masked = np.where(arrays != arrays[i], norms[None, :], np.inf)
        expo = masked.min(axis=1)
        dist[i] = alpha ** (-np.where(np.isinf(expo), agree, expo))
    return dist


@pytest.mark.parametrize("name", ["bern12", "parry_golden"])
@pytest.mark.parametrize("norm", ["linf", "l2"])
@pytest.mark.parametrize("M", [1, 2])
def test_distortion_build_matches_row_loop(fixtures_dir, name, norm, M):
    measure = md.parse_measure(fixtures_dir / f"{name}.measure")
    for alpha in (2, 1.7):
        got = md.rd_problem_from_measure(measure, alpha, M, norm).distortion_array()
        want = loop_distortion(measure, alpha, M, norm)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


@pytest.mark.parametrize("name", ["bern12", "parry_golden"])
@pytest.mark.parametrize("norm,M,step", [("l2", 1, 1), ("l2", 2, 1), ("linf", 2, 37)])
def test_window_problem_agrees_with_metric_eval(fixtures_dir, name, norm, M, step):
    # each entry is metric_eval's value on its pair of patterns; under l2 two
    # equal M = 2 patterns are alpha^-sqrt 2 apart at most, not alpha^-2
    measure = md.parse_measure(fixtures_dir / f"{name}.measure")
    spec = md.MetricSpec(2.0, norm)
    prob = md.rd_problem_from_measure(measure, 2.0, M, norm)
    dist = prob.distortion_array()
    pats = prob.source.outcomes
    for i in range(0, len(pats), step):
        for j, q in enumerate(prob.reproductions):
            want = md.metric_eval(spec, pats[i], q).value
            assert abs(dist[i, j] - want) <= 1e-15 * want, (i, j)
