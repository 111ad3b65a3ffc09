"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not configurable.  The per-criterion
lines are written past pytest's capture so they show up in any run.
"""

import time

import numpy as np
import pytest

import meandim as md
from meandim import ActionSpec, IntRect, MetricSpec

from conftest import LOG2_PHI

ACT = ActionSpec(1, 0)


@pytest.fixture
def criterion(capfd):
    """Emit one pass line per criterion, past pytest's output capture."""

    def emit(n, label, elapsed, limit):
        line = f"[PASS] criterion {n}: {label} ({elapsed:.2f}s < {limit:.0f}s)"
        with capfd.disabled():
            print(line, flush=True)

    return emit


def test_criterion_1_full_shift_metric_mean_dimension(criterion):
    t0 = time.perf_counter()
    full2 = md.full_shift(("0", "1"))
    est = md.mmdim_estimate(md.bowen_table(full2, None, MetricSpec(2.0), ACT,
                                           (2, 3, 4, 5, 6), 16))
    for M, v in zip((2, 3, 4, 5, 6), est.sequence):
        assert v == (2 * M - 1) / (M - 1), "raw ratio must be exact integer arithmetic"
    assert abs(est.value - 2.0) <= 1e-6
    est4 = md.mmdim_estimate(md.bowen_table(full2, None, MetricSpec(4.0), ACT,
                                            (2, 3, 4, 5, 6), 16))
    assert abs(est4.value - 1.0) <= 1e-6
    dt = time.perf_counter() - t0
    assert dt < 10
    criterion(1, "full-shift metric mean dimension 2.0 (alpha=2) and 1.0 (alpha=4)",
              dt, 10)


def test_criterion_2_golden_row_lift(criterion):
    t0 = time.perf_counter()
    gm = md.golden_mean_1d()
    rl = md.row_lift(gm)
    spec = MetricSpec(2.0)
    h = md.transfer_matrix_entropy_1d(gm)
    assert abs(h - LOG2_PHI) <= 1e-5
    table = md.bowen_table(rl, None, spec, ACT, (2, 3, 4, 5, 6), 16)
    mm = md.mmdim_estimate(table)
    assert abs(mm.value - 2 * LOG2_PHI) <= 0.01
    _, upper = md.mhdim_bounds(table)
    assert abs(upper.value - 2 * LOG2_PHI) <= 0.01
    dt = time.perf_counter() - t0
    assert dt < 60
    criterion(2, f"row-lift golden mean: mmdim {mm.value:.5f}, "
                 f"mhdim-upper {upper.value:.5f} vs {2 * LOG2_PHI:.5f}", dt, 60)


def test_criterion_3_three_dot_zero_entropy(criterion):
    t0 = time.perf_counter()
    td = md.three_dot()
    for N in range(1, 6):
        c = md.count_locally_admissible(td, IntRect(0, N - 1, 0, N - 1),
                                        algorithm="backtracking")
        assert c == 2 ** (2 * N - 1)
    est = md.mmdim_estimate(md.bowen_table(td, None, MetricSpec(2.0), ACT,
                                           (2, 3, 4, 5, 6), 16))
    assert abs(est.value) <= 0.02
    dt = time.perf_counter() - t0
    assert dt < 60
    criterion(3, f"three-dot counts 2^(2N-1) and mmdim {est.value:.2e}", dt, 60)


def test_criterion_4_one_dimensional_dimension_formula(criterion):
    t0 = time.perf_counter()
    gm = md.golden_mean_1d()
    spec = MetricSpec(2.0)
    seq = dict(md.minkowski_sequence_1d(gm, spec, [20]))
    assert abs(seq[20] - LOG2_PHI) <= 0.02
    parry = md.parry_measure(gm)
    lo, up = md.hausdorff_bracket_1d(gm, parry, spec, 20)
    assert lo <= up
    assert abs(up - LOG2_PHI) <= 0.02
    assert abs(lo - LOG2_PHI) <= 0.02
    dt = time.perf_counter() - t0
    assert dt < 10
    criterion(4, f"1D golden mean at depth 20: dim_M {seq[20]:.4f}, "
                 f"bracket [{lo:.4f}, {up:.4f}] around {LOG2_PHI:.4f}", dt, 10)


def test_criterion_5_swept_window_density(criterion):
    t0 = time.perf_counter()
    for (a, b) in ((1, 0), (1, 1), (2, 1)):
        dens = md.lambda_density(a, b, 64, 4096)
        limit = 2 * (abs(a) + abs(b))
        assert abs(dens - limit) / limit <= 0.03
    for a in range(-2, 3):
        for b in range(-2, 3):
            if (a, b) == (0, 0):
                continue
            for M in range(1, 5):
                for N in range(1, 7):
                    assert len(md.lambda_set(a, b, M, N)) == md.lambda_count(a, b, M, N)
    dt = time.perf_counter() - t0
    criterion(5, "swept-window densities within 3% and closed form exact", dt, 60)


def test_criterion_6_covering_lemma_randomised(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    span = 100
    for trial in range(1000):
        n = int(rng.integers(1, 51))
        ws = np.sort(rng.integers(0, 31, n))
        hs = np.sort(rng.integers(0, 31, n))
        rects = []
        for w, h in zip(ws, hs):
            a = int(rng.integers(-span, span - int(w) + 1))
            c = int(rng.integers(-span, span - int(h) + 1))
            rects.append(IntRect(a, a + int(w), c, c + int(h)))
        order = rng.permutation(n)
        fam = [rects[i] for i in order]
        sel = md.greedy_disjoint_subcover(fam)
        # disjointness via painting: no cell may be covered twice
        canvas = np.zeros((2 * span + 2, 2 * span + 2), np.int16)
        for i in sel:
            r = fam[i]
            canvas[r.a + span:r.b + span + 1, r.c + span:r.d + span + 1] += 1
        assert canvas.max() <= 1, f"trial {trial}: selected rectangles overlap"
        # triple dilations of the selection cover every input rectangle
        assert all(any(md.rect_triple(fam[i]).contains(r) for i in sel) for r in fam)
        # selected cells carry at least one ninth of the union
        union = np.zeros_like(canvas, dtype=bool)
        for r in fam:
            union[r.a + span:r.b + span + 1, r.c + span:r.d + span + 1] = True
        assert 9 * int(canvas.sum()) >= int(union.sum())
    dt = time.perf_counter() - t0
    criterion(6, "greedy cover disjoint, 3R-covering and >= 1/9 in 1000/1000 trials",
              dt, 60)


def test_criterion_7_rate_distortion_sandwich(criterion):
    t0 = time.perf_counter()
    alpha = 2.0
    eps, deltas = md.default_rdim_schedule(alpha)
    bern = md.MeasureSpec.bernoulli(md.alphabet("0", "1"), (0.5, 0.5))
    lo, up = md.rdim_bounds(bern, alpha, eps, deltas)
    assert all(l <= 2.0 <= u for l, u in zip(lo.sequence, up.sequence)), \
        "sandwich must hold at every scheduled scale"
    assert abs(up.value - 2.0) <= 0.05 and abs(lo.value - 2.0) <= 0.05
    parry = md.parry_measure(md.golden_mean_1d())
    plo, pup = md.rdim_bounds(parry, alpha, eps, deltas)
    target = 2 * LOG2_PHI
    assert all(l <= target <= u for l, u in zip(plo.sequence, pup.sequence))
    assert abs(pup.value - target) <= 0.05 and abs(plo.value - target) <= 0.05
    dt = time.perf_counter() - t0
    assert dt < 30
    criterion(7, f"rdim brackets: Bernoulli [{lo.value:.3f}, {up.value:.3f}], "
                 f"Parry [{plo.value:.3f}, {pup.value:.3f}]", dt, 30)


def test_criterion_8_blahut_arimoto_oracle(criterion):
    t0 = time.perf_counter()
    prob = md.binary_hamming_problem()
    for D in (0.05, 0.1, 0.25):
        pt = md.blahut_arimoto(prob, md.slope_for_hamming_distortion(D), tol=1e-11)
        assert abs(pt.rate - (1 - md.binary_entropy(D))) <= 1e-4
    skew = md.RdProblem.build(md.FiniteDistribution(("0", "1"), (0.35, 0.65)),
                              ("0", "1"), [[0, 1], [1, 0]])
    pts = md.rd_curve(skew, np.linspace(0.2, 8.0, 50), tol=1e-11)
    pts = sorted(pts, key=lambda p: p.distortion)
    rates = [p.rate for p in pts]
    assert all(r2 <= r1 + 1e-9 for r1, r2 in zip(rates, rates[1:]))
    for i in range(1, len(pts) - 1):
        d0, d1, d2 = (pts[j].distortion for j in (i - 1, i, i + 1))
        r0, r1, r2 = (pts[j].rate for j in (i - 1, i, i + 1))
        if d1 - d0 > 1e-12 and d2 - d1 > 1e-12:
            assert (r2 - r1) / (d2 - d1) >= (r1 - r0) / (d1 - d0) - 1e-6
    dt = time.perf_counter() - t0
    assert dt < 5
    criterion(8, "binary-Hamming curve matches 1 - H(D) and is convex nonincreasing",
              dt, 5)


def test_criterion_9_information_property_suite(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1789)
    for _ in range(500):
        nx, ny = rng.integers(2, 6, size=2)
        m = rng.random((int(nx), int(ny))) ** 2
        m /= m.sum()
        I = md.mutual_information_of(m)
        assert I >= -1e-9
        assert abs(I - md.mutual_information_of(m.T)) <= 1e-9
        hx = -(m.sum(1) * np.log2(m.sum(1))).sum()
        hy = -(m.sum(0) * np.log2(m.sum(0))).sum()
        assert I <= min(hx, hy) + 1e-9
        f = rng.integers(0, 2, size=int(nx))
        g = rng.integers(0, 2, size=int(ny))
        pushed = np.zeros((2, 2))
        for i in range(int(nx)):
            for j in range(int(ny)):
                pushed[f[i], g[j]] += m[i, j]
        assert md.mutual_information_of(pushed) <= I + 1e-9

    # the disagreement-budget MI bound never exceeds the measured value
    for _ in range(200):
        B = int(rng.integers(2, 4))
        N = int(rng.integers(1, 5))
        delta = float(rng.uniform(0.05, 0.45))
        theta = delta * float(rng.uniform(0.2, 0.9))
        px = rng.random(B) ** 2
        px /= px.sum()
        flip = np.full((B, B), theta / (B - 1))
        np.fill_diagonal(flip, 1 - theta)
        nx = B ** N
        digits = [[(x // B ** i) % B for i in range(N)] for x in range(nx)]
        joint = np.ones((nx, nx))
        for x in range(nx):
            for y in range(nx):
                for a, b in zip(digits[x], digits[y]):
                    joint[x, y] *= px[a] * flip[a, b]
        joint /= joint.sum()
        mismatch = sum(joint[x, y] * sum(a != b for a, b in zip(digits[x], digits[y]))
                       for x in range(nx) for y in range(nx))
        assert mismatch < delta * N
        hx = -(joint.sum(1) * np.log2(joint.sum(1))).sum()
        bound = md.mi_lower_bound_lemma(hx, N, delta, B)
        assert md.mutual_information_of(joint) > bound - 1e-9
    dt = time.perf_counter() - t0
    criterion(9, "MI nonnegative/symmetric/DPI on 500 joints; "
                 "disagreement-budget MI bound below measured MI on 200 instances", dt, 60)


# --- criterion 10: brute-force minimal covers ------------------------------


def minimal_cover_by_distance(sft, M, N):
    """Independent oracle: group depth-(M+1) representatives by the literal
    Bowen distance relation d_N <= alpha^-M and count the classes.

    The relation is evaluated from pairwise disagreement sites weighted by
    min_n |u - (n,0)|_inf, never through the window-restriction shortcut.
    """
    deep = md.bowen_window(ACT, N, M + 1)
    pts = deep.points
    reps = list(md.enumerate_locally_admissible(sft, deep))
    X = np.array([[sft.alphabet.index(p[pt]) for pt in pts] for p in reps],
                 dtype=np.int8)
    nu = np.array([min(max(abs(m - n), abs(y)) for n in range(N)) for (m, y) in pts],
                  dtype=float)
    R = len(reps)
    parent = list(range(R))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rel = np.zeros((R, R), dtype=bool)
    for i in range(R):
        diff = X != X[i]
        expo = np.where(diff, nu[None, :], np.inf).min(axis=1)
        close = expo >= M  # distance <= alpha^-M
        rel[i] = close
        for j in np.nonzero(close)[0]:
            ri, rj = find(i), find(int(j))
            if ri != rj:
                parent[ri] = rj
    # the ultrametric makes "close" an equivalence; check transitivity when small
    if R <= 600:
        reach = rel @ rel
        assert not (reach & ~rel).any(), "closeness relation failed transitivity"
    return len({find(i) for i in range(R)})


def test_criterion_10_ball_window_exactness(criterion):
    t0 = time.perf_counter()
    spec = MetricSpec(2.0)
    cases = [
        (md.full_shift(("0", "1")), 1, 1),
        (md.full_shift(("0", "1")), 1, 2),
        (md.three_dot(), 1, 1),
        (md.three_dot(), 1, 2),
        (md.three_dot(), 2, 1),
        (md.three_dot(), 2, 2),
        (md.row_lift(md.golden_mean_1d()), 1, 1),
        (md.row_lift(md.golden_mean_1d()), 1, 2),
    ]
    for sft, M, N in cases:
        oracle = minimal_cover_by_distance(sft, M, N)
        computed = md.covering_number(sft, spec, ACT, N, spec.epsilon_at(M))
        assert oracle == computed, (sft.certified, M, N, oracle, computed)
    dt = time.perf_counter() - t0
    criterion(10, f"brute-force minimal covers equal covering numbers "
                  f"on {len(cases)} miniature cases", dt, 120)
