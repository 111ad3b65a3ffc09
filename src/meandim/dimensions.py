"""Shift ultrametrics, Bowen windows, covering numbers and the dimension
estimators.

The metric on A^(Z^2) is alpha^-(smallest sup norm of a disagreement
site).  Its value set is discrete, so for a distortion epsilon with
resolution index M (meaning alpha^-M < epsilon <= alpha^-(M-1)) the
sets of diameter below epsilon are exactly the cylinders over the Bowen
window W(M, N), and the covering number is an exact pattern count.  That
identity drives every estimator here; a brute-force minimal-cover oracle
in the test suite checks it on miniature systems.

The estimators take integer depths M and never form an epsilon.  The
metric mean dimension divides by log2(1/eps_M) = (M-1) log2 alpha, at
eps_M = alpha^-(M-1), the top of the depth-M bracket.  Per-scale
Hausdorff exponents normalise by the cover depth M instead (their covers
have diameter alpha^-M), which is why their extrapolation model uses the
1/M abscissa while the metric mean dimension uses 1/(M-1).  Both read
one ``BowenTable``, which counts each window once and builds one only
to weigh it under a measure.

``verify_theorem`` runs these estimators, and the rate-distortion
sandwich of ``meandim.information``, against the paper's identities in
one pass, and names each check it does not run, with its reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import InvertedBoundsError, MeandimError, ResourceGuardError
from .estimates import (DimensionEstimate, check_alpha, estimate_dict, estimate_table,
                        fit_limit, resolution_depth)
from .information import (MeasureSpec, check_support, default_rdim_schedule,
                          ks_entropy, max_cylinder_log2_prob, parry_measure, rdim_bounds,
                          rdim_delta_bias)
from .lattice import (IntRect, LatticeSet, SweptWindow, lambda_set, min_norm_outside,
                      site_norm)
from .subshift import Pattern, SftSpec, certified_entropy, plan, transfer_matrix_entropy_1d


@dataclass(frozen=True)
class MetricSpec:
    """Base alpha > 1 of the metric; disagreement sites are weighted by
    their sup norm."""

    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)

    @property
    def log2_alpha(self) -> float:
        return math.log2(self.alpha)

    def epsilon_at(self, M: int) -> float:
        """Top of the resolution-M bracket: alpha^-(M-1)."""
        return self.alpha ** (-(M - 1))


@dataclass(frozen=True)
class ActionSpec:
    """The rank-one subaction generated by shifting along (a, b)."""

    a: int = 1
    b: int = 0

    def __post_init__(self):
        if (self.a, self.b) == (0, 0):
            raise ValueError("action direction must be nonzero")


class MetricValue(NamedTuple):
    """Distance value; ``exact`` False means 'true distance <= value'
    (the patterns agree on their whole support)."""

    value: float
    exact: bool


def metric_eval(spec: MetricSpec, p: Pattern, q: Pattern) -> MetricValue:
    """Distance between two same-support patterns.

    With a disagreement the value alpha^-(min norm over disagreement
    sites) is exact.  When the patterns agree everywhere on the support
    the true distance depends on unseen cells; the certificate value is
    alpha^-(smallest norm outside the support), an upper bound.
    """
    pc, qc = p.cells, q.cells
    if tuple(pt for pt, _ in pc) != tuple(pt for pt, _ in qc):
        raise ValueError("metric_eval needs two patterns on the same support")
    best = None
    for (pt, a), (_, b) in zip(pc, qc):
        if a != b:
            nv = site_norm(pt)
            if best is None or nv < best:
                best = nv
    if best is not None:
        return MetricValue(spec.alpha ** (-best), True)
    return MetricValue(spec.alpha ** (-min_norm_outside(p.domain())), False)


def bowen_window(action: ActionSpec, N: int, M: int, *,
                 swept: SweptWindow | None = None) -> LatticeSet:
    """Determining window of the N-step Bowen metric at resolution M.

    The union of the radius-(M-1) norm ball translated along
    (na, nb) for 0 <= n < N, i.e. ``lambda_set``: two points are closer
    than any epsilon with resolution index M iff they agree on this set.
    For the horizontal action this is the rectangle
    [-(M-1), N+M-2] x [-(M-1), M-1].  ``swept``, this window's
    ``SweptWindow`` when the caller has already planned it, is the one
    built, so that a window planned and then counted is built once.
    """
    if swept is None:
        return lambda_set(action.a, action.b, M, N)
    return swept.lattice_set


def covering_number(sft: SftSpec, spec: MetricSpec, action: ActionSpec, N: int,
                    epsilon: float) -> int:
    """Minimum number of sets of d_N-diameter below epsilon covering X.

    Computed as the locally admissible pattern count on the Bowen window
    W(M, N), M the resolution index of epsilon, planned before
    ``bowen_window`` builds it: exact for certified fixtures, an upper
    bound otherwise.  Any epsilon above the space's diameter returns 1.
    """
    if sft.dimension != 2:
        raise ValueError("covering_number works on 2D specs")
    if epsilon > 1:
        return 1
    M = resolution_depth(spec.alpha, epsilon)
    swept = SweptWindow(action.a, action.b, M, N)
    how = plan(sft, swept)
    # builds the window inside the bowen_window span that perfbench traces;
    # a rectangle's count never reads it
    bowen_window(action, N, M, swept=swept)
    return how.run()


def m_schedule(action: ActionSpec, Mschedule: Sequence[int] | None = None) -> list[int]:
    """The sorted depths of a Bowen-window estimator along ``action``.

    Below M0, the smallest M with 2M-1 >= max(|a|, |b|), the balls of a
    window are narrower than the step between them, so the window skips
    whole columns or rows between consecutive balls; the counts stay
    exact, but the per-depth ratios do not follow the extrapolation
    model, so an explicit schedule starting below M0 is refused.  The
    default is five depths from max(2, M0): 2 to 6 for steps of at most 3.
    """
    M0 = (max(abs(action.a), abs(action.b)) + 2) // 2
    if Mschedule is None:
        start = max(2, M0)
        return list(range(start, start + 5))
    Ms = sorted(set(int(M) for M in Mschedule))
    if Ms and Ms[0] < 1:
        raise ValueError("M schedule must be positive")
    if Ms and Ms[0] < M0:
        raise ValueError(
            f"the windows along ({action.a},{action.b}) skip columns or rows below "
            f"M = {M0}; start the M schedule at {M0} or deeper")
    return Ms


class BowenRow(NamedTuple):
    """The two Bowen windows W(M, N) of one depth M, N in ``Ns``.

    ``log2_counts`` holds log2 of each window's pattern count, and
    ``mass_bits`` -log2 of its largest cylinder mass; either is None where
    the table did not need it.
    """

    Ns: tuple[int, int]
    log2_counts: tuple[float, float] | None
    mass_bits: tuple[float, float] | None


def _slope(Ns: tuple[int, int], values: tuple[float, float]) -> float:
    """Growth per iterate between the two windows of a depth."""
    return (values[1] - values[0]) / (Ns[1] - Ns[0])


@dataclass(frozen=True)
class BowenTable:
    """Window counts and cylinder masses behind ``mmdim_estimate`` and
    ``mhdim_bounds``, built by ``bowen_table``.

    ``schedule`` is the checked M schedule and ``rows`` maps each depth M
    to its ``BowenRow``.  Counts are present at the scheduled depths.
    Masses are present, given a measure, at every depth from the first
    scheduled one to the last, because the mass-distribution bound takes
    its minimum over that range.
    """

    schedule: tuple[int, ...]
    rows: Mapping[int, BowenRow]
    log2_alpha: float
    certified: bool


def bowen_table(sft: SftSpec, measure: MeasureSpec | None, spec: MetricSpec,
                action: ActionSpec = ActionSpec(),
                Mschedule: Sequence[int] | None = None, Nfactor: int = 16) -> BowenTable:
    """Count, and weigh under ``measure``, each Bowen window the dimension
    estimators read, building a window at most once.

    Depth M has the windows N = Nfactor*M // 2 and Nfactor*M (8M and 16M by
    default).  The schedule is checked, or defaulted, by ``m_schedule``.
    Every window is planned once, from its geometry, before any is
    counted; each count runs its window's plan, and ``bowen_window``
    builds a window only when ``measure`` weighs it.  A window that
    ``plan`` refuses is named, with its depth and N, in the error.
    """
    if sft.dimension != 2:
        raise ValueError("bowen_table works on 2D specs, got a 1D spec")
    Ms = m_schedule(action, Mschedule)
    if len(Ms) < 3:
        raise ValueError("the Bowen estimators want at least three M values")
    if measure is not None:
        check_support(measure, sft)
    depths = range(Ms[0], Ms[-1] + 1) if measure is not None else Ms

    def planned_window(M, N):
        w = SweptWindow(action.a, action.b, M, N)
        try:
            return w, plan(sft, w)
        except ResourceGuardError as err:
            raise ResourceGuardError(
                f"cannot count the Bowen window W(M={M}, N={N}) along "
                f"({action.a},{action.b}): {err}") from err

    planned = {}
    for M in depths:
        lo, hi = max(1, Nfactor * M // 2), Nfactor * M
        if lo == hi:
            raise ValueError("N schedule degenerate; increase Nfactor")
        planned[M] = {N: planned_window(M, N) for N in (lo, hi)}
    rows = {}
    for M in depths:
        # a depth's windows are let go once they are counted and weighed
        row = planned.pop(M)
        counts = masses = None
        if M in Ms:
            counts = tuple(how.log2() for _, how in row.values())
        if measure is not None:
            masses = tuple(-max_cylinder_log2_prob(measure, bowen_window(action, N, M, swept=w))
                           for N, (w, _) in row.items())
        rows[M] = BowenRow(tuple(row), counts, masses)
    return BowenTable(tuple(Ms), rows, spec.log2_alpha, sft.certified is not None)


def check_mmdim_start(Ms: Sequence[int]) -> None:
    """Refuse a schedule starting at M = 1, where the metric mean dimension's
    log2(1/eps) = (M-1) log2 alpha vanishes; called before any window is built."""
    if Ms and Ms[0] < 2:
        raise ValueError("the M schedule must start at 2 (log(1/eps) vanishes at M=1)")


def mmdim_estimate(table: BowenTable) -> DimensionEstimate:
    """Metric mean dimension estimate.

    Per scheduled M the ratio v_M = S_M / ((M-1) log2 alpha), where S_M is
    the growth per iterate of the log2 window counts and (M-1) log2 alpha
    is log2(1/eps) at eps = alpha^-(M-1), the top of the depth-M bracket;
    the limit is extrapolated by a straight line in 1/(M-1), which is
    exact on the fixture families.
    """
    Ms = table.schedule
    check_mmdim_start(Ms)
    rows = table.rows
    seq = [_slope(rows[M].Ns, rows[M].log2_counts) / ((M - 1) * table.log2_alpha)
           for M in Ms]
    v_inf, c = fit_limit([1.0 / (M - 1) for M in Ms], seq)
    kind = "exact" if table.certified else "upper-bound"
    return DimensionEstimate(v_inf, kind, tuple((M, rows[M].Ns[1]) for M in Ms),
                             tuple(seq), "v = v_inf + c/(M-1)", (v_inf, c))


def mhdim_bounds(table: BowenTable) -> tuple[DimensionEstimate | None, DimensionEstimate]:
    """Mean Hausdorff dimension bracket (lower needs a measure).

    The upper sequence is the growth per iterate of the log2 window counts
    at depth M over M log2 alpha: the depth-M cylinders have diameter at
    most alpha^-M.  The lower sequence is the mass-distribution bound: the
    same ratio of -log2 of the largest cylinder mass, minimised over every
    depth from M to the last scheduled one.  Both extrapolate linearly in
    1/M (exact on fixtures).  Returns (lower or None, upper); the upper
    sequence sits below the matching metric-mean-dimension sequence
    pointwise.
    """
    Ms = table.schedule
    rows = table.rows
    sched = tuple((M, rows[M].Ns[1]) for M in Ms)
    xs = [1.0 / M for M in Ms]
    # The depth-M value alone already upper-bounds (per N) the scale-M
    # Hausdorff exponent and converges to the mean dimension, so the upper
    # sequence uses it directly; minimising over deeper covers up to a
    # fixed cap would pin zero-entropy systems at 1/Mcap instead of decaying.
    u_seq = [_slope(rows[M].Ns, rows[M].log2_counts) / (M * table.log2_alpha)
             for M in Ms]
    u_inf, uc = fit_limit(xs, u_seq)
    kind = "exact" if table.certified else "upper-bound"
    upper = DimensionEstimate(u_inf, kind, sched, tuple(u_seq),
                              "v = v_inf + c/M", (u_inf, uc))

    if rows[Ms[0]].mass_bits is None:
        return None, upper
    lower_ratio = {Mp: _slope(row.Ns, row.mass_bits) / (Mp * table.log2_alpha)
                   for Mp, row in rows.items()}
    # The mass-distribution bound needs the per-depth ratio minimised over
    # every deeper cover; when the minimum still sits at the last depth with
    # the ratios decreasing, the infimum escapes the checked range and only
    # 0 can be certified.
    l_seq = []
    for M in Ms:
        window_vals = [lower_ratio[Mp] for Mp in range(M, Ms[-1] + 1)]
        val = min(window_vals)
        if (len(window_vals) > 1 and val == window_vals[-1]
                and window_vals[-1] < window_vals[-2] - 1e-12):
            val = 0.0
        l_seq.append(val)
    l_inf, lc = fit_limit(xs, l_seq)
    lower = DimensionEstimate(l_inf, "lower-bound", sched, tuple(l_seq),
                              "v = v_inf + c/M", (l_inf, lc))
    if lower.value > upper.value + 1e-9:
        raise InvertedBoundsError(
            f"mass-distribution lower bound {lower.value} exceeds the "
            f"uniform-cover upper bound {upper.value}")
    return lower, upper


# largest Mmax of tame_growth_check, which counts one (2M-1) x (2M-1) window
# per depth M up to Mmax.  A closed form's log2 is read from its plan, but
# any other count is formed, with up to (2M-1)^2 log2 q bits: the golden
# row's stay under the count-bit guard past depth 256 and take about 0.2 s
# up to it (2-core Xeon VM, Python 3.11), so this bounds the depths and
# their counts' work where the bit guard does not
MAX_TAME_M = 256


class TameGrowthResult(NamedTuple):
    table: tuple[tuple[int, float], ...]  # (M, eps_M^delta * log2 count)
    verdict: str  # "consistent" | "inconclusive"


def tame_growth_check(sft: SftSpec, spec: MetricSpec, delta: float,
                      Mmax: int) -> TameGrowthResult:
    """Check eps^delta * log2 #(X, d, eps) along eps_M = alpha^-(M-1).

    Uses the static metric (no dynamics): the window at resolution M is
    the radius-(M-1) norm ball, the one-step ``SweptWindow``: the
    (2M-1) x (2M-1) square.  The depths are planned once each, in
    order, before any is counted: the guards grow with M, so a refused
    Mmax is refused at its first refused depth.  Verdict "consistent" when
    the tail of the sequence is nonincreasing.
    """
    if sft.dimension != 2:
        raise ValueError("tame_growth_check reads 2D window counts; got a 1D spec")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if Mmax < 2:
        raise ValueError("Mmax must be at least 2")
    if Mmax > MAX_TAME_M:
        raise ResourceGuardError(
            f"Mmax {Mmax} is above the tame-check guard {MAX_TAME_M}; the window at "
            f"depth M has (2M-1)^2 cells, and the full shift counts q^((2M-1)^2) on it")

    def at_depth(M, step):
        try:
            return step()
        except ResourceGuardError as err:
            raise ResourceGuardError(
                f"tame-check cannot count the window at depth M = {M} ({err}); "
                f"the largest Mmax it can count on this subshift is {M - 1}") from err

    plans = [at_depth(M, lambda: plan(sft, SweptWindow(1, 0, M, 1)))
             for M in range(1, Mmax + 1)]
    rows = [(M, spec.epsilon_at(M) ** delta * at_depth(M, how.log2))
            for M, how in enumerate(plans, 1)]
    tail = max(2, Mmax // 4)
    diffs = [rows[i + 1][1] - rows[i][1] for i in range(len(rows) - 1)]
    verdict = "consistent" if all(d <= 1e-12 for d in diffs[-tail:]) else "inconclusive"
    return TameGrowthResult(tuple(rows), verdict)


# ---------------------------------------------------------------------------
# dimension-1 mode: static Minkowski / Hausdorff dimensions of one-sided
# subshifts under d(x, y) = alpha^-(first disagreement)
# ---------------------------------------------------------------------------

DEFAULT_M_SCHEDULE_1D = (4, 6, 8, 10, 14, 20)


def minkowski_sequence_1d(sft: SftSpec, spec: MetricSpec,
                          Mschedule: Sequence[int]) -> list[tuple[int, float]]:
    """Box-counting ratios log2 c(M) / (M log2 alpha).

    Sampled at epsilon just above alpha^-M, where the covering sets are
    the depth-M cylinders: c(M) words, each of diameter at most alpha^-M.
    Every depth is planned before any is counted, so a refused depth is
    refused before the work of the others.
    """
    if sft.dimension != 1:
        raise ValueError("minkowski_sequence_1d expects a 1D spec")
    Ms = sorted(set(int(M) for M in Mschedule))
    if any(M < 1 for M in Ms):
        raise ValueError("depths must be positive")
    plans = [plan(sft, IntRect(0, M - 1, 0, 0)) for M in Ms]
    return [(M, how.log2() / (M * spec.log2_alpha)) for M, how in zip(Ms, plans)]


def minkowski_estimate_1d(sft: SftSpec, spec: MetricSpec,
                          Mschedule: Sequence[int] = DEFAULT_M_SCHEDULE_1D
                          ) -> DimensionEstimate:
    """Extrapolated Minkowski dimension of a 1D subshift."""
    table = minkowski_sequence_1d(sft, spec, Mschedule)
    Ms = [M for M, _ in table]
    vs = [v for _, v in table]
    v_inf, c = fit_limit([1.0 / M for M in Ms], vs)
    return DimensionEstimate(v_inf, "upper-bound", tuple((M,) for M in Ms),
                             tuple(vs), "v = v_inf + c/M", (v_inf, c))


def hausdorff_bracket_1d(sft: SftSpec, measure: MeasureSpec, spec: MetricSpec,
                         M: int) -> tuple[float, float]:
    """(lower, upper) bounds on the Hausdorff dimension at depth M.

    Upper: critical exponent of the uniform depth-M word cover.  Lower:
    mass distribution with the given chain measure (largest s with every
    depth-M word mass at most alpha^(-s M)).
    """
    if sft.dimension != 1:
        raise ValueError("hausdorff_bracket_1d expects a 1D spec")
    check_support(measure, sft)
    upper = plan(sft, IntRect(0, M - 1, 0, 0)).log2() / (M * spec.log2_alpha)
    lower = -max_cylinder_log2_prob(measure, IntRect(0, M - 1, 0, 0)) / (M * spec.log2_alpha)
    return lower, upper


# ---------------------------------------------------------------------------
# the paper's identities, checked on one system
# ---------------------------------------------------------------------------


def verify_theorem(sft: SftSpec, measure: MeasureSpec | None, alpha: float,
                   Mschedule, Nfactor: int = 16, tolerance: float = 0.1,
                   delta: float = 0.01, strict: bool = False,
                   action: ActionSpec = ActionSpec()) -> dict:
    """Numerically check the paper's dimension identities on one system.

    1D inputs check Furstenberg's Minkowski and Hausdorff identities
    against h_top / log alpha.  2D inputs check the metric mean dimension
    and the mean Hausdorff bracket against 2(|a|+|b|) h_top / log alpha,
    and the rate-distortion sandwich against 2 h_mu / log alpha.  A lower
    bound must stay below its target, and reach it when the measure is
    maximal.  The action, --strict, the numbers and the schedules are
    refused before any window or word is counted.  Along any action ``plan``
    decides which Bowen windows can be counted: ``bowen_table`` plans
    them all before it counts any.  Each check is in ``checks`` or, with
    the reason it was not run, in ``skipped``; a 2D spec without a
    certificate skips them all and gets BOUNDS-ONLY.
    """
    spec = MetricSpec(alpha)
    one_d, certified = sft.dimension == 1, sft.certified is not None
    skew = (action.a, action.b) != (1, 0)
    if one_d and skew:
        raise MeandimError(f"a 1D subshift is verified along the shift 1,0 only, "
                           f"got the action {action.a},{action.b}")
    if not (one_d or certified) and strict:
        raise MeandimError(
            "input subshift carries no exactness certificate; refusing a "
            "PASS/FAIL verdict under --strict (drop --strict for bounds only)")
    if not tolerance >= 0:
        raise ValueError(f"--tolerance must be at least 0, got {tolerance}")
    # why each group of 2D checks is not run, or "" where it is
    no_rhs = "" if certified else "no exactness certificate: values are bounds, not estimates"
    no_measure = no_rhs or ("no measure given" if measure is None else "")
    no_rdim = no_measure or ("rate-distortion dimension is computed for the horizontal "
                             "action only" if skew else "")
    # --delta is checked on every path, the k schedule where rdim is checked
    eps, deltas = default_rdim_schedule(alpha, () if one_d or no_rdim else range(8, 17),
                                        delta)
    if not one_d:
        check_mmdim_start(m_schedule(action, Mschedule or None))
    else:
        sched = list(Mschedule or DEFAULT_M_SCHEDULE_1D)
        if len(set(sched)) < 2:
            raise ValueError(f"--M-schedule needs at least two distinct depths for the "
                             f"Minkowski extrapolation, got {','.join(map(str, sched))}")
        if measure is not None:
            check_support(measure, sft)

    checks, skipped, results, tables = [], [], {}, {}

    def check(name, lhs, rhs, tol, two_sided=True):
        ok = (abs(lhs - rhs) <= tol) if two_sided else (lhs <= rhs + tol)
        checks.append({"name": name, "lhs": lhs, "rhs": rhs, "tolerance": tol,
                       "two_sided": two_sided, "ok": bool(ok)})

    def skip(*names, reason):
        skipped.extend({"name": name, "reason": reason} for name in names)

    rhs = None
    if one_d:
        h = transfer_matrix_entropy_1d(sft)
        rhs = h / spec.log2_alpha
        est = minkowski_estimate_1d(sft, spec, sched)
        results.update(minkowski=estimate_dict(est), entropy_bits=h, rhs=rhs)
        tables["minkowski"] = estimate_table("minkowski", est)
        check("minkowski_extrapolation", est.value, rhs, tolerance)
        if measure is None:  # the bracket then weighs words under the Parry measure
            try:
                measure = parry_measure(sft)
            except ValueError as exc:
                skip("hausdorff_upper_at_depth", "hausdorff_lower_at_depth", reason=str(exc))
        if measure is not None:
            depth = max(sched)
            lo, up = hausdorff_bracket_1d(sft, measure, spec, depth)
            results["hausdorff_bracket"] = {"depth": depth, "lower": lo, "upper": up}
            check("hausdorff_upper_at_depth", up, rhs, tolerance)
            check("hausdorff_lower_at_depth", lo, rhs, tolerance,
                  two_sided=abs(ks_entropy(measure) - h) <= 1e-6)
    else:
        table = bowen_table(sft, measure, spec, action, Mschedule or None, Nfactor)
        mm = mmdim_estimate(table)
        lower, upper = mhdim_bounds(table)
        results.update(mmdim=estimate_dict(mm), mhdim_upper=estimate_dict(upper),
                       mhdim_lower=estimate_dict(lower))
        tables.update(mmdim=estimate_table("mmdim", mm),
                      mhdim_upper=estimate_table("mhdim_upper", upper))
        if no_rhs:
            skip("mmdim_extrapolation", "mhdim_upper_extrapolation", reason=no_rhs)
        else:
            h_top = certified_entropy(sft)
            # the dimension of the rank-one subaction along (a, b) carries the
            # window-density factor 2(|a|+|b|); the horizontal action gives 2
            factor = 2 * (abs(action.a) + abs(action.b))
            rhs = factor * h_top / spec.log2_alpha
            results.update(entropy_bits=h_top, rhs=rhs, action_factor=factor)
            check("mmdim_extrapolation", mm.value, rhs, tolerance)
            check("mhdim_upper_extrapolation", upper.value, rhs, tolerance)
        if no_measure:
            skip("mhdim_lower_consistent", reason=no_measure)
        else:
            h_mu = ks_entropy(measure)
            check("mhdim_lower_consistent", lower.value, rhs, tolerance,
                  two_sided=abs(h_mu - h_top) <= 1e-6)
        if no_rdim:
            skip("rdim_upper_extrapolation", "rdim_lower_extrapolation", reason=no_rdim)
        else:
            rlo, rup = rdim_bounds(measure, alpha, eps, deltas)
            rhs_mu = 2 * h_mu / spec.log2_alpha
            bias = rdim_delta_bias(measure, alpha, delta)
            results.update(rdim_lower=estimate_dict(rlo), rdim_upper=estimate_dict(rup),
                           rhs_measure=rhs_mu, rdim_lower_delta_bias=bias,
                           ks_entropy_bits=h_mu)
            tables["rdim"] = {"columns": ["eps", "lower", "upper"],
                              "rows": [[s[0], lo, up] for s, lo, up in
                                       zip(rup.schedule, rlo.sequence, rup.sequence)]}
            check("rdim_upper_extrapolation", rup.value, rhs_mu, tolerance)
            check("rdim_lower_extrapolation", rlo.value + bias, rhs_mu, tolerance + bias)
            for i, (lo, up) in enumerate(zip(rlo.sequence, rup.sequence)):
                if not (lo <= rhs_mu + 1e-9 and up >= rhs_mu - 1e-9):
                    check(f"rdim_sandwich_scale_{i}", lo, rhs_mu, 0.0)
                    break

    verdict = ("BOUNDS-ONLY" if rhs is None
               else "PASS" if all(c["ok"] for c in checks) else "FAIL")
    return {"verdict": verdict, "rhs": rhs, "checks": checks, "skipped": skipped,
            "results": results, "tables": tables}
