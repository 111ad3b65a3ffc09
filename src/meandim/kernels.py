"""Hot numeric kernels: the backtracking pattern search and Blahut-Arimoto.

Both are plain code with one implementation each: the search walks
Python lists (list indexing is cheaper than numpy scalar indexing in an
interpreted loop), and Blahut-Arimoto is vectorised numpy.  Exact
rectangle counts do not live here: subshift.py counts them by rank over
GF(p) for linear specs and by the big-integer transfer sweep otherwise.
"""

from collections import Counter
from functools import partial

import numpy as np

from .errors import ResourceGuardError

# descents one backtracking search may make; the largest search in the
# test suite makes about 5e5 node visits
MAX_NODES = 1 << 22


def backtrack(n_cells, n_symbols, groups):
    """Yield every admissible assignment of ``n_symbols`` symbols to ``n_cells`` cells.

    Cells are indexed 0..n_cells-1 in assignment order.  ``groups[i]``
    lists the forbidden placements that complete at cell ``i``, each a
    sequence of (cell index, required symbol) pairs whose largest cell
    index is ``i``.  A placement is checked as soon as its last cell
    receives a value, so the search prunes a branch the moment a
    forbidden pattern completes.  Assignments come in lexicographic
    order, each as the same list of symbol indices, updated in place
    after the yield.  Raises ``ResourceGuardError`` after ``MAX_NODES``
    descents, since the search visits every admissible pattern and its
    run time grows with the count.
    """
    if n_cells == 0:
        yield []
        return
    # checks[i][s]: the other cells of each placement that completes at
    # cell i with symbol s; an empty tuple forbids s at i outright
    checks = [[[] for _ in range(n_symbols)] for _ in range(n_cells)]
    for i, group in enumerate(groups):
        for placement in group:
            rest = tuple((c, s) for c, s in placement if c != i)
            checks[i][dict(placement)[i]].append(rest)
    assign = [0] * n_cells
    trial = [0] * n_cells
    last = n_cells - 1
    level = 0
    budget = MAX_NODES
    while level >= 0:
        s = trial[level]
        if s >= n_symbols:
            level -= 1
            continue
        trial[level] = s + 1
        assign[level] = s
        blocked = False
        for rest in checks[level][s]:
            for c, t in rest:
                if assign[c] != t:
                    break
            else:
                blocked = True
                break
        if blocked:
            continue
        if level == last:
            yield assign
        else:
            budget -= 1
            if budget < 0:
                raise ResourceGuardError(
                    f"backtracking made {MAX_NODES} descents, above the search guard; "
                    f"the {n_cells}-cell support has too many admissible patterns")
            level += 1
            trial[level] = 0


def backtrack_count(n_cells, n_symbols, groups) -> int:
    """The number of assignments ``backtrack`` yields.

    Refused before the walk when the walk would pass ``MAX_NODES``
    anyway: if no placement's required symbols all lie in a symbol set
    S, every assignment over S is admissible, and the walk descends at
    least once for each of their |S|^(n_cells-1) prefixes.
    """
    if n_cells > 1:
        free = len(_free_symbols(n_symbols, groups))
        if free ** (n_cells - 1) > MAX_NODES:
            raise ResourceGuardError(
                f"backtracking would make at least {free}^{n_cells - 1} descents, above "
                f"the search guard of {MAX_NODES}; the {n_cells}-cell support has too "
                f"many admissible patterns")
    return sum(1 for _ in backtrack(n_cells, n_symbols, groups))


def _free_symbols(n_symbols, groups) -> set:
    """A set of symbols that contains no placement's required symbols.

    Greedy: drop the symbol the most remaining placements require until
    every placement requires a dropped one.
    """
    needs = {frozenset(s for _, s in placement) for group in groups for placement in group}
    free = set(range(n_symbols))
    while needs:
        tally = Counter(s for need in needs for s in need)
        drop = max(tally, key=tally.get)
        free.discard(drop)
        needs = {need for need in needs if drop not in need}
    return free


# bytes of kernel matrices one stacked Blahut-Arimoto run may hold; a
# longer slope schedule is run in chunks of at most this much
BATCH_BYTES = 1 << 23

# iterations between two flushes of subnormal reproduction mass
FLUSH_EVERY = 16


def ba_solve(p, rho, beta, tol, max_iter, q0=None):
    """One rate-distortion point at Lagrange slope ``beta`` (bits).

    ``ba_sweep`` at the one slope; returns (rate_bits, distortion,
    iterations, gap, converged).
    """
    return ba_sweep(p, rho, [beta], tol, max_iter, q0)[0]


def ba_sweep(p, rho, betas, tol, max_iter, q0=None):
    """Rate-distortion points at the Lagrange slopes ``betas`` (bits).

    Alternates the reproduction marginal q and the optimal conditional for
    the kernel K = 2^(-beta * rho).  The stopping rule is the Csiszar
    bound: with c(y) = sum_x p(x) K(x,y) / Z(x), the current free energy
    exceeds the optimum by at most gap = max_y log2 c(y), and a slope stops
    once gap < tol.  The loop tests max_y c(y) <= m instead, where m is the
    largest double with log2(m) < tol (``_stop_threshold``, found once per
    call), and takes log2 only of the gap it reports.  q starts at ``q0``,
    or uniform when it is None.

    All slopes iterate together as one stack of kernels, and a slope
    leaves the stack on the iteration its gap falls below ``tol``.  Each
    slope's kernel, marginal and work vectors start on a 64-byte boundary
    (the matrix-vector products run about a fifth faster on an aligned
    K), and the stacked products call the same BLAS matrix-vector routine
    per slope as a lone product would, so every slope follows the same
    iterates, bit for bit, whatever else is in the stack.  A stack of one
    slope (every ``ba_solve`` call, and a sweep's tail) runs the same loop
    body on plain matrix-vector views with 0-d reduction outputs, which
    saves numpy's broadcasting over the stack axis.  The caller bounds the
    stack's size (see ``BATCH_BYTES``).

    Reproductions the source does not use lose mass geometrically, and
    their q(y) would sink into subnormal doubles, where every product
    and sum costs many times the normal rate.  Every ``FLUSH_EVERY``
    iterations, and whenever the loop exits, each entry below the
    smallest normal double is therefore set to exactly 0.  Such an entry
    times K(x, y) <= 1 is below half an ulp of Z(x) >= min_y K(x, y)
    unless beta * rho exceeds about 960 along a whole row, and below half
    an ulp of the mass sum, so it changes no bit of Z, c, the gap, the
    sum, the normal entries of q or the stopping iteration, whether it is
    flushed at once or up to ``FLUSH_EVERY`` - 1 iterations later.  The
    one difference from no flush at all: a flushed entry stays 0, where a
    subnormal one grows back if c(y) later exceeds 1 by more than its
    rounding step (1/(2n) for n subnormal units); that needs c(y) to turn
    upwards after the long decay, and no problem in the tests or the
    benchmark does it.

    Returns one (rate_bits, distortion, iterations, gap, converged) per
    slope, in the order of ``betas``.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    nx, ny = rho.shape
    n = len(betas)
    K = _aligned_stack(n, (nx, ny))
    for k, beta in enumerate(betas):
        np.exp2(-beta * rho, out=K[k])
    q = _aligned_stack(n, (ny,))
    q[:] = 1.0 / ny if q0 is None else q0
    c = _aligned_stack(n, (ny,))
    Z = _aligned_stack(n, (nx,))
    top = np.full(n, np.inf)  # max_y c(y) of each stacked slope
    mass = np.empty(n)
    stop = _stop_threshold(tol)
    tiny = np.finfo(np.float64).tiny
    slot = list(range(n))  # the index in betas of each stacked slope
    out = [None] * n
    it = 0
    while slot and it < max_iter:
        n = len(slot)
        if n == 1:
            # plain matrix-vector views and 0-d reduction outputs ([0, ...]
            # is a view, not a scalar)
            Kv, qv, cv, Zv, gv, sv = K[0], q[0], c[0], Z[0], top[0, ...], mass[0, ...]
            q3, c3, Z3, W3, s2 = qv, cv, Zv, Zv, sv
            least = gv.item
        else:
            Kv, qv, cv, Zv, gv, sv = K[:n], q[:n], c[:n], Z[:n], top[:n], mass[:n]
            q3, c3, Z3, W3 = qv[:, :, None], cv[:, None, :], Zv[:, :, None], Zv[:, None, :]
            s2 = sv[:, None]
            least = partial(np.minimum.reduce, gv)
        # ufunc reductions, since np.max and np.sum add about 1 us per call
        while it < max_iter:
            it += 1
            np.matmul(Kv, q3, out=Z3)
            np.divide(p, Zv, out=Zv)
            np.matmul(W3, Kv, out=c3)
            np.maximum.reduce(cv, axis=-1, out=gv)
            qv *= cv
            np.add.reduce(qv, axis=-1, out=sv)
            qv /= s2
            if least() <= stop:
                break
            if it % FLUSH_EVERY == 0:
                qv[qv < tiny] = 0.0
        qv[qv < tiny] = 0.0
        keep = []
        for r in range(n):
            if top[r] <= stop:
                out[slot[r]] = _ba_point(p, rho, K[r], q[r], it, float(np.log2(top[r])), True)
            else:
                keep.append(r)
        # move the slopes still running to the front, slice by slice, so
        # that every slice keeps its alignment
        for dst, src in enumerate(keep):
            if dst != src:
                K[dst] = K[src]
                q[dst] = q[src]
                top[dst] = top[src]
        slot = [slot[r] for r in keep]
    for r, k in enumerate(slot):
        out[k] = _ba_point(p, rho, K[r], q[r], it, float(np.log2(top[r])), False)
    return out


def _stop_threshold(tol) -> float:
    """The largest double m with log2(m) < tol.

    log2 is nondecreasing, so for every double x, x <= m exactly when
    log2(x) < tol.
    """
    big = np.finfo(np.float64).max
    m = 2.0 ** tol if tol < 1024 else big
    while np.log2(m) >= tol:
        m = np.nextafter(m, 0.0)
    while m < big and np.log2(np.nextafter(m, np.inf)) < tol:
        m = np.nextafter(m, np.inf)
    return float(m)


def _ba_point(p, rho, K, q, it, gap, converged):
    """Rate and distortion of the optimal conditional for marginal q."""
    Z = K @ q
    cond = K * q[None, :] / Z[:, None]
    qbar = p @ cond
    ratio = np.divide(cond, qbar[None, :], out=np.ones_like(cond),
                      where=(cond > 0) & (qbar[None, :] > 0))
    rate = float(np.sum(p[:, None] * cond * np.log2(ratio)))
    dist = float(np.sum(p[:, None] * cond * rho))
    return rate, dist, it, gap, converged


def _aligned_stack(n, shape) -> np.ndarray:
    """An uninitialised float64 array of shape (n, *shape) whose n slices
    are C-contiguous and each start on a 64-byte boundary."""
    size = int(np.prod(shape))
    stride = -(-size // 8) * 8
    buf = np.empty(8 * (n * stride + 8), dtype=np.uint8)
    start = -buf.ctypes.data % 64
    flat = buf[start:start + 8 * n * stride].view(np.float64)
    return flat.reshape(n, stride)[:, :size].reshape((n, *shape))
