"""Hot numeric kernels: the backtracking pattern counter and Blahut-Arimoto.

Both are plain code with one implementation each: the counter walks
Python lists (list indexing is cheaper than numpy scalar indexing in an
interpreted loop), and Blahut-Arimoto is vectorised numpy.  Exact
rectangle counts do not live here; they go through the big-integer
transfer sweep in subshift.py.
"""

import numpy as np


def backtrack_count(n_cells, n_symbols, groups) -> int:
    """Count admissible assignments of ``n_symbols`` symbols to ``n_cells`` cells.

    Cells are indexed 0..n_cells-1 in assignment order.  ``groups[i]``
    lists the forbidden placements that complete at cell ``i``, each a
    sequence of (cell index, required symbol) pairs whose largest cell
    index is ``i``.  A placement is checked as soon as its last cell
    receives a value, so the search prunes a branch the moment a
    forbidden pattern completes.
    """
    if n_cells == 0:
        return 1
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
    count = 0
    level = 0
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
            count += 1
        else:
            level += 1
            trial[level] = 0
    return count


def ba_solve(p, rho, beta, tol, max_iter):
    """One rate-distortion point at Lagrange slope ``beta`` (bits).

    Alternates the reproduction marginal q and the optimal conditional for
    the kernel K = 2^(-beta * rho).  The stopping rule is the Csiszar
    bound: with c(y) = sum_x p(x) K(x,y) / Z(x), the current free energy
    exceeds the optimum by at most max_y log2 c(y).

    Reproductions the source does not use lose mass geometrically, and
    their q(y) would sink into subnormal doubles, where every product
    and sum costs many times the normal rate.  Each renormalised entry
    below the smallest normal double is therefore set to exactly 0.  Such
    an entry times K(x, y) <= 1 is below half an ulp of Z(x) >= min_y
    K(x, y) unless beta * rho exceeds about 960 along a whole row, so Z,
    c, the gap, the normal entries of q and the stopping iteration are
    the same bits as without the flush.  The one difference: a flushed
    entry stays 0, where a subnormal one grows back if c(y) later
    exceeds 1 by more than its rounding step (1/(2n) for n subnormal
    units); that needs c(y) to turn upwards after the long decay, and no
    problem in the tests or the benchmark does it.

    Returns (rate_bits, distortion, iterations, gap, converged).
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    ny = rho.shape[1]
    # the two matrix-vector products per iteration run about a fifth
    # faster on a cache-line-aligned K; malloc alone does not promise it
    K = _aligned_empty(rho.shape)
    np.exp2(-beta * rho, out=K)
    q = np.full(ny, 1.0 / ny)
    Z = np.empty(p.shape[0])
    c = np.empty(ny)
    tiny = np.finfo(np.float64).tiny
    gap = np.inf
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        np.dot(K, q, out=Z)
        np.divide(p, Z, out=Z)
        np.dot(Z, K, out=c)
        gap = float(np.log2(np.max(c)))
        q *= c
        q /= q.sum()
        q[q < tiny] = 0.0
        if gap < tol:
            converged = True
            break
    Z = K @ q
    cond = K * q[None, :] / Z[:, None]
    qbar = p @ cond
    ratio = np.divide(cond, qbar[None, :], out=np.ones_like(cond),
                      where=(cond > 0) & (qbar[None, :] > 0))
    rate = float(np.sum(p[:, None] * cond * np.log2(ratio)))
    dist = float(np.sum(p[:, None] * cond * rho))
    return rate, dist, it, float(gap), converged


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float64 array whose data starts on a 64-byte boundary."""
    nbytes = 8 * int(np.prod(shape))
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + nbytes].view(np.float64).reshape(shape)
