"""Hot numeric kernels, JIT-compiled with numba when available.

Two kernels live here: the backtracking pattern counter and the
Blahut-Arimoto inner loop.  Each has a plain numpy/Python twin; the
active path is chosen once at import time from the environment:

    MEANDIM_BACKEND=numba   force numba (error if not importable)
    MEANDIM_BACKEND=numpy   force the fallback path
    unset / auto            numba if importable, else fallback

Exact big-integer transfer-matrix counting does NOT live here: its
accumulators are arbitrary-precision and cannot be JIT-compiled, so it
stays in pure Python (see subshift.py).
"""

import os

import numpy as np

_ENV_BACKEND = os.environ.get("MEANDIM_BACKEND", "auto").strip().lower()
if _ENV_BACKEND not in ("auto", "", "numba", "numpy"):
    raise RuntimeError(
        f"MEANDIM_BACKEND={_ENV_BACKEND!r} not understood; use 'numba', 'numpy' or 'auto'"
    )

HAVE_NUMBA = False
if _ENV_BACKEND != "numpy":
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        if _ENV_BACKEND == "numba":
            raise RuntimeError("MEANDIM_BACKEND=numba but numba is not importable")

USE_NUMBA = HAVE_NUMBA and _ENV_BACKEND in ("auto", "", "numba")


# ---------------------------------------------------------------------------
# Backtracking pattern counter.
#
# Cells of the support are indexed 0..n_cells-1 in canonical order.  Every
# translated forbidden pattern that fits inside the support is a "placement":
# a list of (cell index, required symbol) pairs.  A placement is checked as
# soon as its last cell (in assignment order) receives a value, so the search
# prunes a branch the moment a forbidden pattern completes.
#
# Placements are packed in two-level CSR form:
#   grp_indptr[i]..grp_indptr[i+1]   placements completing at cell i
#   pl_indptr[p]..pl_indptr[p+1]     constraint slots of placement p
#   pl_cell[s], pl_sym[s]            cell index / required symbol of slot s
# ---------------------------------------------------------------------------


def _backtrack_count_impl(n_cells, n_symbols, grp_indptr, pl_indptr, pl_cell, pl_sym):
    if n_cells == 0:
        return 1
    assign = np.zeros(n_cells, np.int64)
    trial = np.zeros(n_cells, np.int64)
    count = 0
    level = 0
    while level >= 0:
        s = trial[level]
        if s >= n_symbols:
            level -= 1
            if level >= 0:
                trial[level] += 1
            continue
        assign[level] = s
        ok = True
        for p in range(grp_indptr[level], grp_indptr[level + 1]):
            hit = True
            for c in range(pl_indptr[p], pl_indptr[p + 1]):
                if assign[pl_cell[c]] != pl_sym[c]:
                    hit = False
                    break
            if hit:
                ok = False
                break
        if not ok:
            trial[level] += 1
        elif level == n_cells - 1:
            count += 1
            trial[level] += 1
        else:
            level += 1
            trial[level] = 0
    return count


_backtrack_count_py = _backtrack_count_impl
if HAVE_NUMBA:
    _backtrack_count_nb = njit(cache=True)(_backtrack_count_impl)


def backtrack_count(n_cells, n_symbols, grp_indptr, pl_indptr, pl_cell, pl_sym) -> int:
    """Count admissible assignments; dispatches on the active backend."""
    if USE_NUMBA:
        return int(_backtrack_count_nb(n_cells, n_symbols, grp_indptr, pl_indptr,
                                       pl_cell, pl_sym))
    return int(_backtrack_count_py(n_cells, n_symbols, grp_indptr, pl_indptr,
                                   pl_cell, pl_sym))


# ---------------------------------------------------------------------------
# Blahut-Arimoto inner loop (bits; Lagrange slope parametrisation).
#
# Alternates the reproduction marginal q and the optimal conditional for the
# kernel K = 2^(-slope * distortion).  The stopping rule is the Csiszar
# bound: with c(y) = sum_x p(x) K(x,y) / Z(x), the current free energy
# exceeds the optimum by at most max_y log2 c(y).
#
# Returns (rate_bits, distortion, iterations, gap, converged).
# ---------------------------------------------------------------------------


def _ba_numpy(p, rho, beta, tol, max_iter):
    ny = rho.shape[1]
    K = np.exp2(-beta * rho)
    q = np.full(ny, 1.0 / ny)
    gap = np.inf
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        Z = K @ q
        c = (p / Z) @ K
        gap = float(np.log2(np.max(c)))
        q = q * c
        q /= q.sum()
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
    return rate, dist, it, gap, converged


def _ba_loops_impl(p, rho, beta, tol, max_iter):
    nx = rho.shape[0]
    ny = rho.shape[1]
    K = np.empty((nx, ny))
    for i in range(nx):
        for j in range(ny):
            K[i, j] = 2.0 ** (-beta * rho[i, j])
    q = np.full(ny, 1.0 / ny)
    Z = np.empty(nx)
    c = np.empty(ny)
    gap = np.inf
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        # fused row-major pass: Z[i] and the c accumulation share one sweep
        for j in range(ny):
            c[j] = 0.0
        for i in range(nx):
            z = 0.0
            for j in range(ny):
                z += K[i, j] * q[j]
            Z[i] = z
            w = p[i] / z
            for j in range(ny):
                c[j] += w * K[i, j]
        cmax = 0.0
        qsum = 0.0
        for j in range(ny):
            if c[j] > cmax:
                cmax = c[j]
            q[j] = q[j] * c[j]
            qsum += q[j]
        for j in range(ny):
            q[j] /= qsum
        gap = np.log2(cmax)
        if gap < tol:
            converged = True
            break
    for i in range(nx):
        z = 0.0
        for j in range(ny):
            z += K[i, j] * q[j]
        Z[i] = z
    qbar = np.zeros(ny)
    for i in range(nx):
        for j in range(ny):
            qbar[j] += p[i] * K[i, j] * q[j] / Z[i]
    rate = 0.0
    dist = 0.0
    for i in range(nx):
        for j in range(ny):
            cij = K[i, j] * q[j] / Z[i]
            if cij > 0.0 and qbar[j] > 0.0:
                rate += p[i] * cij * np.log2(cij / qbar[j])
            dist += p[i] * cij * rho[i, j]
    return rate, dist, it, gap, converged


if HAVE_NUMBA:
    _ba_loops_nb = njit(cache=True)(_ba_loops_impl)


def ba_solve(p, rho, beta, tol, max_iter):
    """One rate-distortion point at Lagrange slope ``beta``."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    if USE_NUMBA:
        rate, dist, it, gap, ok = _ba_loops_nb(p, rho, beta, tol, max_iter)
        return float(rate), float(dist), int(it), float(gap), bool(ok)
    rate, dist, it, gap, ok = _ba_numpy(p, rho, beta, tol, max_iter)
    return float(rate), float(dist), int(it), float(gap), bool(ok)
