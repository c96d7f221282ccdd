"""One-dimensional drift diffusion with reflecting walls.

The reference process is dX = -U'(X) dt + dW on a truncated interval, with
reversing density proportional to e^{-2U}. The backward function g is solved
with Crank-Nicolson; the forward function f is stepped with the exact
m-weighted adjoint of the backward scheme, so the discrete pairing of f and g
against the reversing weights is conserved to rounding. The transformed
process moves with drift -U' + d/dx log g and is sampled by Euler-Maruyama
with reflection.

Reflecting walls emulate the whole line on a bounded window: terminal weights
and initial laws should live in the bulk, and the closed-form comparisons in
the tests measure (rather than hide) the residual boundary contamination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from htlab.errors import (DegenerateInputError, ModelValidationError,
                          PositivityError)
from htlab.feynman_kac import (FKSolution, derivative, log_g,
                               potential_on_grid, repeated_rows,
                               weight_on_nodes)
from htlab.h_transform import HProcess, marginal, normalization
from htlab.markov_core import TimeGrid, _freeze

# Equal-width histogram bins of empirical_vs_fk_marginal, capped at M.
_TV_BINS = 64

# Time rows per drift block of _DriftField: Euler-Maruyama holds one block of
# (_DRIFT_BLOCK_ROWS + 1) x (M + 1) drift values, never the full field.
_DRIFT_BLOCK_ROWS = 64


def check_window(x_min, x_max, M):
    """Reject a window that is not finite with positive width (bad_domain),
    or that has fewer than 16 cells (grid_too_coarse).

    The width is taken in Python floats, which overflow to inf silently, so
    a huge window raises no numpy warning before it is refused.
    """
    lo, hi = float(x_min), float(x_max)
    if not (lo < hi and math.isfinite(hi - lo)):  # NaN fails both
        raise ModelValidationError("domain must be finite with positive "
                                   "width", reason="bad_domain")
    if M < 16:
        raise ModelValidationError("need at least 16 spatial cells",
                                   reason="grid_too_coarse")


@dataclass(frozen=True)
class Diffusion1DModel:
    """Potential landscape on a uniform spatial grid with no-flux walls."""

    x_min: float
    x_max: float
    M: int
    U: np.ndarray

    def __post_init__(self):
        check_window(self.x_min, self.x_max, self.M)
        U = np.asarray(self.U, dtype=float)
        if np.isscalar(self.U) or U.ndim == 0:
            U = np.full(self.M + 1, float(self.U))
        if U.shape != (self.M + 1,) or not np.all(np.isfinite(U)):
            raise ModelValidationError("potential must be finite with one "
                                       "value per node", reason="bad_potential")
        object.__setattr__(self, "U", _freeze(U))
        _lapack()  # load LAPACK with the model, before any CN solve

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.M

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.M + 1)

    @property
    def U_prime(self) -> np.ndarray:
        """Second-order derivative of U: central inside, one-sided at walls."""
        return derivative(self.U, self.dx)

    @property
    def m_weights(self) -> np.ndarray:
        """Node masses of the reversing measure (trapezoid quadrature)."""
        w = np.exp(-2.0 * (self.U - self.U.min()))
        w[0] *= 0.5
        w[-1] *= 0.5
        return w / w.sum()


def _operator_bands(model: Diffusion1DModel) -> tuple:
    """Bands (center, upper, lower) of A = 1/2 d2 - U' d1 with mirrored walls.

    upper[i] = A[i, i+1] and lower[i] = A[i+1, i]. The diagonal of A - V(t_k)
    is center - V[k], the only band that depends on the time node.
    """
    M, dx = model.M, model.dx
    up = model.U_prime
    c2 = 0.5 / dx ** 2
    c1 = 0.5 / dx
    upper = np.full(M, c2)
    lower = np.full(M, c2)
    upper[1:] -= up[1:-1] * c1   # A[i, i+1] for i = 1..M-1
    lower[:-1] += up[1:-1] * c1  # A[i, i-1] for i = 1..M-1
    # mirrored ghost nodes: walls see a doubled inward second difference and
    # no advection
    upper[0] = 2.0 * c2
    lower[-1] = 2.0 * c2
    return -2.0 * c2, upper, lower


def _tridiag_mul(diag, upper, lower, v):
    out = diag * v
    out[:-1] += upper * v[1:]
    out[1:] += lower * v[:-1]
    return out


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers, the package's only use of scipy,
    loaded on first call.

    Only the Crank-Nicolson solves need them (dgttrf and dgttrs), so
    a process that builds no diffusion model (every jump subcommand) never
    imports scipy. The extension `scipy/linalg/_flapack` is loaded from its
    file after the top-level `import scipy`, which skips `scipy.linalg` and
    everything it imports. Python keeps one copy of such an extension per
    file, so its routines are the very objects `scipy.linalg.lapack` holds,
    whichever is loaded first.
    """
    import importlib.machinery
    import importlib.util
    import os

    import scipy

    folder = os.path.join(scipy.__path__[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(
                "scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no LAPACK extension _flapack in {folder}")


def _factored_solver(diag, upper, lower):
    """Factor the tridiagonal matrix once by LAPACK gttrf; solve by gttrs.

    gttrf is the partial-pivoting elimination that gtsv does, and gttrs
    replays it on a right-hand side, so each solve equals gtsv bit for bit.
    """
    lapack = _lapack()
    dl, d, du, du2, ipiv, info = lapack.dgttrf(lower, diag, upper)
    if info != 0:
        raise DegenerateInputError("Crank-Nicolson system is singular",
                                   reason="cn_conditioning")
    gttrs = lapack.dgttrs

    def solve(rhs):
        return gttrs(dl, d, du, du2, ipiv, rhs)[0]
    return solve


def _cn_nodes(Vg: np.ndarray, center: float, half: float, upper, lower,
              ks: range):
    """Yield (solve, plus), the Crank-Nicolson diagonals of each time node
    k in ks, a range of step 1 or -1.

    With h_k = half (center - V[k]), solve(rhs) solves the left-hand side of
    node k, whose diagonal is 1 - h_k and whose bands are upper and lower,
    and plus = 1 + h_k is its right-hand diagonal. A node whose V row equals
    the row of the node before it in ks gets that node's pair, so a run of
    equal rows forms its diagonals once and its factor at most once. The
    sweeps solve only on nodes 0..N-1: a run of node N alone has no solve.
    """
    same = repeated_rows(Vg)
    before = min(0, -ks.step)  # same[k + before]: V[k] equals the row before
    for k in ks:
        if k == ks[0] or not same[k + before]:
            h = half * (center - Vg[k])
            minus, plus, solve = 1.0 - h, 1.0 + h, None
        if solve is None and k < len(same):
            solve = _factored_solver(minus, upper, lower)
        yield solve, plus


def _clip_negatives(x: np.ndarray, what: str) -> int:
    """Reject a non-finite solve result; zero its negative entries in place
    and return how many there were."""
    lo = x.min()
    if not (lo > -np.inf and x.max() < np.inf):  # a NaN fails both
        raise DegenerateInputError(f"{what} solve produced non-finite values; "
                                   "time step too large for the potential",
                                   reason="cn_conditioning")
    if lo >= 0.0:
        return 0
    neg = x < 0.0
    x[neg] = 0.0
    return np.count_nonzero(neg)


def solve_g_pde(model: Diffusion1DModel, V, gamma1,
                grid: TimeGrid) -> tuple[np.ndarray, int]:
    """Backward Crank-Nicolson for the potential-weighted heat flow.

    Solves d_t g - U' g' + 1/2 g'' = V g backward from the terminal weight,
    no-flux walls. Negative values produced by dispersion are clipped to zero
    and counted. Returns the read-only (N+1) x (M+1) values of g and the
    count of clipped nodes.
    """
    gamma1 = weight_on_nodes(gamma1, model.M + 1, "terminal weight",
                             "bad_terminal")
    Vg = potential_on_grid(V, grid, model.M + 1)
    N, half = grid.N, 0.5 * grid.dt
    center, upper, lower = _operator_bands(model)
    hu, hl = half * upper, half * lower
    nodes = _cn_nodes(Vg, center, half, -hu, -hl, range(N, -1, -1))
    vals = np.empty((N + 1, model.M + 1))
    vals[N] = gamma1
    clipped = 0
    # node k + 1's right-hand diagonal serves step k, and its solve served
    # step k + 1
    plus_next = next(nodes)[1]
    for k, (solve, plus) in zip(range(N - 1, -1, -1), nodes):
        g = solve(_tridiag_mul(plus_next, hu, hl, vals[k + 1]))
        clipped += _clip_negatives(g, "backward")
        vals[k] = g
        plus_next = plus
    vals.setflags(write=False)
    return vals, clipped


def solve_f_pde(model: Diffusion1DModel, V, f0,
                grid: TimeGrid) -> tuple[np.ndarray, int]:
    """Forward function via the m-weighted adjoint of the backward stepping.

    Defining the forward step as the adjoint (in the reversing inner product)
    of the backward Crank-Nicolson step makes the pairing sum f g m constant
    in time exactly, which is the discrete shape of the duality between the
    two functions. Returns the read-only values of f and the clip count, as
    solve_g_pde does.
    """
    f0 = weight_on_nodes(f0, model.M + 1, "initial weight", "bad_initial")
    Vg = potential_on_grid(V, grid, model.M + 1)
    N, half = grid.N, 0.5 * grid.dt
    center, upper, lower = _operator_bands(model)
    hu, hl = half * upper, half * lower
    # transposes of the backward step: swap the off-diagonal bands
    nodes = _cn_nodes(Vg, center, half, -hl, -hu, range(N + 1))
    mw = model.m_weights
    vals = np.empty((N + 1, model.M + 1))
    vals[0] = f0
    clipped = 0
    solve = next(nodes)[0]
    for k, (solve_next, plus_next) in enumerate(nodes):
        f_next = _tridiag_mul(plus_next, hl, hu, solve(mw * vals[k]))
        f_next /= mw
        clipped += _clip_negatives(f_next, "forward")
        vals[k + 1] = f_next
        solve = solve_next
    vals.setflags(write=False)
    return vals, clipped


def diffusion_hjb_residual(g: np.ndarray, model: Diffusion1DModel, V,
                           grid: TimeGrid) -> np.ndarray:
    """Residual of d_t psi - U' psi' + 1/2 psi'' + 1/2 (psi')^2 - V for
    psi = log g, NaN where a stencil reads a node with g = 0.

    Every derivative is feynman_kac.derivative; psi'' is that of psi'.
    """
    Vg = potential_on_grid(V, grid, model.M + 1)
    psi = log_g(g)
    dx_psi = derivative(psi, model.dx, axis=-1)
    dxx_psi = derivative(dx_psi, model.dx, axis=-1)
    return (derivative(psi, grid.dt) - model.U_prime * dx_psi
            + 0.5 * dxx_psi + 0.5 * dx_psi ** 2 - Vg)


@dataclass(frozen=True)
class DiffusionTransform(HProcess):
    """The transformed diffusion: an HProcess whose m is the model's
    m_weights, plus the count of Crank-Nicolson nodes clipped to zero in
    both solves. The transformed drift is not stored: drift_rows derives
    it from g."""

    clipped_nodes: int

    def drift_rows(self, rows) -> np.ndarray:
        """Read-only transformed drift -U' + d/dx log g on the time nodes
        `rows` (any index of g's first axis), NaN where the stencil reads a
        node with g = 0.

        The log and the stencil act row by row, so a row's drift has the
        same bits whichever rows are formed with it.
        """
        drift = derivative(log_g(self.fk.g[rows]), self.model.dx, axis=-1)
        drift -= self.model.U_prime
        drift.setflags(write=False)
        return drift


def build_diffusion_transform(model: Diffusion1DModel, V, f0, gamma1,
                              grid: TimeGrid) -> DiffusionTransform:
    """Normalize and solve both PDEs.

    V's grid view is taken last: for a full (N+1) x (M+1) field it is a
    copy, which then does not coexist with the temporaries of the solves.
    """
    gamma1 = weight_on_nodes(gamma1, model.M + 1, "terminal weight",
                             "bad_terminal")
    g, clipped_g = solve_g_pde(model, V, gamma1, grid)
    f0 = weight_on_nodes(f0, model.M + 1, "initial weight", "bad_initial")
    mw = _freeze(model.m_weights)
    c = normalization(mw, f0, g[0])
    f0 = _freeze(f0 / c)
    f, clipped_f = solve_f_pde(model, V, f0, grid)
    return DiffusionTransform(model=model, f0=f0, gamma1=gamma1,
                              V=potential_on_grid(V, grid, model.M + 1),
                              grid=grid, fk=FKSolution(grid=grid, g=g, f=f),
                              c=c, m=mw,
                              clipped_nodes=clipped_g + clipped_f)


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold positions back into [lo, hi] (billiard reflection).

    Only positions outside the window are folded: for y in [0, width] the
    fold returns y itself, so skipping it changes no bit.
    """
    width = hi - lo
    y = x - lo
    out = (y < 0.0) | (y > width)
    if out.any():
        z = np.mod(y[out], 2.0 * width)
        y[out] = np.where(z > width, 2.0 * width - z, z)
    y += lo
    return y


class _DriftField:
    """Drift evaluation with linear interpolation in space and time.

    The space lookup `_interp(x, row, slopes)` returns exactly
    np.interp(x, xs, row), bit for bit, but finds the cell directly on the
    uniform grid instead of by binary search:
    - the cell j is floor((x - x_min) * (1 / dx)), moved by at most one
      cell on each side to undo rounding, so that xs[j] <= x < xs[j+1];
    - inside the window the value is slopes[j] (x - xs[j]) + row[j], with
      the per-interval slopes np.diff(row) / np.diff(xs);
    - a node hit x == xs[j] returns row[j] itself, so a NaN in the next
      node does not leak onto the node;
    - x >= xs[-1] returns row[-1] and x < xs[0] returns row[0] (xs[-1] can
      differ from x_max by rounding);
    - NaN x gives NaN, and a NaN value from an infinite row entry is
      retried from the right end of the cell, as np.interp does.

    `rows(block)` returns the drift on a slice of the time nodes 0..N (a
    transform's drift_rows, or an explicit array's __getitem__); None is
    the reference drift -U'. The field keeps one block of rows
    [b B, b B + B] for B = _DRIFT_BLOCK_ROWS: the extra row lets the time
    blend of rows k and k + 1 read a single block.
    """

    def __init__(self, model: Diffusion1DModel, rows=None, N: int = 0):
        self.xs = xs = model.xs
        self.x_min, self.inv_dx, self.M = model.x_min, 1.0 / model.dx, model.M
        self.widths = np.diff(xs)
        # x <= node_max[j] marks node hits, x < xs[0] (j = 0) and
        # x >= xs[-1] (j = M)
        self.node_max = xs.copy()
        self.node_max[-1] = np.inf
        self.rows, self.N = rows, N
        self.block_start, self.block = -1, None
        if rows is None:
            self.static = -model.U_prime
            self.static_slopes = self._slopes(self.static)

    def _slopes(self, row: np.ndarray) -> np.ndarray:
        """Per-interval slopes, padded with a 0 for the right end (j = M)."""
        with np.errstate(all="ignore"):  # inf - inf is NaN, as in np.interp
            return np.append(np.diff(row) / self.widths, 0.0)

    def _interp(self, x: np.ndarray, row: np.ndarray,
                slopes: np.ndarray) -> np.ndarray:
        # in-place steps keep few path-sized temporaries alive at once
        xs = self.xs
        # far or infinite x would warn where np.interp stays silent
        with np.errstate(all="ignore"):
            s = x - self.x_min
            s *= self.inv_dx
            np.floor(s, out=s)
            np.fmax(s, 0.0, out=s)  # NaN x maps to cell 0, stays NaN below
            np.fmin(s, self.M - 1, out=s)
            j = s.astype(np.intp)
            # where= steps, since j -= bool_mask buffers a cast per call
            np.subtract(j, 1, out=j, where=x < xs[j])
            np.add(j, 1, out=j, where=xs[1:][j] <= x)
            np.maximum(j, 0, out=j)
            out = np.subtract(x, xs[j], out=s)
            out *= slopes[j]
            node = x <= self.node_max[j]
            row_j = row[j]
            out += row_j
            retry = np.isnan(out)
            if retry.any():
                i = np.flatnonzero(retry & (xs[j] < x) & (j < self.M))
                ji = j[i]
                y = slopes[ji] * (x[i] - xs[ji + 1]) + row[ji + 1]
                out[i] = np.where(np.isnan(y) & (row[ji] == row[ji + 1]),
                                  row[ji], y)
        np.copyto(out, row_j, where=node)
        return out

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.rows is None:
            return self._interp(x, self.static, self.static_slopes)
        N = self.N
        s = min(max(t, 0.0), 1.0) * N
        k = min(int(np.floor(s)), N - 1)
        a = s - k
        start = k - k % _DRIFT_BLOCK_ROWS
        if start != self.block_start:
            self.block = None  # the old block goes before the new is formed
            self.block = self.rows(slice(start,
                                         start + _DRIFT_BLOCK_ROWS + 1))
            self.block_start = start
        i = k - start
        # masked (NaN) nodes are tolerated as long as no path needs them, so
        # the finiteness guard applies to the interpolated values only
        if a == 0.0:
            row = self.block[i]
        else:
            row = (1.0 - a) * self.block[i] + a * self.block[i + 1]
        out = self._interp(x, row, self._slopes(row))
        if not np.isfinite(out).all():
            raise PositivityError("a path reached a region where the drift "
                                  "field is masked", reason="masked_drift")
        return out


def _require_paths(n_paths: int):
    """Reject an empty or negative path count before anything is allocated."""
    if n_paths < 1:
        raise DegenerateInputError("need at least one path",
                                   reason="empty_request")


def _em_positions(model: Diffusion1DModel, n_paths: int, seed, steps: int,
                  field: _DriftField, x0, initial_masses, t_end: float):
    """Yield the positions at t = 0 and after each of the `steps` steps.

    The start is checked before anything is drawn.
    """
    lo, hi = model.x_min, model.x_max
    width = hi - lo
    rng = np.random.default_rng(seed)
    if initial_masses is not None:
        cdf = np.cumsum(weight_on_nodes(initial_masses, model.M + 1,
                                        "initial masses", "bad_initial"))
        idx = np.searchsorted(cdf, rng.random(n_paths) * cdf[-1], side="right")
        x = model.xs[np.minimum(idx, model.M)]
    elif x0 is None:
        raise ModelValidationError("need x0 or initial masses",
                                   reason="missing_initial")
    else:
        x0 = np.array(x0, dtype=float)
        if x0.shape not in ((), (n_paths,)):
            raise ModelValidationError("x0 must be a scalar or one value per "
                                       "path", reason="dimension_mismatch")
        if not np.all((x0 >= lo) & (x0 <= hi)):  # NaN fails both
            raise ModelValidationError("x0 must be finite and inside the "
                                       "model window", reason="bad_initial")
        x = np.full(n_paths, x0)
    yield x
    dt = t_end / max(steps, 1)  # steps = 0 yields the initial draw only
    sqrt_dt = np.sqrt(dt)
    for k in range(steps):
        t = k * dt
        x = x + field(t, x) * dt + sqrt_dt * rng.standard_normal(n_paths)
        # fmin/fmax skip NaN, as the comparisons do
        if np.fmin.reduce(x) < lo - width or np.fmax.reduce(x) > hi + width:
            raise ModelValidationError(
                "a path escaped the padded domain; drift and step size are "
                "inconsistent with the model window", reason="path_escaped")
        x = _reflect(x, lo, hi)
        yield x


def sample_em_paths(model: Diffusion1DModel, n_paths: int, seed,
                    steps: int, drift: np.ndarray | None = None,
                    x0: float | np.ndarray | None = None,
                    initial_masses: np.ndarray | None = None) -> np.ndarray:
    """Euler-Maruyama batch with reflection at the walls, from t = 0 to 1.

    drift is an (N+1) x (M+1) array on the nodes of a uniform time grid
    (a transform's drift_rows(slice(None))) with N >= 2, or anything numpy
    reads as one with dtype float, or None for the reference drift -U'.
    Initial positions come from x0 (a scalar or one value per path, finite
    and inside [x_min, x_max]) or are drawn from node masses, checked as a
    weight. A bad shape is a dimension_mismatch and a bad start value a
    bad_initial, raised before anything is drawn. Returns an
    (n_paths, steps+1) array of positions.
    A path escaping the 2x-padded domain aborts the run: the drift and step
    size are inconsistent with the model window.
    """
    _require_paths(n_paths)
    if steps < 100:
        raise ModelValidationError("need at least 100 steps",
                                   reason="too_few_steps")
    if drift is None:
        field = _DriftField(model)
    else:
        try:
            drift = np.asarray(drift, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numbers
            drift = np.empty(0)
        if drift.ndim != 2 or len(drift) < 3 or drift.shape[1] != model.M + 1:
            raise ModelValidationError("drift must be (N+1) x (M+1) floats, "
                                       "N >= 2", reason="dimension_mismatch")
        field = _DriftField(model, drift.__getitem__, len(drift) - 1)
    out = np.empty((n_paths, steps + 1))
    for k, x in enumerate(_em_positions(model, n_paths, seed, steps, field,
                                        x0, initial_masses, 1.0)):
        out[:, k] = x
    return out


def empirical_vs_fk_marginal(transform: DiffusionTransform, t: float,
                             n_paths: int, seed) -> float:
    """Total variation between sampled and solved marginals at time t.

    Paths start from the transformed initial law and move with the
    transformed drift; node masses of f g m are aggregated onto the same
    equal-width bins as the path histogram. There are min(_TV_BINS, M) bins,
    so every bin holds at least one node.
    """
    _require_paths(n_paths)
    model, grid = transform.model, transform.grid
    k = grid.node_index(t)
    bins = min(_TV_BINS, model.M)
    edges = np.linspace(model.x_min, model.x_max, bins + 1)
    field = _DriftField(model, transform.drift_rows, grid.N)
    for positions in _em_positions(model, n_paths, seed, k, field, None,
                                   marginal(transform, 0.0), t):
        pass  # only the positions at time t are kept
    hist, _ = np.histogram(positions, bins=edges)
    empirical = hist / n_paths
    masses = marginal(transform, t)
    which = np.clip(np.searchsorted(edges, model.xs, side="right") - 1,
                    0, bins - 1)
    target = np.bincount(which, weights=masses, minlength=bins)
    target = target / target.sum()
    return 0.5 * float(np.abs(empirical - target).sum())
