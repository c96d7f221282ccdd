"""Construction and interrogation of the transformed path law.

An HProcess is the reweighting of a reference model by an initial weight, a
terminal weight and an exponential potential factor, for a jump chain and
(as diffusion1d.DiffusionTransform) for a diffusion alike. The class holds
the Feynman-Kac functions g and f that make the transform concrete;
marginals and relative entropy take either kind. For jump chains the module
also exposes g between grid nodes, the time-dependent jump kernel of the
transformed dynamics, exact path density ratios and a thinning-based path
sampler.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from htlab.errors import (ConvergenceError, DegenerateInputError,
                          InconsistencyError, ModelValidationError,
                          PositivityError)
from htlab.feynman_kac import (POSITIVITY_THRESHOLD, potential_on_grid,
                               positivity_report, solve_f, solve_g,
                               weight_on_nodes)
from htlab.markov_core import (PathBatch, PathView, ReversibleModel, TimeGrid,
                               _batch_from_rounds, _freeze, _path_blocks,
                               _search_rows)

# Mass below which a state is treated as unvisited when reporting residuals
# or checking positivity consistency.
MASS_THRESHOLD = 1e-12

_THINNING_MAX_DEPTH = 20
_THINNING_SAFETY = 1.1

# Time rows per block of the readers that never form an (N+1) x n field:
# relative_entropy's sums, and on a diffusion the rows at which f is stored
# and the drift blocks Euler-Maruyama holds (65 rows each).
_BLOCK_ROWS = 64


@dataclass(frozen=True, eq=False)
class HProcess:
    """Transformed law: reference model plus (f0, gamma1, V), g and f.

    f0 is stored post-normalization: the recorded constant c rescales the
    user's initial weight so that the transformed law has total mass one.
    model is the reference model: a markov_core.ReversibleModel, or a
    diffusion1d.Diffusion1DModel in a DiffusionTransform. V is the read-only
    (N+1) x n view from feynman_kac.potential_on_grid that both sweeps
    took (row stride 0 for a V constant in time); passing it back there
    copies nothing. m holds the reference law's node masses: the jump
    chain's m, the diffusion's m_weights. g is the read-only (N+1) x n
    backward function. f_stored holds the forward function at its stored
    time nodes: every node on a jump chain; f_rows reads f on any node.
    """

    model: object
    f0: np.ndarray
    gamma1: np.ndarray
    V: np.ndarray
    grid: TimeGrid
    g: np.ndarray
    f_stored: np.ndarray
    c: float
    m: np.ndarray

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def f_rows(self, rows) -> np.ndarray:
        """f on the time nodes `rows`, any index of the grid's first axis.

        Every reader of f goes through this method: a DiffusionTransform
        stores f only at some nodes and derives the other rows.
        """
        return self.f_stored[rows]

    @functools.cached_property
    def V_cum(self) -> np.ndarray:
        """Cumulative time integral of V at the grid nodes, per node."""
        cell_integrals = 0.5 * self.grid.dt * (self.V[:-1] + self.V[1:])
        return _freeze(np.vstack([np.zeros(self.n),
                                  np.cumsum(cell_integrals, axis=0)]))

    @functools.cached_property
    def _potential_items(self) -> tuple[memoryview, memoryview]:
        """V and V_cum as memoryviews, whose [k, x] items are Python
        floats: cheaper than numpy scalars for one-item reads."""
        return memoryview(self.V), memoryview(self.V_cum)


def normalization(m: np.ndarray, f0: np.ndarray, g0: np.ndarray) -> float:
    """The constant c = sum_x m(x) f0(x) g(0,x) that gives P mass one.

    A c that is zero or not finite means the weights leave the transform
    without mass (null_transform).
    """
    c = float(np.sum(m * f0 * g0))
    if not np.isfinite(c) or c <= 0.0:
        raise DegenerateInputError(
            "initial and terminal weights give the transform zero mass",
            reason="null_transform")
    return c


def build_h_process(model: ReversibleModel, f0, gamma1, V,
                    grid: TimeGrid) -> HProcess:
    """Normalize the initial weight and assemble the transformed process.

    The normalization constant c = sum_x m(x) f0(x) g(0,x) is folded entirely
    into f0; the terminal weight is left untouched. g does not depend on f0,
    so one backward sweep gives c and g, then one forward sweep gives f.
    """
    f0 = weight_on_nodes(f0, model.n, "initial weight", "negative_weight")
    gamma1 = weight_on_nodes(gamma1, model.n, "terminal weight",
                             "negative_weight")
    V = potential_on_grid(V, grid, model.n)
    g = _freeze(solve_g(model, V, gamma1, grid))
    c = normalization(model.m, f0, g[0])
    f0 = _freeze(f0 / c)
    f = _freeze(solve_f(model, V, f0, grid))
    return HProcess(model=model, f0=f0, gamma1=gamma1, V=V, grid=grid, g=g,
                    f_stored=f, c=c, m=model.m)


def marginal(hp: HProcess, t: float) -> np.ndarray:
    """One-time marginal at a grid node: density f g against m."""
    k = hp.grid.node_index(t)
    return hp.f_rows(k) * hp.g[k] * hp.m


def g_at(hp: HProcess, tau: float) -> np.ndarray:
    """g at any time tau in [0, 1], equal to the stored row at grid nodes.

    Inside a cell this is the cubic Hermite interpolant on the node values
    and on the node slopes dg/dt = V g - Q g of the backward equation (the
    dense output of Hairer, Norsett and Wanner, Solving ODEs I, II.6), so it
    is O(dt^4) accurate, the order of the RK4 sweep behind the node values.
    """
    N, dt = hp.grid.N, hp.grid.dt
    s = tau * N
    node = round(s)
    if node / N == tau:
        return hp.g[node]
    k = min(int(s), N - 1)
    a = s - k
    g0, g1 = hp.g[k], hp.g[k + 1]
    Q, V = hp.model.Q, hp.V
    d0 = dt * (V[k] * g0 - Q @ g0)
    d1 = dt * (V[k + 1] * g1 - Q @ g1)
    b = 1.0 - a
    return ((1.0 + 2.0 * a) * b * b * g0 + a * b * b * d0
            + a * a * (3.0 - 2.0 * a) * g1 - a * a * b * d1)


def jump_kernel(hp: HProcess, t: float) -> np.ndarray:
    """Transformed rates J(x,y) g(t,y)/g(t,x); NaN rows where g(t,x) = 0."""
    k = hp.grid.node_index(t)
    g = hp.g[k]
    usable = g > POSITIVITY_THRESHOLD
    p = marginal(hp, t)
    if np.any(~usable & (p > MASS_THRESHOLD)):
        raise InconsistencyError(
            "state carries mass where g vanishes",
            reason="mass_on_zero_g")
    rates = np.full((hp.n, hp.n), np.nan)
    rows = np.where(usable)[0]
    rates[rows] = hp.model.J.rates[rows] * (g[None, :] / g[rows, None])
    rates[rows, rows] = 0.0
    return rates


def _master_rhs(p: np.ndarray, g: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation under transformed rates.

    With rates J(x,y) g(y)/g(x), the influx to y is g(y) sum_x (p/g)(x)J(x,y)
    and the outflux from y is p(y) (J g)(y) / g(y).
    """
    w = p / g
    return (w @ J) * g - p * (J @ g) / g


def forward_marginal_evolve(hp: HProcess) -> np.ndarray:
    """Integrate the master equation of the transformed chain across the grid.

    Fourth-order Runge-Kutta per cell, with the mid-cell value of g taken
    from g_at, which is as accurate as the node values. Requires g strictly
    positive on the whole grid; zero terminal states make the endpoint rates
    singular and are rejected with the positivity flags.
    """
    flags = positivity_report(hp.g, hp.grid)
    if flags:
        raise PositivityError(
            f"g vanishes at {len(flags)} grid points (first: {flags[0]}); "
            "master-equation evolution needs strictly positive g",
            reason="zero_g_nodes")
    g = hp.g
    J = hp.model.J.rates
    N, h = hp.grid.N, hp.grid.dt
    p = np.empty((N + 1, hp.n))
    p[0] = marginal(hp, 0.0)
    for k in range(N):
        pk = p[k]
        g_half = g_at(hp, (k + 0.5) * h)
        k1 = _master_rhs(pk, g[k], J)
        k2 = _master_rhs(pk + 0.5 * h * k1, g_half, J)
        k3 = _master_rhs(pk + 0.5 * h * k2, g_half, J)
        k4 = _master_rhs(pk + h * k3, g[k + 1], J)
        p[k + 1] = pk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def relative_entropy(hp: HProcess) -> float:
    """Relative entropy of the transform with respect to the reference law.

    Assembled from the three density factors: the initial-weight term, the
    time integral of the potential against the marginal flow (trapezoidal
    weights on the grid), and the terminal-weight term. States without mass
    contribute zero by the 0 log 0 convention. The marginal flow f g m is
    formed _BLOCK_ROWS time rows at a time, never as a full (N+1) x n field.
    """
    N = hp.grid.N

    def mass_weighted_log(p: np.ndarray, w: np.ndarray, what: str) -> float:
        live = p > MASS_THRESHOLD
        if np.any(live & (w <= 0.0)):
            raise InconsistencyError(f"mass where {what} vanishes",
                                     reason="mass_outside_support")
        return float(np.sum(p[live] * np.log(w[live])))

    potential = np.empty(N + 1)  # sum over states of P V, per time row
    for start in range(0, N + 1, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        P = None  # the old block goes before the new is formed
        P = hp.f_rows(rows) * hp.g[rows] * hp.m
        if start == 0:
            initial_term = mass_weighted_log(P[0], hp.f0, "initial weight")
        if start + _BLOCK_ROWS > N:
            terminal_term = mass_weighted_log(P[-1], hp.gamma1,
                                              "terminal weight")
        P *= hp.V[rows]
        P.sum(axis=1, out=potential[rows])
    weights = np.full(N + 1, hp.grid.dt)
    weights[0] = weights[N] = 0.5 * hp.grid.dt
    potential_term = float(weights @ potential)
    return initial_term - potential_term + terminal_term


def integrate_potential_along_path(hp: HProcess, path: PathView,
                                   s: float, t: float) -> float:
    """Exact integral of V(r, X_r) dr over [s, t] for a step path.

    V is piecewise linear in time, so the integral over each constant-state
    piece is the difference of a per-state quadratic antiderivative.
    """
    N = hp.grid.N
    V, V_cum = hp._potential_items

    def antiderivative(tau: float, x: int) -> float:
        k = min(int(tau * N), N - 1)
        a = tau - k / N
        v0 = V[k, x]
        slope = (V[k + 1, x] - v0) * N
        return V_cum[k, x] + v0 * a + 0.5 * slope * a * a

    knots = [0.0, *path.times.tolist(), 1.0]
    total = 0.0
    for i, x in enumerate([path.x0, *path.states.tolist()]):
        lo, hi = max(knots[i], s), min(knots[i + 1], t)
        if hi > lo:
            total += antiderivative(hi, x) - antiderivative(lo, x)
    return total


def path_density_ratio(hp: HProcess, path: PathView,
                       s: float, t: float) -> float:
    """Density of the transformed law against the reference on a time window.

    Evaluates (dP_s/dm)(X_s) / g(s, X_s) * exp(-int_s^t V) * g(t, X_t) on the
    given path; over the full window [0,1] this reduces to the product of the
    three defining weight factors.
    """
    ks, kt = hp.grid.node_index(s), hp.grid.node_index(t)
    if ks > kt:
        raise ModelValidationError("need s <= t", reason="bad_time_order")
    xs, xt = path.state_at(s), path.state_at(t)
    gs = hp.g[ks, xs]
    if gs <= POSITIVITY_THRESHOLD:
        raise PositivityError("g vanishes at the start state",
                              reason="zero_g_at_start")
    density_s = hp.f_rows(ks)[xs] * gs
    integral = integrate_potential_along_path(hp, path, s, t)
    return float(density_s / gs * np.exp(-integral) * hp.g[kt, xt])


class _ThinningContext:
    """Per-batch precomputation for the thinning sampler.

    node_rates[k, x] is the transformed total exit rate at node t_k; the
    per-cell dominating bound is 1.1 times the larger endpoint rate (the rate
    is a ratio of linear interpolants, hence monotone within a cell).
    cum[x, k] is the integral of x's bound from 0 to t_k, one row per state,
    which lets the proposal search jump straight to the right cell instead
    of scanning the grid.
    """

    def __init__(self, hp: HProcess):
        self.N = hp.grid.N
        self.g = hp.g
        # numerator[k, x] = sum_y J(x,y) g(t_k, y); linear interpolation of g
        # makes the interpolated numerator exact.
        self.numer = self.g @ hp.model.J.rates.T
        self.out = hp.model.J.out_edges
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(self.g > 0.0, self.numer / self.g, np.inf)
        self.bounds = _THINNING_SAFETY * np.maximum(rates[:-1], rates[1:])
        finite = np.isfinite(self.bounds)
        # first cell, per state, whose bound is unusable (vanishing g)
        self.horizon = np.where(finite.all(axis=0), self.N,
                                np.argmin(finite, axis=0))
        safe = np.where(finite, self.bounds, 0.0)
        self.cum = np.zeros((self.g.shape[1], self.N + 1))
        np.cumsum(safe.T / self.N, axis=1, out=self.cum[:, 1:])
        self.cdf0 = np.cumsum(marginal(hp, 0.0))

    def _cell(self, tau):
        s = np.asarray(tau) * self.N
        k = np.minimum(s.astype(np.intp), self.N - 1)
        return k, s - k

    def rate(self, tau, x):
        """Transformed exit rate out of x at tau; elementwise over arrays."""
        k, a = self._cell(tau)
        num = (1.0 - a) * self.numer[k, x] + a * self.numer[k + 1, x]
        den = (1.0 - a) * self.g[k, x] + a * self.g[k + 1, x]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, num / den, np.inf)

    def hazard(self, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Integral of the bound of x from 0 to tau (before x's horizon)."""
        k, _ = self._cell(tau)
        return self.cum[x, k] + (tau - k / self.N) * self.bounds[k, x]

    def draw_destination(self, rng, tau, x) -> np.ndarray:
        """Jump destinations out of x at tau, one per entry, drawn from
        J(x, .) g(tau, .) with g interpolated linearly in the cell.

        The running sum covers x's out-edges only. The rest of the row
        J(x, .) holds exact zeros, so each partial sum, and the edge drawn,
        is what a running sum over the whole row gives.
        """
        k, a = self._cell(np.atleast_1d(tau))
        x = np.atleast_1d(x)
        k, a, y = k[:, None], a[:, None], self.out.target[x]
        c = np.cumsum(self.out.rate[x]
                      * ((1.0 - a) * self.g[k, y] + a * self.g[k + 1, y]),
                      axis=1)
        u = rng.random(len(c))[:, None] * c[:, -1:]
        j = np.minimum((c <= u).sum(axis=1), c.shape[1] - 1)
        return np.take_along_axis(y, j[:, None], axis=1)[:, 0]


def _jump_in_slow_cells(ctx: _ThinningContext, rng, tau: float, x: int):
    """Cell-by-cell thinning with subdivision, from tau to the end of time.

    Used past a state's horizon, where endpoint bounds are infinite because
    g vanishes at t=1. Subdivision re-evaluates bounds on shrinking windows;
    exceeding the maximum depth means the transform is effectively pinned
    away from x and is reported as a sampling failure. A window never spans
    two cells, so the rate is monotone on it and the endpoint bound holds.
    Returns the first jump as (time, destination), or None.
    """
    N = ctx.N
    k0 = min(int(tau * N), N - 1)
    for k in range(k0, N):
        pending = [(max(tau, k / N), (k + 1) / N, 0)]
        while pending:
            a, b, depth = pending.pop()
            bound = _THINNING_SAFETY * max(ctx.rate(a, x), ctx.rate(b, x))
            if not np.isfinite(bound):
                if depth >= _THINNING_MAX_DEPTH:
                    raise ConvergenceError(
                        "thinning bound stayed infinite after subdivision",
                        reason="thinning_subdivision_depth")
                mid = 0.5 * (a + b)
                pending.append((mid, b, depth + 1))
                pending.append((a, mid, depth + 1))
                continue
            s = a
            while True:
                s += rng.exponential(1.0 / bound)
                if s >= b:
                    break
                if rng.random() * bound < ctx.rate(s, x):
                    return s, int(ctx.draw_destination(rng, s, x)[0])
    return None


def _thin_block(ctx: _ThinningContext, rng, size: int) -> tuple:
    """Start states and jumps of `size` transformed paths, all drawn from rng.

    Each round moves every unfinished path by one step. Paths before their
    state's horizon advance together along the running bound integral of
    that state: a unit exponential increment, the cell found by a binary
    search of cum, and acceptance with probability rate/bound. A path that
    reaches its horizon without a jump ends there (horizon N) or continues
    in _jump_in_slow_cells, one path at a time in a fixed order. Returns
    x0 and the jumps as per-round (path, time, state) arrays; a path records
    at most one jump per round.
    """
    N = ctx.N
    x0 = np.minimum(np.searchsorted(ctx.cdf0, rng.random(size) * ctx.cdf0[-1],
                                    side="right"), len(ctx.cdf0) - 1)
    rounds = []

    def route(path, tau, x):
        """Split paths at (tau, x) into those before x's horizon and the rest."""
        before = tau < ctx.horizon[x] / N
        moved = (path[before], x[before], ctx.hazard(tau[before], x[before]))
        past = list(zip(path[~before].tolist(), tau[~before].tolist(),
                        x[~before].tolist()))
        return moved, past

    (live, x, lam), slow = route(np.arange(size), np.zeros(size), x0)
    while live.size or slow:
        lam = lam + rng.standard_exponential(live.size)
        hk = ctx.horizon[x]
        out = lam >= ctx.cum[x, hk]
        stopped = out & (hk < N)
        reached = list(zip(live[stopped].tolist(), (hk[stopped] / N).tolist(),
                           x[stopped].tolist()))
        live, x, lam = live[~out], x[~out], lam[~out]
        k = _search_rows(ctx.cum, x, lam) - 1
        bound = ctx.bounds[k, x]
        s = k / N + (lam - ctx.cum[x, k]) / bound
        hit = rng.random(live.size) * bound < ctx.rate(s, x)
        jumps = [(live[hit], s[hit], ctx.draw_destination(rng, s[hit], x[hit]))]
        live, x, lam = live[~hit], x[~hit], lam[~hit]
        for path, tau, state in slow:
            jump = _jump_in_slow_cells(ctx, rng, tau, state)
            if jump is not None:
                jumps.append(([path], [jump[0]], [jump[1]]))
        path, tau, y = (np.concatenate(a) for a in zip(*jumps))
        rounds.append((path, tau, y))
        (moved, m_x, m_lam), slow = route(path, tau, y)
        slow = reached + slow
        live = np.concatenate([live, moved])
        x = np.concatenate([x, m_x])
        lam = np.concatenate([lam, m_lam])
    return x0, rounds


def sample_paths_P(hp: HProcess, n_paths: int, seed) -> PathBatch:
    """Independent transformed paths, one generator per block of PATH_BLOCK.

    Thinning sampler (Lewis and Shedler 1979) for the transformed
    time-inhomogeneous chain, run on all paths of a block at once. Between
    grid nodes g is interpolated linearly, so the total transformed exit
    rate is a ratio of linear functions: monotone on each cell, bounded by
    its endpoint values. Proposals are drawn against 1.1 times that endpoint
    bound and accepted with the true-to-bound rate ratio; cells with infinite
    endpoint bounds (terminal weight vanishing somewhere) fall back to
    recursive subdivision, up to depth 20. Block b draws from child b of
    SeedSequence(seed), so the paths are deterministic given the seed.
    """
    blocks = _path_blocks(seed, n_paths)
    ctx = _ThinningContext(hp)
    x0, rounds, first = [], [], 0
    for size, rng in blocks:
        block_x0, block_rounds = _thin_block(ctx, rng, size)
        x0.append(block_x0)
        rounds += [(path + first, t, y) for path, t, y in block_rounds]
        first += size
    path, times, states = zip(*rounds)
    return _batch_from_rounds(np.concatenate(x0), path, times, states, hp.n,
                              seed)
