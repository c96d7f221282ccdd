"""Construction and interrogation of the transformed path law.

An HProcess is the reweighting of a reference jump model by an initial
weight, a terminal weight and an exponential potential factor. The class
bundles the Feynman-Kac solution that makes the transform concrete and
exposes marginals, g between grid nodes, the time-dependent jump kernel of
the transformed dynamics, relative entropy, exact path density ratios and a
thinning-based path sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from htlab.errors import (ConvergenceError, DegenerateInputError,
                          InconsistencyError, ModelValidationError,
                          PositivityError)
from htlab.feynman_kac import (FKSolution, InitialWeight, PotentialField,
                               POSITIVITY_THRESHOLD, TerminalWeight,
                               positivity_report, solve_f, solve_g)
from htlab.markov_core import PathSample, ReversibleModel, TimeGrid, _freeze

# Mass below which a state is treated as unvisited when reporting residuals
# or checking positivity consistency.
MASS_THRESHOLD = 1e-12

_THINNING_MAX_DEPTH = 20
_THINNING_SAFETY = 1.1


@dataclass(frozen=True)
class HProcess:
    """Transformed law: reference model plus (f0, gamma1, V) and FK data.

    f0 is stored post-normalization: the recorded constant c rescales the
    user's initial weight so that the transformed law has total mass one.
    """

    model: ReversibleModel
    f0: InitialWeight
    gamma1: TerminalWeight
    V: PotentialField
    grid: TimeGrid
    fk: FKSolution
    c: float
    V_cum: np.ndarray  # cumulative time integral of V at grid nodes, per state

    @property
    def n(self) -> int:
        return self.model.n


@dataclass(frozen=True)
class TimeDependentKernel:
    """Transformed jump rates on grid nodes; NaN rows where undefined."""

    grid: TimeGrid
    rates: np.ndarray


def build_h_process(model: ReversibleModel, f0: InitialWeight,
                    gamma1: TerminalWeight, V: PotentialField,
                    grid: TimeGrid) -> HProcess:
    """Normalize the initial weight and assemble the transformed process.

    The normalization constant c = sum_x m(x) f0(x) g(0,x) is folded entirely
    into f0; the terminal weight is left untouched. g does not depend on f0,
    so one backward sweep gives c and g, then one forward sweep gives f.
    """
    g = solve_g(model, V, gamma1, grid)
    c = float(np.sum(model.m * f0.f0 * g[0]))
    if not np.isfinite(c) or c <= 0.0:
        raise DegenerateInputError(
            "initial and terminal weights give the transform zero mass",
            reason="null_transform")
    f0_scaled = InitialWeight(f0.f0 / c)
    fk = FKSolution(grid=grid, g=_freeze(g),
                    f=_freeze(solve_f(model, V, f0_scaled, grid)))
    v = V.values
    cell_integrals = 0.5 * grid.dt * (v[:-1] + v[1:])
    V_cum = np.vstack([np.zeros(model.n), np.cumsum(cell_integrals, axis=0)])
    return HProcess(model=model, f0=f0_scaled, gamma1=gamma1, V=V, grid=grid,
                    fk=fk, c=c, V_cum=_freeze(V_cum))


def marginal(hp: HProcess, t: float) -> np.ndarray:
    """One-time marginal at a grid node: density f g against m."""
    k = hp.grid.node_index(t)
    return hp.fk.f[k] * hp.fk.g[k] * hp.model.m


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
        return hp.fk.g[node]
    k = min(int(s), N - 1)
    a = s - k
    g0, g1 = hp.fk.g[k], hp.fk.g[k + 1]
    Q, V = hp.model.Q, hp.V.values
    d0 = dt * (V[k] * g0 - Q @ g0)
    d1 = dt * (V[k + 1] * g1 - Q @ g1)
    b = 1.0 - a
    return ((1.0 + 2.0 * a) * b * b * g0 + a * b * b * d0
            + a * a * (3.0 - 2.0 * a) * g1 - a * a * b * d1)


def jump_kernel(hp: HProcess, t: float) -> np.ndarray:
    """Transformed rates J(x,y) g(t,y)/g(t,x); NaN rows where g(t,x) = 0."""
    k = hp.grid.node_index(t)
    g = hp.fk.g[k]
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


def time_dependent_kernel(hp: HProcess) -> TimeDependentKernel:
    """Transformed rates at every grid node."""
    N = hp.grid.N
    out = np.empty((N + 1, hp.n, hp.n))
    for k in range(N + 1):
        out[k] = jump_kernel(hp, k / N)
    return TimeDependentKernel(grid=hp.grid, rates=_freeze(out))


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
    flags = positivity_report(hp.fk.g, hp.grid)
    if flags:
        raise PositivityError(
            f"g vanishes at {len(flags)} grid points (first: {flags[0]}); "
            "master-equation evolution needs strictly positive g",
            reason="zero_g_nodes")
    g = hp.fk.g
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
    contribute zero by the 0 log 0 convention.
    """
    f, g = hp.fk.f, hp.fk.g
    P = f * g * hp.model.m[None, :]
    N = hp.grid.N

    def mass_weighted_log(p: np.ndarray, w: np.ndarray, what: str) -> float:
        live = p > MASS_THRESHOLD
        if np.any(live & (w <= 0.0)):
            raise InconsistencyError(f"mass where {what} vanishes",
                                     reason="mass_outside_support")
        return float(np.sum(p[live] * np.log(w[live])))

    initial_term = mass_weighted_log(P[0], hp.f0.f0, "initial weight")
    terminal_term = mass_weighted_log(P[N], hp.gamma1.gamma1, "terminal weight")
    weights = np.full(N + 1, hp.grid.dt)
    weights[0] = weights[N] = 0.5 * hp.grid.dt
    potential_term = float(np.sum(weights[:, None] * P * hp.V.values))
    return initial_term - potential_term + terminal_term


def integrate_potential_along_path(hp: HProcess, path: PathSample,
                                   s: float, t: float) -> float:
    """Exact integral of V(r, X_r) dr over [s, t] for a step path.

    V is piecewise linear in time, so the integral over each constant-state
    piece is the difference of a per-state quadratic antiderivative.
    """
    N = hp.grid.N

    def antiderivative(tau: float, x: int) -> float:
        k = min(int(np.floor(tau * N)), N - 1)
        a = tau - k / N
        v0 = hp.V.values[k, x]
        slope = (hp.V.values[k + 1, x] - v0) * N
        return float(hp.V_cum[k, x] + v0 * a + 0.5 * slope * a * a)

    total = 0.0
    for a, b, x in path.segments():
        lo, hi = max(a, s), min(b, t)
        if hi > lo:
            total += antiderivative(hi, x) - antiderivative(lo, x)
    return total


def path_density_ratio(hp: HProcess, path: PathSample,
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
    gs = hp.fk.g[ks, xs]
    if gs <= POSITIVITY_THRESHOLD:
        raise PositivityError("g vanishes at the start state",
                              reason="zero_g_at_start")
    density_s = hp.fk.f[ks, xs] * gs
    integral = integrate_potential_along_path(hp, path, s, t)
    return float(density_s / gs * np.exp(-integral) * hp.fk.g[kt, xt])


def _draw_categorical(rng: np.random.Generator, weights: np.ndarray) -> int:
    c = np.cumsum(weights)
    return int(min(np.searchsorted(c, rng.random() * c[-1], side="right"),
                   len(weights) - 1))


class _ThinningContext:
    """Per-batch precomputation for the thinning sampler.

    node_rates[k, x] is the transformed total exit rate at node t_k; the
    per-cell dominating bound is 1.1 times the larger endpoint rate (the rate
    is a ratio of linear interpolants, hence monotone within a cell). cum
    holds the running integral of the bounds, which lets the proposal search
    jump straight to the right cell instead of scanning the grid.
    """

    def __init__(self, hp: HProcess):
        self.N = hp.grid.N
        self.g = hp.fk.g
        self.J = hp.model.J.rates
        # numerator[k, x] = sum_y J(x,y) g(t_k, y); linear interpolation of g
        # makes the interpolated numerator exact.
        self.numer = self.g @ self.J.T
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(self.g > 0.0, self.numer / self.g, np.inf)
        self.bounds = _THINNING_SAFETY * np.maximum(rates[:-1], rates[1:])
        finite = np.isfinite(self.bounds)
        # first cell, per state, whose bound is unusable (vanishing g)
        self.horizon = np.where(finite.all(axis=0), self.N,
                                np.argmin(finite, axis=0))
        safe = np.where(finite, self.bounds, 0.0)
        self.cum = np.vstack([np.zeros(self.g.shape[1]),
                              np.cumsum(safe / self.N, axis=0)])
        self.cdf0 = np.cumsum(marginal(hp, 0.0))

    def rate(self, tau: float, x: int) -> float:
        s = tau * self.N
        k = min(int(s), self.N - 1)
        a = s - k
        num = (1.0 - a) * self.numer[k, x] + a * self.numer[k + 1, x]
        den = (1.0 - a) * self.g[k, x] + a * self.g[k + 1, x]
        with np.errstate(divide="ignore"):
            return float(num / den) if den > 0 else np.inf

    def draw_destination(self, rng, tau: float, x: int) -> int:
        s = tau * self.N
        k = min(int(s), self.N - 1)
        a = s - k
        g_now = (1.0 - a) * self.g[k] + a * self.g[k + 1]
        return _draw_categorical(rng, self.J[x] * g_now)


def _first_accepted(ctx: _ThinningContext, rng, tau: float, x: int,
                    horizon_k: int) -> float | None:
    """First accepted proposal in [tau, t_horizon), or None if none fires."""
    C = ctx.cum[:, x]
    bounds = ctx.bounds[:, x]
    N = ctx.N
    k = min(int(tau * N), N - 1)
    lam = C[k] + (tau - k / N) * bounds[k]
    lam_end = C[horizon_k]
    while True:
        lam += rng.exponential()
        if lam >= lam_end:
            return None
        k = int(np.searchsorted(C, lam, side="right")) - 1
        s = k / N + (lam - C[k]) / bounds[k]
        if rng.random() * bounds[k] < ctx.rate(s, x):
            return s


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
                    return s, ctx.draw_destination(rng, s, x)
    return None


def _sample_path_thinning(ctx: _ThinningContext, rng) -> tuple:
    x = int(min(np.searchsorted(ctx.cdf0, rng.random() * ctx.cdf0[-1],
                                side="right"), len(ctx.cdf0) - 1))
    x0 = x
    times: list[float] = []
    states: list[int] = []
    tau = 0.0
    while tau < 1.0:
        hk = int(ctx.horizon[x])
        if tau < hk / ctx.N:
            s = _first_accepted(ctx, rng, tau, x, hk)
            if s is None:
                tau = hk / ctx.N
                continue
            y = ctx.draw_destination(rng, s, x)
        else:
            jump = _jump_in_slow_cells(ctx, rng, tau, x)
            if jump is None:
                break
            s, y = jump
        times.append(s)
        states.append(y)
        tau, x = s, y
    return x0, times, states


def sample_paths_P(hp: HProcess, n_paths: int, seed) -> list[PathSample]:
    """Independent transformed paths from spawned seed streams.

    Thinning sampler for the transformed time-inhomogeneous chain. Between
    grid nodes g is interpolated linearly, so the total transformed exit
    rate is a ratio of linear functions: monotone on each cell, bounded by
    its endpoint values. Proposals are drawn against 1.1 times that endpoint
    bound and accepted with the true-to-bound rate ratio; cells with infinite
    endpoint bounds (terminal weight vanishing somewhere) fall back to
    recursive subdivision, up to depth 20. Deterministic given the seed.
    """
    if n_paths < 1:
        raise DegenerateInputError("need at least one path", reason="empty_request")
    ctx = _ThinningContext(hp)
    children = np.random.SeedSequence(seed).spawn(n_paths)
    paths = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        x0, times, states = _sample_path_thinning(ctx, rng)
        paths.append(PathSample(x0=x0, times=np.array(times),
                                states=np.array(states, dtype=int),
                                n_states=hp.n, seed=(seed, i)))
    return paths

