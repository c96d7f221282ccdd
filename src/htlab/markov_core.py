"""Finite-state reversible Markov jump processes.

Construction of Metropolis-type reversible models and their generators, exact
transition matrices through uniformization, Gillespie path sampling into CSR
path batches, and empirical marginals. States carry opaque labels; every
numeric routine works on dense integer indices.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from htlab.errors import DegenerateInputError, ModelValidationError

# Input acceptance tolerance for detailed balance, relative to the scale of
# the flux terms involved. Inputs are exact rationals or constructed, so a
# loose tolerance would only hide bugs.
DETAILED_BALANCE_RTOL = 1e-10

# Uniformization: Poisson series truncated once the tail mass drops below this.
_POISSON_TAIL = 1e-14

# Paths per random stream in the samplers: path i of a request is drawn from
# child i // PATH_BLOCK of the request's SeedSequence, so a given seed and
# path count always give the same paths.
PATH_BLOCK = 4096


@dataclass(frozen=True)
class StateSpace:
    """Finite collection of distinct state labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ModelValidationError("state space needs at least 2 states",
                                       reason="state_space_too_small")
        if len(set(self.labels)) != len(self.labels):
            raise ModelValidationError("state labels must be distinct",
                                       reason="duplicate_labels")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k/N on the unit time interval."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ModelValidationError("time grid needs N >= 2 steps",
                                       reason="grid_too_coarse")

    @property
    def dt(self) -> float:
        return 1.0 / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) / self.N

    def node_index(self, t: float) -> int:
        """Map a time to its grid index, rejecting off-grid and non-finite
        times."""
        if math.isfinite(t * self.N):  # false for NaN, inf and overflow
            k = int(round(t * self.N))
            if 0 <= k <= self.N and abs(k / self.N - t) <= 1e-9:
                return k
        raise ModelValidationError(
            f"time {t} is not a node of the N={self.N} grid",
            reason="off_grid_time")


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class Edges(NamedTuple):
    """The positive entries of a rate matrix in row-major order: edge i
    jumps from source[i] to target[i] at rate[i]. Read-only arrays."""

    source: np.ndarray
    target: np.ndarray
    rate: np.ndarray


class OutEdges(NamedTuple):
    """Each state's out-edges: x's run of Edges (never empty) starts at
    first[x], and row x of target and rate lists it, padded to the largest
    out-degree with rate 0 and x's last target. Read-only arrays."""

    first: np.ndarray
    target: np.ndarray
    rate: np.ndarray


@dataclass(frozen=True)
class JumpKernel:
    """Matrix of jump rates J(x, y); diagonal identically zero.

    edges lists the positive rates, grouped by source state and ordered by
    target within each source, and out_edges per state, for O(edges) work.
    """

    rates: np.ndarray
    exit_rates: np.ndarray = field(init=False)
    edges: Edges = field(init=False)
    out_edges: OutEdges = field(init=False)

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ModelValidationError("rates must be a square matrix",
                                       reason="bad_shape")
        if not np.all(np.isfinite(r)):
            raise ModelValidationError("rates must be finite",
                                       reason="nonfinite_rates")
        if np.any(r < 0):
            raise ModelValidationError("rates must be nonnegative",
                                       reason="negative_rate")
        if np.any(np.diag(r) != 0):
            raise ModelValidationError("diagonal rates must be exactly 0",
                                       reason="nonzero_diagonal")
        rates = _freeze(r)
        exit_rates = _freeze(rates.sum(axis=1))
        if np.any(exit_rates <= 0):
            raise DegenerateInputError("every state needs a positive exit rate",
                                       reason="absorbing_state")
        source, target = np.nonzero(rates)
        edges = Edges(source, target, rates[source, target])
        first = np.searchsorted(source, np.arange(len(rates)))
        degree = np.diff(first, append=source.size)[:, None]
        slot = np.arange(degree.max())
        edge = first[:, None] + np.minimum(slot, degree - 1)
        out_edges = OutEdges(first, target[edge],
                             np.where(slot < degree, edges.rate[edge], 0.0))
        for a in (*edges, *out_edges):
            a.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "exit_rates", exit_rates)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "out_edges", out_edges)

    @property
    def n(self) -> int:
        return self.rates.shape[0]


@dataclass(frozen=True)
class ReversibleModel:
    """Jump kernel J with reversing probability m, plus the generator Q."""

    space: StateSpace
    J: JumpKernel
    m: np.ndarray
    Q: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        n = self.space.n
        if self.J.n != n or m.shape != (n,):
            raise ModelValidationError("space, kernel and measure sizes differ",
                                       reason="dimension_mismatch")
        if np.any(m <= 0) or not np.all(np.isfinite(m)):
            raise ModelValidationError("reversing measure must be strictly positive",
                                       reason="nonpositive_measure")
        if abs(m.sum() - 1.0) > 1e-12:
            raise ModelValidationError("reversing measure must sum to 1",
                                       reason="unnormalized_measure")
        viol = detailed_balance_violation(self.J.rates, m)
        scale = max(np.max(m[:, None] * self.J.rates), 1.0)
        if viol > DETAILED_BALANCE_RTOL * scale:
            raise ModelValidationError(
                f"detailed balance violated (max |m(x)J(x,y)-m(y)J(y,x)| = {viol:.3e})",
                reason="detailed_balance_violation")
        if not check_irreducibility(self.J):
            raise ModelValidationError("jump kernel must be irreducible",
                                       reason="not_irreducible")
        Q = self.J.rates - np.diag(self.J.exit_rates)
        object.__setattr__(self, "m", _freeze(m))
        object.__setattr__(self, "Q", _freeze(Q))

    @property
    def n(self) -> int:
        return self.space.n


@dataclass(frozen=True, slots=True, eq=False)
class PathView:
    """Path i of a PathBatch: a cadlag step path on [0,1], read-only.

    Right-continuous: evaluation at a jump time returns the post-jump state.
    times and states are read-only slices of the batch arrays, and seed is
    (batch seed, i). Views are not validated again.
    """

    x0: int
    times: np.ndarray
    states: np.ndarray
    seed: tuple

    def state_at(self, t: float) -> int:
        k = bisect.bisect_right(self.times, t)
        return self.x0 if k == 0 else int(self.states[k - 1])


@dataclass(frozen=True, eq=False)
class PathBatch:
    """P cadlag step paths on [0,1] in compressed sparse row form.

    Path i starts in x0[i] and jumps at times[offsets[i]:offsets[i+1]] to the
    matching entries of states. The invariants (aligned arrays, jump times
    strictly increasing in (0,1) within each path, every jump changing the
    state) are validated once, here, for the whole batch. Iteration and
    batch[i] give PathView objects.
    """

    x0: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    states: np.ndarray
    n_states: int
    seed: object = None

    def __post_init__(self):
        x0 = np.asarray(self.x0)
        offsets = np.asarray(self.offsets)
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states)
        n_jumps = t.size
        if (x0.ndim != 1 or offsets.shape != (x0.size + 1,) or t.ndim != 1
                or s.shape != t.shape
                or not all(a.dtype.kind in "iu" for a in (x0, offsets, s))
                or offsets[0] != 0 or offsets[-1] != n_jumps
                or np.any(np.diff(offsets) < 0)
                or np.any((x0 < 0) | (x0 >= self.n_states))
                or np.any((s < 0) | (s >= self.n_states))):
            raise ModelValidationError(
                "paths need aligned times and states, offsets running from 0 "
                "to the jump count, and states in range", reason="bad_path")
        # Jumps that open a path are compared with that path's x0, and their
        # times with 0, never with the last jump of the path before.
        opens = np.diff(offsets) > 0
        starts = offsets[:-1][opens]
        within = np.ones(n_jumps, dtype=bool)
        within[starts] = False
        if not (np.all((t > 0) & (t < 1)) and np.all(np.diff(t)[within[1:]] > 0)):
            raise ModelValidationError(
                "jump times must increase strictly in (0,1)",
                reason="bad_jump_times")
        before = np.empty_like(s)
        before[1:] = s[:-1]
        before[starts] = x0[opens]
        if np.any(before == s):
            raise ModelValidationError("consecutive states must differ",
                                       reason="fake_jump")
        object.__setattr__(self, "times", _freeze(t))
        for name, a in (("x0", x0), ("offsets", offsets), ("states", s)):
            a = a.astype(np.int64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.x0.size

    def __getitem__(self, i: int) -> PathView:
        i = range(len(self))[i]
        a, b = int(self.offsets[i]), int(self.offsets[i + 1])
        return PathView(int(self.x0[i]), self.times[a:b], self.states[a:b],
                        (self.seed, i))

    def __iter__(self):
        offsets, times, states = self.offsets.tolist(), self.times, self.states
        for i, x in enumerate(self.x0.tolist()):
            a, b = offsets[i], offsets[i + 1]
            yield PathView(x, times[a:b], states[a:b], (self.seed, i))

    def state_at(self, t: float) -> np.ndarray:
        """State of every path at time t (right-continuous)."""
        if not self.states.size:
            return self.x0.copy()
        passed = np.concatenate([[0], np.cumsum(self.times <= t)])
        k = passed[self.offsets[1:]] - passed[self.offsets[:-1]]
        last = np.maximum(self.offsets[:-1] + k - 1, 0)
        return np.where(k > 0, self.states[last], self.x0)


def detailed_balance_violation(rates: np.ndarray, m: np.ndarray) -> float:
    flux = m[:, None] * rates
    return float(np.max(np.abs(flux - flux.T)))


def check_irreducibility(J: JumpKernel | np.ndarray) -> bool:
    """True iff the directed graph of positive rates is strongly connected,
    that is, iff state 0 reaches every state along the edges and back."""
    rates = J.rates if isinstance(J, JumpKernel) else np.asarray(J, dtype=float)
    for edges in (rates > 0, (rates > 0).T):
        seen = frontier = np.arange(len(edges)) == 0
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def build_reversible_model(space: StateSpace, J: JumpKernel,
                           m: np.ndarray) -> ReversibleModel:
    """Validate and assemble a model from explicit (J, m)."""
    m = np.asarray(m, dtype=float)
    return ReversibleModel(space=space, J=J, m=m / m.sum())


def build_metropolis(space: StateSpace, J0: JumpKernel, m0: np.ndarray,
                     U: np.ndarray) -> ReversibleModel:
    """Tilt a reversible base kernel by a potential.

    J(x,y) = exp(-[U(y)-U(x)]) J0(x,y), reversed by the normalization of
    e^{-2U} m0. Detailed balance of the result follows from detailed balance
    of (J0, m0), which is validated here as an input requirement. The tilt is
    positive, so J has the positive pattern of J0 and the irreducibility check
    of the assembled model covers the base kernel.
    """
    m0 = np.asarray(m0, dtype=float)
    U = np.asarray(U, dtype=float)
    n = space.n
    if m0.shape != (n,) or U.shape != (n,):
        raise ModelValidationError("m0 and U must have one entry per state",
                                   reason="dimension_mismatch")
    if not np.all(np.isfinite(U)):
        raise ModelValidationError("potential U must be finite",
                                   reason="bad_potential")
    if np.any(m0 <= 0):
        raise ModelValidationError("base measure must be strictly positive",
                                   reason="nonpositive_measure")
    viol = detailed_balance_violation(J0.rates, m0 / m0.sum())
    scale = max(np.max((m0 / m0.sum())[:, None] * J0.rates), 1.0)
    if viol > DETAILED_BALANCE_RTOL * scale:
        raise ModelValidationError(
            f"(m0, J0) violate detailed balance by {viol:.3e}",
            reason="detailed_balance_violation")
    tilt = np.exp(U[:, None] - U[None, :])
    J = JumpKernel(tilt * J0.rates)
    m = np.exp(-2.0 * U) * m0
    return ReversibleModel(space=space, J=J, m=m / m.sum())


def _uniformized_exponential(Q: np.ndarray, lam: float, t: float) -> np.ndarray:
    """e^{Qt} as a Poisson mixture of powers of K = I + Q/lam."""
    n = Q.shape[0]
    if t == 0.0 or lam == 0.0:
        return np.eye(n)
    # Keep exp(-lam*t) representable; split long horizons by squaring.
    if lam * t > 200.0:
        half = _uniformized_exponential(Q, lam, t / 2.0)
        return half @ half
    K = np.eye(n) + Q / lam
    weight = np.exp(-lam * t)
    acc = weight * np.eye(n)
    power = np.eye(n)
    cumulative = weight
    k = 0
    while 1.0 - cumulative > _POISSON_TAIL:
        k += 1
        weight *= lam * t / k
        power = power @ K
        acc += weight * power
        cumulative += weight
        if k > 100_000:  # pragma: no cover - defensive cap
            raise DegenerateInputError("uniformization series failed to converge",
                                       reason="uniformization_stall")
    return acc


def transition_matrix(model: ReversibleModel, t: float) -> np.ndarray:
    """Exact transition matrix e^{Qt} via uniformization.

    The Poisson-weighted sum of powers of the uniformized kernel keeps every
    entry nonnegative unconditionally, unlike scaling-and-squaring.
    """
    if t < 0:
        raise ModelValidationError("time must be nonnegative",
                                   reason="negative_time")
    lam = 1.05 * float(np.max(model.J.exit_rates))
    return _uniformized_exponential(model.Q, lam, float(t))


def _seeded(seed, make):
    """make(seed), with numpy's refusal of the seed raised as bad_seed."""
    try:
        return make(seed)
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(f"seed {seed!r}: {exc}", reason="bad_seed")


def _search_rows(A: np.ndarray, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.searchsorted(A[r], v, side="right") for each pair (rows[i], v[i]).

    Rows of A must be nondecreasing. A vectorized binary search over the
    columns: exact, and O(len(v) log A.shape[1]) work.
    """
    m = A.shape[1]
    lo = np.zeros(len(v), dtype=np.intp)
    hi = np.full(len(v), m, dtype=np.intp)
    for _ in range(m.bit_length()):
        mid = (lo + hi) >> 1
        below = (mid < m) & (A[rows, np.minimum(mid, m - 1)] <= v)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def sample_path_R(model: ReversibleModel, x0, seed) -> PathBatch:
    """Gillespie sample of the reference chain on [0,1], one path per entry
    of x0 (a scalar x0 gives a batch of one), all from one generator.

    Holding time in x is exponential with the exit rate of x; the jump
    destination is drawn proportionally to the rates on x's out-edges, and
    a draw at or past their sum takes the last one. Each round steps every
    path still short of t = 1 at once.
    """
    x0 = np.atleast_1d(np.asarray(x0))
    if (x0.ndim != 1 or x0.dtype.kind not in "iu"
            or np.any((x0 < 0) | (x0 >= model.n))):
        raise ModelValidationError(
            f"initial states must be state indices below {model.n}",
            reason="unknown_state")
    if not x0.size:
        raise DegenerateInputError("need at least one path",
                                   reason="empty_request")
    rng = _seeded(seed, np.random.default_rng)
    out = model.J.out_edges
    cum_rates = np.cumsum(out.rate, axis=1)
    live = np.arange(x0.size)
    x, t = x0.astype(np.intp), np.zeros(x0.size)
    path, times, states = [], [], []
    while live.size:
        t = t + rng.standard_exponential(live.size) / model.J.exit_rates[x]
        go = t < 1.0
        live, x, t = live[go], x[go], t[go]
        u = rng.random(live.size) * cum_rates[x, -1]
        x = out.target[x, _search_rows(cum_rates[:, :-1], x, u)]
        path.append(live)
        times.append(t)
        states.append(x)
    return _batch_from_rounds(x0, path, times, states, model.n, seed)


def _batch_from_rounds(x0, path, times, states, n_states, seed) -> PathBatch:
    """PathBatch from jumps recorded in rounds of (path, time, state) arrays.

    A round holds at most one jump per path and a path's later jumps come in
    later rounds, so a stable sort by path keeps each path's jumps in time
    order.
    """
    path = np.concatenate(path)
    order = np.argsort(path, kind="stable")
    counts = np.bincount(path, minlength=len(x0))
    return PathBatch(x0=x0, offsets=np.concatenate([[0], np.cumsum(counts)]),
                     times=np.concatenate(times)[order],
                     states=np.concatenate(states)[order],
                     n_states=n_states, seed=seed)


def _path_blocks(seed, n_paths: int) -> list:
    """(size, generator) per block of PATH_BLOCK paths, the last one short;
    block b draws from child b of SeedSequence(seed)."""
    if n_paths < 1:
        raise DegenerateInputError("need at least one path", reason="empty_request")
    children = _seeded(seed, np.random.SeedSequence).spawn(-(-n_paths // PATH_BLOCK))
    return [(min(PATH_BLOCK, n_paths - b * PATH_BLOCK), np.random.default_rng(c))
            for b, c in enumerate(children)]


def sample_paths_R(model: ReversibleModel, n_paths: int, seed,
                   x0: int | None = None) -> PathBatch:
    """Independent reference paths, one generator per block of PATH_BLOCK.

    With x0=None each path starts from a state drawn from m (stationary
    start); a fixed x0 pins the initial state. Block b draws from child b of
    SeedSequence(seed); its starts come first, then its Gillespie rounds.
    """
    cum_m = np.cumsum(model.m)
    blocks = []
    for size, rng in _path_blocks(seed, n_paths):
        if x0 is None:
            starts = np.minimum(np.searchsorted(cum_m, rng.random(size),
                                                side="right"), model.n - 1)
        else:
            starts = np.full(size, x0)
        blocks.append(sample_path_R(model, starts, rng))
    return PathBatch(
        x0=np.concatenate([b.x0 for b in blocks]),
        offsets=np.cumsum(np.concatenate([[0], *(np.diff(b.offsets)
                                                 for b in blocks)])),
        times=np.concatenate([b.times for b in blocks]),
        states=np.concatenate([b.states for b in blocks]),
        n_states=model.n, seed=seed)


def empirical_marginal(paths: PathBatch, t: float) -> np.ndarray:
    """Frequency of state occupancy at time t (right-continuous evaluation)."""
    if not len(paths):
        raise DegenerateInputError("empty path batch", reason="empty_paths")
    if not 0.0 <= t <= 1.0:
        raise ModelValidationError("time must lie in [0,1]", reason="bad_time")
    counts = np.bincount(paths.state_at(t), minlength=paths.n_states)
    return counts / len(paths)
