"""Finite-state reversible Markov jump processes.

Construction of Metropolis-type reversible models and their generators, exact
transition matrices through uniformization, Gillespie path sampling, and
empirical marginals. States carry opaque labels; every numeric routine works
on dense integer indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from htlab.errors import DegenerateInputError, ModelValidationError

# Input acceptance tolerance for detailed balance, relative to the scale of
# the flux terms involved. Inputs are exact rationals or constructed, so a
# loose tolerance would only hide bugs.
DETAILED_BALANCE_RTOL = 1e-10

# Uniformization: Poisson series truncated once the tail mass drops below this.
_POISSON_TAIL = 1e-14


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

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ModelValidationError(f"unknown state label {label!r}",
                                       reason="unknown_label") from None


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
        """Map a time to its grid index, rejecting off-grid times."""
        k = int(round(t * self.N))
        if k < 0 or k > self.N or abs(k / self.N - t) > 1e-9:
            raise ModelValidationError(
                f"time {t} is not a node of the N={self.N} grid",
                reason="off_grid_time")
        return k


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class JumpKernel:
    """Matrix of jump rates J(x, y); diagonal identically zero."""

    rates: np.ndarray
    exit_rates: np.ndarray = field(init=False)

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
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "exit_rates", exit_rates)

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


@dataclass(frozen=True)
class PathSample:
    """Cadlag step path on [0,1]: initial state plus (jump time, destination).

    Right-continuous: evaluation at a jump time returns the post-jump state.
    """

    x0: int
    times: np.ndarray
    states: np.ndarray
    n_states: int
    seed: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=int)
        if t.shape != s.shape:
            raise ModelValidationError("times and states must align",
                                       reason="bad_path")
        if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0 or t[-1] >= 1):
            raise ModelValidationError("jump times must increase strictly in (0,1)",
                                       reason="bad_jump_times")
        full = np.concatenate([[self.x0], s])
        if np.any(full[1:] == full[:-1]):
            raise ModelValidationError("consecutive states must differ",
                                       reason="fake_jump")
        object.__setattr__(self, "times", _freeze(t))
        states = np.array(s, dtype=int)
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    def state_at(self, t: float) -> int:
        k = int(np.searchsorted(self.times, t, side="right"))
        return int(self.x0) if k == 0 else int(self.states[k - 1])

    def segments(self) -> list[tuple[float, float, int]]:
        """Constant-state pieces (start, end, state) covering [0,1]."""
        knots = np.concatenate([[0.0], self.times, [1.0]])
        occupied = np.concatenate([[self.x0], self.states])
        return [(float(knots[i]), float(knots[i + 1]), int(occupied[i]))
                for i in range(len(occupied))]


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


def sample_path_R(model: ReversibleModel, x0: int, seed,
                  seed_record: tuple | None = None) -> PathSample:
    """Gillespie sample of the reference chain on [0,1].

    Holding time in x is exponential with the exit rate of x; the jump
    destination is drawn proportionally to the rates out of x.
    """
    if not 0 <= x0 < model.n:
        raise ModelValidationError(f"invalid initial state {x0}",
                                   reason="unknown_state")
    rng = np.random.default_rng(seed)
    rates, exit_rates = model.J.rates, model.J.exit_rates
    x = int(x0)
    t = 0.0
    times: list[float] = []
    states: list[int] = []
    while True:
        t += rng.exponential(1.0 / exit_rates[x])
        if t >= 1.0:
            break
        u = rng.random() * exit_rates[x]
        x = int(min(np.searchsorted(np.cumsum(rates[x]), u, side="right"),
                    model.n - 1))
        times.append(t)
        states.append(x)
    if seed_record is None:
        seed_record = seed if isinstance(seed, tuple) else (seed,)
    return PathSample(x0=int(x0), times=np.array(times),
                      states=np.array(states, dtype=int),
                      n_states=model.n, seed=seed_record)


def sample_paths_R(model: ReversibleModel, n_paths: int, seed,
                   x0: int | None = None) -> list[PathSample]:
    """Independent paths from spawned seed streams.

    With x0=None each path starts from a state drawn from m (stationary
    start); a fixed x0 pins the initial state.
    """
    if n_paths < 1:
        raise DegenerateInputError("need at least one path", reason="empty_request")
    root = np.random.SeedSequence(seed)
    children = root.spawn(n_paths)
    paths = []
    cum_m = np.cumsum(model.m)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        if x0 is None:
            start = int(min(np.searchsorted(cum_m, rng.random(), side="right"),
                            model.n - 1))
        else:
            start = x0
        sub = child.spawn(1)[0]
        paths.append(sample_path_R(model, start, sub, seed_record=(seed, i)))
    return paths


def empirical_marginal(paths: list[PathSample], t: float) -> np.ndarray:
    """Frequency of state occupancy at time t (right-continuous evaluation)."""
    if not paths:
        raise DegenerateInputError("empty path list", reason="empty_paths")
    if not 0.0 <= t <= 1.0:
        raise ModelValidationError("time must lie in [0,1]", reason="bad_time")
    n = paths[0].n_states
    counts = np.zeros(n)
    for p in paths:
        counts[p.state_at(t)] += 1
    return counts / len(paths)
