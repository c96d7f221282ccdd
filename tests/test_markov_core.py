"""Reversible jump-chain construction, exact transition matrices, sampling."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import path_batch, ring_kernel, two_state_model
from htlab.errors import (DegenerateInputError, HTLabError,
                          ModelValidationError)
from htlab.markov_core import (JumpKernel, PathBatch, StateSpace, TimeGrid,
                               build_metropolis, build_reversible_model,
                               check_irreducibility,
                               detailed_balance_violation, empirical_marginal,
                               _search_rows, sample_path_R, sample_paths_R,
                               transition_matrix)


def balance_gap(model) -> float:
    return detailed_balance_violation(model.J.rates, model.m)


def test_metropolis_two_state_example():
    """Tilting by U = (0, log 2) halves one rate and quadruples the mass ratio."""
    model = two_state_model()
    np.testing.assert_allclose(model.J.rates, [[0.0, 0.5], [2.0, 0.0]],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(model.m, [0.8, 0.2], rtol=0, atol=1e-15)


def test_metropolis_zero_potential_is_identity():
    space = StateSpace(("a", "b", "c"))
    J0 = ring_kernel(3, 0.7)
    m0 = np.array([2.0, 2.0, 2.0])
    model = build_metropolis(space, J0, m0, np.zeros(3))
    np.testing.assert_array_equal(model.J.rates, J0.rates)
    np.testing.assert_allclose(model.m, m0 / m0.sum(), atol=1e-15)


def test_metropolis_preserves_detailed_balance_on_ring():
    space = StateSpace(("a", "b", "c"))
    model = build_metropolis(space, ring_kernel(3), np.full(3, 1 / 3),
                             np.array([0.4, -1.1, 2.3]))
    assert balance_gap(model) <= 1e-14


def test_metropolis_rejects_unbalanced_base():
    space = StateSpace(("a", "b"))
    J0 = JumpKernel(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ModelValidationError) as err:
        build_metropolis(space, J0, np.array([0.5, 0.5]), np.zeros(2))
    assert err.value.reason == "detailed_balance_violation"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metropolis_rejects_nonfinite_potential(bad):
    """A NaN or infinite U is named as a bad potential before the tilt is
    formed, not as non-finite rates."""
    space = StateSpace(("a", "b", "c"))
    with pytest.raises(ModelValidationError) as err:
        build_metropolis(space, ring_kernel(3), np.full(3, 1 / 3),
                         np.array([bad, 0.3, -0.2]))
    assert err.value.reason == "bad_potential"


def test_metropolis_rejects_reducible_base():
    space = StateSpace(("a", "b"))
    rates = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(HTLabError):
        # the one-way kernel dies earlier (absorbing row) or at irreducibility
        build_metropolis(space, JumpKernel(rates), np.full(2, 0.5), np.zeros(2))


def test_disjoint_cycles_are_not_irreducible():
    """Two symmetric 2-cycles pass every check except irreducibility."""
    space = StateSpace(("a", "b", "c", "d"))
    rates = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 2.0, 0.0]])
    m0 = np.full(4, 0.25)
    with pytest.raises(ModelValidationError) as err:
        build_metropolis(space, JumpKernel(rates), m0,
                         np.array([0.0, 0.3, -0.2, 0.1]))
    assert err.value.reason == "not_irreducible"
    with pytest.raises(ModelValidationError) as err:
        build_reversible_model(space, JumpKernel(rates), m0)
    assert err.value.reason == "not_irreducible"


def test_detailed_balance_violation_examples():
    """Hand values: the tilted model balances, a lopsided kernel misses by 0.5."""
    assert balance_gap(two_state_model()) <= 1e-14
    sym = JumpKernel(ring_kernel(3).rates)
    model = build_reversible_model(StateSpace(("a", "b", "c")), sym,
                                   np.full(3, 1 / 3))
    assert balance_gap(model) == 0.0
    viol = detailed_balance_violation(np.array([[0.0, 1.0], [2.0, 0.0]]),
                                      np.array([0.5, 0.5]))
    assert viol == pytest.approx(0.5, abs=1e-15)


def test_irreducibility():
    two_way = np.array([[0.0, 1.0], [3.0, 0.0]])
    one_way = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert check_irreducibility(JumpKernel(two_way))
    assert not check_irreducibility(one_way)
    directed_ring = np.zeros((4, 4))
    for i in range(4):
        directed_ring[i, (i + 1) % 4] = 1.0
    assert check_irreducibility(directed_ring)


def _digraphs(rng):
    """Random digraphs near the connectivity threshold, directed cycles, a
    cycle cut into a one-way chain, and two disjoint cycles joined by no
    edge, one one-way edge, or edges both ways."""
    for n in range(2, 61):
        for c in (0.5, 1.0, 2.0):
            yield rng.random((n, n)) < min(1.0, c * np.log(n) / n)
        order = rng.permutation(n)
        cycle = np.zeros((n, n), dtype=bool)
        cycle[order, np.roll(order, -1)] = True
        yield cycle
        chain = cycle.copy()
        chain[order[-1], order[0]] = False
        yield chain
        if n >= 4:
            k = int(rng.integers(2, n - 1))
            a, b = order[:k], order[k:]
            pair = np.zeros((n, n), dtype=bool)
            pair[a, np.roll(a, -1)] = True
            pair[b, np.roll(b, -1)] = True
            yield pair.copy()
            pair[a[0], b[0]] = True
            yield pair.copy()
            pair[b[-1], a[-1]] = True
            yield pair


def test_irreducibility_matches_strong_components():
    """Two-way reachability from state 0 agrees with scipy's csgraph."""
    rng = np.random.default_rng(17)
    verdicts = []
    for edges in _digraphs(rng):
        rates = np.where(edges, rng.uniform(0.1, 2.0, edges.shape), 0.0)
        np.fill_diagonal(rates, 0.0)
        n_comp, _ = connected_components(csr_matrix(rates > 0), directed=True,
                                         connection="strong")
        verdicts.append(check_irreducibility(rates))
        assert verdicts[-1] == (n_comp == 1)
    assert any(verdicts) and not all(verdicts)


def test_generator_apply():
    model = two_state_model()
    np.testing.assert_allclose(model.Q @ np.ones(2), 0.0, atol=1e-15)
    np.testing.assert_allclose(model.Q @ np.array([0.0, 1.0]),
                               [0.5, -2.0], atol=1e-15)
    u = np.array([0.3, -1.7])
    assert abs(model.m @ (model.Q @ u)) <= 1e-14


def test_model_invariants():
    model = two_state_model()
    np.testing.assert_allclose(model.Q.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(model.m @ model.Q, 0.0, atol=1e-12)


def test_transition_matrix_closed_form():
    """2-state transition matrix from the spectral decomposition, rate 2.5."""
    model = two_state_model()
    np.testing.assert_array_equal(transition_matrix(model, 0.0), np.eye(2))
    for t in (0.1, 0.5, 1.3):
        decay = np.exp(-2.5 * t)
        expected = np.array([[0.8 + 0.2 * decay, 0.2 - 0.2 * decay],
                             [0.8 - 0.8 * decay, 0.2 + 0.8 * decay]])
        np.testing.assert_allclose(transition_matrix(model, t), expected,
                                   atol=1e-13)
    long_run = transition_matrix(model, 50.0)
    np.testing.assert_allclose(long_run, np.tile(model.m, (2, 1)), atol=1e-12)


def test_transition_matrix_is_stochastic_and_nonnegative():
    model = two_state_model()
    for t in (0.01, 0.3, 2.0):
        T = transition_matrix(model, t)
        assert np.all(T >= 0.0)
        np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ModelValidationError):
        transition_matrix(model, -0.1)


def test_chapman_kolmogorov():
    model = two_state_model()
    for s in np.arange(0.1, 1.0, 0.2):
        for t in np.arange(0.1, 1.0, 0.2):
            gap = np.abs(transition_matrix(model, s + t)
                         - transition_matrix(model, s) @ transition_matrix(model, t))
            assert gap.max() <= 1e-10


def test_generator_matches_transition_finite_difference():
    """(e^{Qh}u - u)/h - Qu shrinks linearly in h."""
    model = two_state_model()
    u = np.array([0.2, -1.0])
    Qu = model.Q @ u

    def defect(h):
        return np.max(np.abs((transition_matrix(model, h) @ u - u) / h - Qu))

    d1, d2 = defect(1e-2), defect(5e-3)
    assert d2 <= 0.6 * d1


def test_sampler_stationarity():
    """Paths started from m keep it: empirical marginal within 3 binomial sigma."""
    model = two_state_model()
    n_paths = 100_000
    paths = sample_paths_R(model, n_paths, seed=11)
    emp = empirical_marginal(paths, 1.0)
    sigma = np.sqrt(model.m * (1.0 - model.m) / n_paths)
    np.testing.assert_array_less(np.abs(emp - model.m), 3.0 * sigma)


def test_sampler_matches_transition_law():
    """Short-horizon occupancy from a fixed start against the analytic row."""
    model = two_state_model()
    n_paths, h = 100_000, 0.35
    paths = sample_paths_R(model, n_paths, seed=5, x0=0)
    emp = empirical_marginal(paths, h)
    row = transition_matrix(model, h)[0]
    sigma = np.sqrt(row * (1.0 - row) / n_paths)
    np.testing.assert_array_less(np.abs(emp - row), 3.0 * sigma)


def test_sampler_determinism():
    model = two_state_model()
    a = sample_path_R(model, 0, seed=123)
    b = sample_path_R(model, 0, seed=123)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.states, b.states)
    assert a.x0 == b.x0


def test_empirical_marginal_edge_cases():
    model = two_state_model()
    lone = sample_path_R(model, 1, seed=7)
    at0 = empirical_marginal(lone, 0.0)
    np.testing.assert_array_equal(at0, [0.0, 1.0])
    with pytest.raises(DegenerateInputError):
        empirical_marginal(path_batch([]), 0.5)
    with pytest.raises(ModelValidationError):
        empirical_marginal(lone, 1.5)


def test_empirical_marginal_matches_per_path_states():
    """The vectorized marginal reads each path as its view does, including
    paths with no jump, at a jump time and past the last jump."""
    paths = path_batch([(0, [0.2, 0.5], [1, 2]), (1, [], []), (2, [0.5], [0]),
                        (1, [0.1, 0.3, 0.9], [0, 1, 2])], n_states=3)
    for t in (0.0, 0.1, 0.2, 0.4, 0.5, 0.95, 1.0):
        states = [p.state_at(t) for p in paths]
        np.testing.assert_array_equal(paths.state_at(t), states)
        np.testing.assert_array_equal(empirical_marginal(paths, t),
                                      np.bincount(states, minlength=3) / 4)


def test_path_sample_right_continuity():
    [path] = path_batch([(0, [0.5], [1])])
    assert path.state_at(0.49) == 0
    assert path.state_at(0.5) == 1
    segs = path.segments()
    assert segs == [(0.0, 0.5, 0), (0.5, 1.0, 1)]


def test_path_sample_validation():
    with pytest.raises(ModelValidationError):
        path_batch([(0, [0.6, 0.4], [1, 0])])
    with pytest.raises(ModelValidationError):
        path_batch([(0, [0.4], [0])])


@pytest.mark.parametrize("bad, reason", [
    ((1, [0.3, 0.3], [0, 1]), "bad_jump_times"),
    ((1, [0.5, 0.4], [0, 1]), "bad_jump_times"),
    ((1, [0.0], [0]), "bad_jump_times"),
    ((1, [1.0], [0]), "bad_jump_times"),
    ((1, [np.nan], [0]), "bad_jump_times"),
    ((1, [0.3], [1]), "fake_jump"),
    ((1, [0.3], [3]), "bad_path"),
], ids=["repeated_time", "decreasing_time", "time_0", "time_1", "nan_time",
        "repeated_state", "state_out_of_range"])
def test_path_batch_rejects_bad_path_after_boundary(bad, reason):
    """A bad path that follows valid ones is caught at its first jump.

    The valid paths end at a late time in a state other than the bad path's
    x0 and first state, so a check that ran across path boundaries without
    reading offsets would flag the valid batch and miss the bad one.
    """
    good = [(0, [0.2, 0.9], [1, 2]), (2, [], []), (1, [0.95], [0])]
    batch = path_batch(good + [(0, [0.1], [2])], n_states=3)
    assert len(batch) == 4
    with pytest.raises(ModelValidationError) as info:
        path_batch(good + [bad], n_states=3)
    assert info.value.reason == reason


def test_path_batch_rejects_malformed_offsets():
    ok = dict(x0=np.array([0, 1]), times=np.array([0.5]),
              states=np.array([1]), n_states=2)
    for offsets in ([0, 1], [0, 1, 2], [1, 1, 1], [0, 2, 1]):
        with pytest.raises(ModelValidationError) as info:
            PathBatch(offsets=np.array(offsets), **ok)
        assert info.value.reason == "bad_path"
    with pytest.raises(ModelValidationError) as info:
        PathBatch(**{**ok, "states": np.array([1.0])},
                  offsets=np.array([0, 1, 1]))
    assert info.value.reason == "bad_path"


def test_path_views_are_read_only():
    batch = path_batch([(0, [0.5], [1]), (1, [], [])])
    view = batch[-1]
    assert (view.x0, view.times.size, view.seed) == (1, 0, (None, 1))
    with pytest.raises(ValueError):
        batch[0].times[0] = 0.1
    with pytest.raises(AttributeError):
        view.x0 = 0
    with pytest.raises(IndexError):
        batch[2]


def test_row_search_matches_searchsorted():
    """The vectorized binary search the samplers use for cell and destination
    lookup agrees with np.searchsorted(side="right") row by row, on flat
    stretches, exact hits and values outside the row."""
    rng = np.random.default_rng(0)
    for m in (1, 2, 5, 8, 201):
        A = np.cumsum(rng.integers(0, 3, size=(6, m)), axis=1).astype(float)
        rows = rng.integers(0, 6, size=400)
        v = np.concatenate([A[rows[:200], rng.integers(0, m, size=200)],
                            rng.uniform(-1.0, A.max() + 1.0, size=200)])
        expected = [np.searchsorted(A[r], x, side="right")
                    for r, x in zip(rows, v)]
        np.testing.assert_array_equal(_search_rows(A, rows, v), expected)


def test_state_space_validation():
    with pytest.raises(ModelValidationError):
        StateSpace(("only",))
    with pytest.raises(ModelValidationError):
        StateSpace(("a", "a"))
    space = StateSpace(("a", "b"))
    assert space.index("b") == 1
    with pytest.raises(ModelValidationError):
        space.index("zz")


def test_jump_kernel_validation():
    with pytest.raises(ModelValidationError):
        JumpKernel(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ModelValidationError):
        JumpKernel(np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateInputError):
        JumpKernel(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_reversible_model_validation():
    from htlab.markov_core import ReversibleModel

    space = StateSpace(("a", "b"))
    J = JumpKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ModelValidationError):
        build_reversible_model(space, J, np.array([1.0, -0.5]))
    with pytest.raises(ModelValidationError):
        ReversibleModel(space=space, J=J, m=np.array([0.5, 0.6]))


def test_time_grid():
    grid = TimeGrid(10)
    assert grid.dt == 0.1
    assert grid.node_index(0.3) == 3
    for t in (0.25, np.nan, np.inf, -np.inf, 1e308):
        with pytest.raises(ModelValidationError, match="not a node") as err:
            grid.node_index(t)
        assert err.value.reason == "off_grid_time"
    with pytest.raises(ModelValidationError):
        TimeGrid(1)
