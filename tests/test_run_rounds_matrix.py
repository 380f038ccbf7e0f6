"""One resume/budget matrix for the backends' round loop (``run_rounds``).

``EnsembleDynamics.run`` hands its whole round loop to the attached backend:
the kernel backends run it natively and return to the host only for RNG
events (block refills, ziggurat slow paths) and trajectory samples, then
resume at the exact phase they left.  This matrix pins that loop bitwise
against the numpy backend's host loop over every axis that changes where a
native run stops or resumes:

* backend — every available one (numba where installed);
* R ∈ {1, 8, 32, 33} — every backend has one round path at every R; 32/33
  stay because they are the replica counts of cffi's no-cliff rate gate
  (``bench_flip_loop.py``), so the gated sizes are also the pinned ones;
* ``rng_block_words`` ∈ {1, 7, 4096} — a one-word block makes nearly every
  draw an event;
* budgets — none, ``max_flips``, ``max_steps``, ``max_time``;
* trajectory — off, or sampled every 3 rounds.

Spins, clocks, flip/step counters, energies, sampler counts and layouts,
the run result and every trajectory series must be equal; at R = 33 each
replica must also match its scalar :class:`~repro.core.simulation.Simulation`
run, the model's oracle.
"""

import numpy as np
import pytest

from repro.core.backends.registry import available_backends
from repro.core.config import ModelConfig
from repro.core.ensemble import EnsembleDynamics
from repro.core.simulation import Simulation

CONFIG = ModelConfig.square(side=16, horizon=1, tau=0.45)
SEED = 7
BACKENDS = [name for name in available_backends() if name != "numpy"]
REPLICAS = (1, 8, 32, 33)
BLOCK_WORDS = (1, 7, 4096)
#: Mid-run budgets for this grid: runs to termination take ~90-140 flips
#: and reach clocks of ~4-22, so each budget stops some replicas early.
BUDGETS = {
    "none": {},
    "max_flips": {"max_flips": 40},
    "max_steps": {"max_steps": 60},
    "max_time": {"max_time": 6.0},
}
TRAJECTORY = {"off": {}, "every3": {"record_trajectory": True, "record_every": 3}}
TRAJECTORY_FIELDS = (
    "times",
    "n_flips",
    "n_unhappy",
    "n_flippable",
    "energy",
    "magnetization",
)

_reference_cache: dict = {}
_scalar_cache: dict = {}


def _run(backend, n_replicas, block_words, budget, trajectory):
    engine = EnsembleDynamics(
        CONFIG,
        n_replicas=n_replicas,
        seed=SEED,
        rng_block_words=block_words,
        backend=backend,
    )
    result = engine.run(**BUDGETS[budget], **TRAJECTORY[trajectory])
    assert engine.backend_name == backend
    return engine, result


def _snapshot(engine, result):
    """Everything a round loop could get wrong, as named arrays."""
    state = {
        "spins": engine.spins.copy(),
        "times": engine.times,
        "n_flips": engine.n_flips,
        "n_steps": engine.n_steps,
        "energies": engine.energies(),
        "unhappy": engine.unhappy_counts(),
        "flippable": engine.flippable_counts(),
        "result.terminated": result.terminated,
        "result.n_flips": result.n_flips,
        "result.n_steps": result.n_steps,
        "result.final_time": result.final_time,
    }
    for row in range(2 * engine.n_replicas):
        state[f"layout[{row}]"] = engine._sets.packed_members(row)
    if result.trajectory is not None:
        for field in TRAJECTORY_FIELDS:
            state[f"trajectory.{field}"] = getattr(result.trajectory, field)
    return state


def _reference(n_replicas, block_words, budget, trajectory):
    key = (n_replicas, block_words, budget, trajectory)
    if key not in _reference_cache:
        _reference_cache[key] = _snapshot(
            *_run("numpy", n_replicas, block_words, budget, trajectory)
        )
    return _reference_cache[key]


def _scalar(seed, budget):
    key = (seed, budget)
    if key not in _scalar_cache:
        _scalar_cache[key] = Simulation(CONFIG, seed=seed).run(**BUDGETS[budget])
    return _scalar_cache[key]


@pytest.mark.parametrize("trajectory", list(TRAJECTORY))
@pytest.mark.parametrize("budget", list(BUDGETS))
@pytest.mark.parametrize("block_words", BLOCK_WORDS)
@pytest.mark.parametrize("n_replicas", REPLICAS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_round_loop_matches_numpy(
    backend, n_replicas, block_words, budget, trajectory
):
    engine, result = _run(backend, n_replicas, block_words, budget, trajectory)
    expected = _reference(n_replicas, block_words, budget, trajectory)
    actual = _snapshot(engine, result)
    assert actual.keys() == expected.keys()
    for name, value in expected.items():
        np.testing.assert_array_equal(actual[name], value, err_msg=name)
    if n_replicas == 33:
        for replica, seed in enumerate(engine.replica_seeds):
            scalar = _scalar(seed, budget)
            np.testing.assert_array_equal(
                scalar.final_spins, result.final_spins[replica]
            )
            assert scalar.n_flips == result.n_flips[replica]
            assert scalar.n_steps == result.n_steps[replica]
            assert scalar.final_time == result.final_time[replica]
            assert scalar.terminated == bool(result.terminated[replica])


@pytest.mark.parametrize("budget", list(BUDGETS))
def test_numpy_round_loop_matches_scalar_oracle(budget):
    """The matrix's reference itself, pinned to scalar runs at R = 33."""
    engine, result = _run("numpy", 33, 4096, budget, "off")
    for replica, seed in enumerate(engine.replica_seeds):
        scalar = _scalar(seed, budget)
        np.testing.assert_array_equal(
            scalar.final_spins, result.final_spins[replica]
        )
        assert scalar.n_flips == result.n_flips[replica]
        assert scalar.n_steps == result.n_steps[replica]
        assert scalar.final_time == result.final_time[replica]


@pytest.mark.parametrize("backend", ["numpy"] + BACKENDS)
def test_budgets_stop_replicas_mid_run(backend):
    """The budgets bind: each stops a replica that termination would not."""
    for budget, limit in (("max_flips", 40), ("max_steps", 60)):
        _, result = _run(backend, 8, 4096, budget, "off")
        counts = result.n_flips if budget == "max_flips" else result.n_steps
        assert counts.max() == limit
        assert not result.all_terminated
    _, result = _run(backend, 8, 4096, "max_time", "off")
    assert not result.all_terminated
    assert (result.final_time[~result.terminated] >= 6.0).all()


def test_resumed_runs_continue_the_same_dynamics():
    """Budget-split runs on one engine equal one unsplit run, per backend."""
    for backend in ["numpy"] + BACKENDS:
        whole = EnsembleDynamics(
            CONFIG, n_replicas=8, seed=SEED, rng_block_words=7, backend=backend
        )
        whole.run()
        split = EnsembleDynamics(
            CONFIG, n_replicas=8, seed=SEED, rng_block_words=7, backend=backend
        )
        split.run(max_flips=10)
        split.run(max_steps=15, record_trajectory=True, record_every=2)
        split.run(max_time=5.0)
        split.run()
        np.testing.assert_array_equal(whole.spins, split.spins)
        np.testing.assert_array_equal(whole.times, split.times)
        np.testing.assert_array_equal(whole.n_steps, split.n_steps)
        np.testing.assert_array_equal(whole.energies(), split.energies())


@pytest.mark.parametrize("backend", ["numpy"] + BACKENDS)
def test_fractional_and_unbounded_budgets(backend):
    """A replica steps while ``count < budget``, for any real budget."""

    def final(**budget):
        engine = EnsembleDynamics(CONFIG, n_replicas=4, seed=SEED, backend=backend)
        result = engine.run(**budget)
        return result.n_steps, result.n_flips, engine.spins.copy()

    for got, want in (
        (final(max_steps=24.5), final(max_steps=25)),
        (final(max_flips=float("inf")), final()),
        (final(max_steps=10**30, max_time=float("inf")), final()),
        (final(max_steps=-3), final(max_steps=0)),
    ):
        for got_array, want_array in zip(got, want):
            np.testing.assert_array_equal(got_array, want_array)
