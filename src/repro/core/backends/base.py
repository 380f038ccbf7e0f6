"""The flip-loop backend protocol.

The ensemble engine's innermost layer — the round loop (per-round active
set from the run's budgets), one round's scalar control plane
(termination/sampler filtering, blocked RNG draws, clock updates, candidate
gathers), the fused gather-classify-scatter window kernel, and the coded-op
membership updates on :class:`~repro.utils.indexset.BatchedIndexSet`
storage — is pluggable.  A :class:`FlipLoopBackend` implements exactly those
operations over the engine's batched arrays; everything above them
(seeding, argument checks, trajectories, the public result surface) is
shared, so backends can only differ in *how* rounds execute, never in what
a round means.

The contract is bitwise: every backend must consume the pre-drawn
:class:`~repro.rng.BlockedReplicaStreams` words in exactly the order of
:meth:`~repro.rng.BlockedReplicaStreams.draw` and produce bit-identical
spins, clocks, counters and sampler layouts — the same guarantee the
per-replica scalar :class:`~repro.core.dynamics.GlauberDynamics` runs pin
for the engine itself.  The cross-backend suites (``tests/test_backends.py``,
``tests/test_run_rounds_matrix.py``) enforce it for every backend the host
can run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.ensemble import EnsembleDynamics
    from repro.utils.indexset import BatchedIndexSet


class FlipLoopBackend:
    """One execution strategy for the engine's per-round hot path.

    Lifecycle: the registry constructs backends unattached (so capability
    probes and the standalone :meth:`apply_coded_ops` entry point need no
    engine), then :meth:`attach` binds one to a live
    :class:`~repro.core.ensemble.EnsembleDynamics` whose batched arrays it
    will mutate in place.  A backend instance serves exactly one engine.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def attach(self, engine: "EnsembleDynamics") -> None:
        """Bind this backend to ``engine``'s runtime arrays."""
        self.engine = engine

    def step_round(self, candidates: np.ndarray) -> np.ndarray:
        """Advance every candidate replica by one scheduler step.

        Per listed replica: termination and sampler checks, the blocked RNG
        draws (waiting time under the continuous scheduler, then the Lemire
        candidate), clock/step updates, the member gather and the
        discrete-scheduler flip gate.  Then the fused window update for
        every replica that flips: gather the flip's neighbourhood window,
        update the incremental same-type counts, reclassify via the engine's
        code LUT, maintain the deferred energy/magnetization counters, and
        stream the membership deltas into the samplers as coded operations.
        Returns the array of replica indices that flipped.
        """
        raise NotImplementedError

    def run_rounds(
        self,
        start_flips: np.ndarray,
        start_steps: np.ndarray,
        max_flips: int,
        max_steps: int,
        max_time: float,
        record_every: int,
    ) -> int:
        """Run lockstep rounds until the run ends or a sample is due.

        Each round's active set is every replica that is not terminated,
        whose flips and steps since ``start_flips``/``start_steps`` are below
        ``max_flips``/``max_steps`` and whose clock is below ``max_time``
        (the engine passes concrete budgets: ``2**63 - 1`` and ``inf`` mean
        none).  Returns the number of rounds run: fewer than a positive
        ``record_every`` means no replica was left active; exactly
        ``record_every`` means a trajectory sample is due before the next
        call.  ``record_every == 0`` runs until no replica is active.

        This default is the host loop over :meth:`step_round`; the kernel
        backends run the same loop natively and surface to the host only
        for RNG events.
        """
        engine = self.engine
        rounds = 0
        while record_every == 0 or rounds < record_every:
            active = engine._termination_counts() != 0
            active &= (engine._n_flips - start_flips) < max_flips
            active &= (np.asarray(engine._n_steps) - start_steps) < max_steps
            active &= np.asarray(engine._times) < max_time
            candidates = np.flatnonzero(active)
            if candidates.size == 0:
                break
            self.step_round(candidates)
            rounds += 1
        return rounds

    def apply_coded_ops(
        self,
        sets: "BatchedIndexSet",
        rows: Sequence[int],
        indices: Sequence[int],
        toggled: Sequence[int],
        members: Sequence[int],
        row_offset: int,
    ) -> None:
        """Apply one coded membership-op stream to ``sets``, strictly in order.

        Semantics are exactly
        :meth:`~repro.utils.indexset.BatchedIndexSet.apply_coded_ops` — bit 0
        of ``toggled[k]`` updates row ``rows[k]``, bit 1 updates row
        ``rows[k] + row_offset``, bit 0 before bit 1, ``k`` order preserved.
        Engine-independent so the edge-case suite can drive every backend's
        membership loop against the scalar oracle directly.
        """
        raise NotImplementedError
