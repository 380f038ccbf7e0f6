"""Wrapper turning the single-source kernels into a full backend.

:class:`KernelLoopBackend` owns everything a kernel cannot do itself: the
one-time capture of the engine's flat arrays (refreshed when the engine
rebuilds its runtime tables — tracked by ``engine._runtime_generation``),
the scratch buffers, and the slow-path event loop around
:func:`~repro.core.backends.kernels.step_round_kernel` and the native round
loop built by :func:`~repro.core.backends.kernels.make_run_rounds_kernel`.
The kernels handle every fast path; on a block refill or a ziggurat slow
path they return a status code and this wrapper services the event through
:class:`~repro.rng.BlockedReplicaStreams`' own methods (the same ones the
numpy backend calls), then resumes the kernel at the exact phase it left —
so the rare paths are *shared* with the reference, not reimplemented.

:class:`PythonKernelBackend` runs the kernels interpreted.  It is far
slower than the numpy backend (its value is that it executes the exact
code ``numba`` compiles, so the kernel logic is testable on hosts without
numba) and is therefore never chosen by ``auto`` selection.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.backends import kernels
from repro.core.backends.base import FlipLoopBackend
from repro.errors import StateError
from repro.types import FlipRule, SchedulerKind
from repro.utils.indexset import BatchedIndexSet


class KernelLoopBackend(FlipLoopBackend):
    """Backend driving the three flip-loop kernels over captured arrays.

    Subclasses plug in an execution engine two ways: kernel-dialect
    implementations (interpreted or njit) override :meth:`_get_kernels`;
    foreign implementations (the C backend) override the narrower
    ``_invoke_step`` / ``_invoke_run`` / ``_invoke_flips`` / ``_invoke_ops``
    call seam and keep the slow-path event loop — the part that must stay
    bit-for-bit shared — in this one class.
    """

    name = "kernel"

    def _get_kernels(self) -> tuple[Callable, Callable, Callable, Callable]:
        """Return ``(step_round, apply_flips, coded_ops, run_rounds)``."""
        raise NotImplementedError

    def attach(self, engine) -> None:
        super().attach(engine)
        (
            self._step_kernel,
            self._flips_kernel,
            self._ops_kernel,
            self._run_kernel,
        ) = self._get_kernels()
        r = engine.n_replicas
        area = engine._window_area
        self._out_reps = np.empty(r, dtype=np.int64)
        self._out_flats = np.empty(r, dtype=np.int64)
        self._event = np.empty(3, dtype=np.int64)
        #: Native round loop state: the round's active set, the resume
        #: tuple ``(in_round, n_cand, index, phase, n_out, rounds)`` and the
        #: run's per-replica start counters.
        self._cand = np.empty(r, dtype=np.int64)
        self._resume = np.zeros(6, dtype=np.int64)
        self._start_flips = np.zeros(r, dtype=np.int64)
        self._start_steps = np.zeros(r, dtype=np.int64)
        self._win_buf = np.empty(area, dtype=np.int64)
        self._spin_buf = np.empty(area, dtype=np.int8)
        self._same_buf = np.empty(area, dtype=np.int64)
        self._old_code_buf = np.empty(area, dtype=np.int8)
        self._new_code_buf = np.empty(area, dtype=np.int8)
        self._op_rows = np.empty(r * area, dtype=np.int64)
        self._op_indices = np.empty(r * area, dtype=np.int64)
        self._op_toggled = np.empty(r * area, dtype=np.int64)
        self._op_members = np.empty(r * area, dtype=np.int64)
        only_if_happy = engine.flip_rule is FlipRule.ONLY_IF_HAPPY
        self._continuous = engine.scheduler is SchedulerKind.CONTINUOUS
        self._discrete_gate = only_if_happy and not self._continuous
        self._term_offset = r if only_if_happy else 0
        self._sampler_offset = r if (only_if_happy and self._continuous) else 0
        self._captured_generation = -1
        self._capture()

    def _capture(self) -> None:
        """(Re)bind the flat array views the kernels consume.

        Most of the engine's buffers are allocated once and mutated in
        place, but ``recompute_all`` rebuilds the classification LUT, so the
        capture re-runs whenever the engine bumps its runtime generation.
        """
        engine = self.engine
        streams = engine._streams
        self._members_flat, self._positions_flat, self._counts = (
            engine._sets.storage()
        )
        self._words_flat = streams._words.reshape(-1)
        self._pos = streams._pos
        self._has32 = streams._has32
        self._buf32 = streams._buf32
        self._ke = streams._ke
        self._we = streams._we
        if engine._code_lut is None:  # pragma: no cover - no shipped rule
            raise StateError(
                "compiled flip-loop backends require an elementwise "
                "classification rule (code LUT); this variant must use the "
                "numpy backend"
            )
        # Contiguous copy: recompute_all rebinds the LUT, and compiled
        # kernels want one stable 2-row table either way.
        self._code_lut2 = np.ascontiguousarray(engine._code_lut, dtype=np.int8)
        if engine._window_lut is not None:
            self._full_lut = 1
            self._window_lut_flat = engine._window_lut.reshape(-1)
            self._row_lut_flat = np.zeros(1, dtype=np.int64)
            self._col_lut_flat = np.zeros(1, dtype=np.int64)
        else:
            self._full_lut = 0
            self._window_lut_flat = np.zeros(1, dtype=np.int32)
            self._row_lut_flat = engine._row_lut.reshape(-1)
            self._col_lut_flat = engine._col_lut.reshape(-1)
        self._window_side = 2 * engine.config.horizon + 1
        self._captured_generation = engine._runtime_generation
        self._run_args = (
            self._cand,
            self._resume,
            engine._n_flips,
            self._start_flips,
            self._start_steps,
            engine.n_replicas,
            self._counts,
            self._members_flat,
            self._positions_flat,
            engine._times,
            engine._n_steps,
            engine._code_flat,
            self._words_flat,
            self._pos,
            self._has32,
            self._buf32,
            self._ke,
            self._we,
            streams.block_words,
            engine._n_sites,
            self._term_offset,
            self._sampler_offset,
            1 if self._continuous else 0,
            1 if self._discrete_gate else 0,
            self._out_reps,
            self._out_flats,
            self._event,
            engine._spins_flat,
            engine._same_flat,
            self._full_lut,
            self._window_lut_flat,
            self._row_lut_flat,
            self._col_lut_flat,
            engine.config.n_cols,
            self._window_side,
            engine._window_area,
            engine._center_col,
            engine.config.neighborhood_agents,
            self._code_lut2,
            engine._energies,
            engine._n_plus,
            self._win_buf,
            self._spin_buf,
            self._same_buf,
            self._old_code_buf,
            self._new_code_buf,
            self._op_rows,
            self._op_indices,
            self._op_toggled,
            self._op_members,
        )

    def _refresh(self) -> None:
        if self._captured_generation != self.engine._runtime_generation:
            self._capture()

    def _invoke_step(
        self, cand: np.ndarray, index: int, phase: int, collected: int
    ) -> int:
        """Run the step kernel over captured arrays; return its status."""
        engine = self.engine
        return self._step_kernel(
            cand,
            cand.size,
            index,
            phase,
            collected,
            self._counts,
            self._members_flat,
            engine._times,
            engine._n_steps,
            engine._code_flat,
            self._words_flat,
            self._pos,
            self._has32,
            self._buf32,
            self._ke,
            self._we,
            engine._streams.block_words,
            engine._n_sites,
            self._term_offset,
            self._sampler_offset,
            1 if self._continuous else 0,
            1 if self._discrete_gate else 0,
            self._out_reps,
            self._out_flats,
            self._event,
        )

    def _service_event(self, status: int) -> int:
        """Service one step-kernel RNG event; return the phase to resume at.

        A ziggurat slow path consumed its word and bailed before the clock
        update: replay the draw bitwise and apply the update the way the
        reference loop does, then resume at the candidate draw.  The sampler
        size is unchanged — flips land only after the whole round's draws.
        A block refill resumes where the draw found the block empty.
        """
        engine = self.engine
        streams = engine._streams
        replica = int(self._event[0])
        if status == kernels.STATUS_ZIGGURAT_SLOW:
            wait = streams._replay_exponential(replica)
            size = int(self._counts[replica + self._sampler_offset])
            engine._times[replica] += (1.0 / size) * wait
            engine._n_steps[replica] += 1
            return kernels.PHASE_CANDIDATE
        streams._refill_until_ready(replica)
        if status == kernels.STATUS_REFILL_START:
            return kernels.PHASE_START
        return kernels.PHASE_CANDIDATE

    def step_round(self, candidates: np.ndarray) -> np.ndarray:
        self._refresh()
        engine = self.engine
        cand = np.ascontiguousarray(candidates, dtype=np.int64)
        event = self._event
        index = 0
        phase = kernels.PHASE_START
        collected = 0
        while True:
            status = self._invoke_step(cand, index, phase, collected)
            if status == kernels.STATUS_DONE:
                collected = int(event[2])
                break
            index = int(event[1])
            collected = int(event[2])
            phase = self._service_event(status)
        if collected == 0:
            return np.empty(0, dtype=np.int64)
        reps = self._out_reps[:collected].copy()
        flats = self._out_flats[:collected]
        self._apply_flips_captured(reps, flats)
        engine._n_flips[reps] += 1
        return reps

    def run_rounds(
        self,
        start_flips: np.ndarray,
        start_steps: np.ndarray,
        max_flips: int,
        max_steps: int,
        max_time: float,
        record_every: int,
    ) -> int:
        """The round loop runs natively; the host only services RNG events."""
        self._refresh()
        engine = self.engine
        self._start_flips[:] = start_flips
        self._start_steps[:] = start_steps
        resume = self._resume
        resume[:] = 0
        track = 1 if engine._track_counters else 0
        while True:
            status = self._invoke_run(
                max_flips, max_steps, max_time, record_every, track
            )
            if status == kernels.STATUS_DONE:
                break
            resume[3] = self._service_event(status)
        rounds = int(resume[5])
        if rounds and not track:
            engine._counters_stale = True
        return rounds

    def _invoke_run(
        self,
        max_flips: int,
        max_steps: int,
        max_time: float,
        record_every: int,
        track: int,
    ) -> int:
        """Run the round-loop kernel over captured arrays; return its status."""
        return self._run_kernel(
            max_flips, max_steps, max_time, record_every, track, *self._run_args
        )

    def _invoke_flips(self, reps: np.ndarray, flats: np.ndarray) -> int:
        """Run the window-update kernel; return the streamed op count."""
        engine = self.engine
        return self._flips_kernel(
            reps,
            flats,
            reps.size,
            engine._spins_flat,
            engine._same_flat,
            engine._code_flat,
            self._full_lut,
            self._window_lut_flat,
            self._row_lut_flat,
            self._col_lut_flat,
            engine.config.n_cols,
            self._window_side,
            engine._window_area,
            engine._center_col,
            engine.config.neighborhood_agents,
            self._code_lut2,
            engine._energies,
            engine._n_plus,
            1 if engine._track_counters else 0,
            self._win_buf,
            self._spin_buf,
            self._same_buf,
            self._old_code_buf,
            self._new_code_buf,
            self._op_rows,
            self._op_indices,
            self._op_toggled,
            self._op_members,
            engine._n_sites,
        )

    def _invoke_ops(self, n_ops: int) -> None:
        """Apply the first ``n_ops`` streamed coded ops to the samplers."""
        engine = self.engine
        self._ops_kernel(
            self._op_rows,
            self._op_indices,
            self._op_toggled,
            self._op_members,
            n_ops,
            self._members_flat,
            self._positions_flat,
            self._counts,
            engine._n_sites,
            engine.n_replicas,
        )

    def _apply_flips_captured(self, reps: np.ndarray, flats: np.ndarray) -> None:
        engine = self.engine
        n_ops = self._invoke_flips(reps, flats)
        if not engine._track_counters:
            engine._counters_stale = True
        if n_ops:
            self._invoke_ops(n_ops)

    def apply_coded_ops(
        self,
        sets: BatchedIndexSet,
        rows: Sequence[int],
        indices: Sequence[int],
        toggled: Sequence[int],
        members: Sequence[int],
        row_offset: int,
    ) -> None:
        ops_kernel = self._get_kernels()[2]
        members_flat, positions_flat, counts = sets.storage()
        ops_kernel(
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(toggled, dtype=np.int64),
            np.ascontiguousarray(members, dtype=np.int64),
            len(rows),
            members_flat,
            positions_flat,
            counts,
            sets.capacity,
            row_offset,
        )


class PythonKernelBackend(KernelLoopBackend):
    """The kernels run interpreted — slow, universal, and numba's oracle."""

    name = "python"

    def _get_kernels(self) -> tuple[Callable, Callable, Callable, Callable]:
        return (
            kernels.step_round_kernel,
            kernels.apply_flips_kernel,
            kernels.coded_ops_kernel,
            kernels.run_rounds_kernel,
        )
