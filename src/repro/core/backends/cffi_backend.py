"""Ahead-of-time C flip-loop backend (``cffi`` ABI mode + the system cc).

The container this project targets ships a C toolchain but not numba, so
the compiled-backend acceptance bar is carried by a small C translation
unit that mirrors :mod:`repro.core.backends.kernels` statement for
statement (same draw order, same IEEE-754 double expressions, no
``-ffast-math``).  At first use the source is compiled with the system C
compiler into a shared object cached under a per-user temp directory keyed
by the source hash — so the compile cost is paid once per machine, not per
process — and loaded through ``cffi``'s ABI-mode ``dlopen``.

The hot-call overhead problem (a round at R=8 lasts microseconds; marshaling
~30 array arguments through cffi per call would swamp the kernel) is solved
twice over.  A pointer-capture struct: :class:`CffiBackend` fills a
``repro_state`` struct with raw pointers into the engine's arrays — the
round loop's candidate buffer and resume state included — once per runtime
generation, and each call passes that single struct pointer.  And the round
loop itself runs in C (``repro_run_rounds``), so a run crosses into Python
only for RNG events and trajectory samples, never per round.  The struct is
rebuilt by the :class:`~repro.core.backends.kernel_backend.KernelLoopBackend`
capture hook whenever the engine bumps ``_runtime_generation``, which is
what makes holding raw pointers safe.

The library cache directory is a trust boundary: ``dlopen`` runs library
constructors before ``repro_selfcheck()`` can, so a cache directory
another account could write into disables the backend (see
:func:`cffi_unavailable_reason`) instead of being loaded from.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.backends.kernel_backend import KernelLoopBackend
from repro.utils.indexset import BatchedIndexSet

_CDEF = """
typedef struct {
    int64_t *counts;
    int64_t *members;
    int64_t *positions;
    double *times;
    int64_t *steps;
    int8_t *code;
    uint64_t *words;
    int64_t *pos;
    uint8_t *has32;
    uint64_t *buf32;
    uint64_t *ke;
    double *we;
    int64_t block;
    int64_t n_sites;
    int64_t n_replicas;
    int64_t term_offset;
    int64_t sampler_offset;
    int64_t continuous;
    int64_t discrete_gate;
    int64_t *out_reps;
    int64_t *out_flats;
    int64_t *event;
    int8_t *spins;
    int64_t *same;
    int64_t full_lut;
    int32_t *window_lut;
    int64_t *row_lut;
    int64_t *col_lut;
    int64_t n_cols;
    int64_t window_side;
    int64_t window_area;
    int64_t center_col;
    int64_t total;
    int8_t *code_lut;
    int64_t lut_stride;
    int64_t *energies;
    int64_t *n_plus;
    int64_t *win_buf;
    int8_t *spin_buf;
    int64_t *same_buf;
    int8_t *old_code_buf;
    int8_t *new_code_buf;
    int64_t *op_rows;
    int64_t *op_indices;
    int64_t *op_toggled;
    int64_t *op_members;
    int64_t *flip_counts;
    int64_t *start_flips;
    int64_t *start_steps;
    int64_t *cand;
    int64_t *resume;
} repro_state;

int64_t repro_step_round(repro_state *st, const int64_t *candidates,
                         int64_t n_candidates, int64_t start, int64_t phase,
                         int64_t n_out);
int64_t repro_apply_flips(repro_state *st, const int64_t *reps,
                          const int64_t *flats, int64_t n_flips,
                          int64_t track);
void repro_coded_ops(const int64_t *rows, const int64_t *indices,
                     const int64_t *toggled, const int64_t *member_codes,
                     int64_t n_ops, int64_t *members, int64_t *positions,
                     int64_t *counts, int64_t capacity, int64_t row_offset);
int64_t repro_run_rounds(repro_state *st, int64_t max_flips,
                         int64_t max_steps, double max_time,
                         int64_t record_every, int64_t track);
int64_t repro_selfcheck(void);
"""

# The C mirror of kernels.py.  Any change here must change kernels.py too
# (and vice versa) — the cross-backend bitwise suite is the enforcement.
_SOURCE = (
    "#include <stdint.h>\n"
    + _CDEF
    + r"""
#define STATUS_DONE 0
#define STATUS_REFILL_START 1
#define STATUS_ZIGGURAT_SLOW 2
#define STATUS_REFILL_CANDIDATE 3
#define PHASE_START 0

int64_t repro_step_round(repro_state *st, const int64_t *candidates,
                         int64_t n_candidates, int64_t start, int64_t phase,
                         int64_t n_out)
{
    int64_t i = start;
    while (i < n_candidates) {
        int64_t replica = candidates[i];
        if (st->counts[replica + st->term_offset] == 0) {
            i += 1;
            phase = PHASE_START;
            continue;
        }
        int64_t sampler_row = replica + st->sampler_offset;
        int64_t size = st->counts[sampler_row];
        if (size == 0) {
            i += 1;
            phase = PHASE_START;
            continue;
        }
        int64_t word_base = replica * st->block;
        if (phase == PHASE_START) {
            /* Waiting time first (continuous scheduler), then candidate. */
            if (st->continuous != 0) {
                int64_t position = st->pos[replica];
                if (position >= st->block) {
                    st->event[0] = replica;
                    st->event[1] = i;
                    st->event[2] = n_out;
                    return STATUS_REFILL_START;
                }
                uint64_t word = st->words[word_base + position];
                st->pos[replica] = position + 1;
                uint64_t significand = word >> 11;
                uint64_t layer = (word >> 3) & 0xFFu;
                double wait;
                if (significand < st->ke[layer]) {
                    wait = (double)significand * st->we[layer];
                } else {
                    st->event[0] = replica;
                    st->event[1] = i;
                    st->event[2] = n_out;
                    return STATUS_ZIGGURAT_SLOW;
                }
                st->times[replica] += (1.0 / (double)size) * wait;
            } else {
                st->times[replica] += 1.0;
            }
            st->steps[replica] += 1;
        }
        phase = PHASE_START;
        int64_t draw;
        if (size > 1) {
            uint64_t usize = (uint64_t)size;
            uint64_t scaled = 0;
            uint64_t threshold = 0;
            int threshold_ready = 0;
            for (;;) {
                uint64_t cand32;
                if (st->has32[replica]) {
                    cand32 = st->buf32[replica];
                    st->has32[replica] = 0;
                } else {
                    int64_t position = st->pos[replica];
                    if (position >= st->block) {
                        st->event[0] = replica;
                        st->event[1] = i;
                        st->event[2] = n_out;
                        return STATUS_REFILL_CANDIDATE;
                    }
                    uint64_t word = st->words[word_base + position];
                    st->pos[replica] = position + 1;
                    cand32 = word & 0xFFFFFFFFULL;
                    st->buf32[replica] = word >> 32;
                    st->has32[replica] = 1;
                }
                scaled = cand32 * usize;
                uint64_t leftover = scaled & 0xFFFFFFFFULL;
                if (!threshold_ready) {
                    if (leftover >= usize)
                        break;
                    threshold = (0x100000000ULL - usize) % usize;
                    threshold_ready = 1;
                }
                if (leftover >= threshold)
                    break;
            }
            draw = (int64_t)(scaled >> 32);
        } else {
            draw = 0;
        }
        int64_t flat = st->members[sampler_row * st->n_sites + draw];
        if (st->discrete_gate != 0
            && (st->code[replica * st->n_sites + flat] & 2) == 0) {
            /* Discrete scheduler samples unhappy agents; may refuse. */
            i += 1;
            continue;
        }
        st->out_reps[n_out] = replica;
        st->out_flats[n_out] = flat;
        n_out += 1;
        i += 1;
    }
    st->event[0] = -1;
    st->event[1] = n_candidates;
    st->event[2] = n_out;
    return STATUS_DONE;
}

int64_t repro_apply_flips(repro_state *st, const int64_t *reps,
                          const int64_t *flats, int64_t n_flips,
                          int64_t track)
{
    int64_t n_ops = 0;
    for (int64_t k = 0; k < n_flips; k++) {
        int64_t rep = reps[k];
        int64_t flat = flats[k];
        int64_t base = rep * st->n_sites;
        int64_t center = base + flat;
        int8_t new_value = (int8_t)(-st->spins[center]);
        st->spins[center] = new_value;
        if (st->full_lut != 0) {
            int64_t wbase = flat * st->window_area;
            for (int64_t j = 0; j < st->window_area; j++)
                st->win_buf[j] = st->window_lut[wbase + j];
        } else {
            int64_t row = flat / st->n_cols;
            int64_t col = flat - row * st->n_cols;
            int64_t rbase = row * st->window_side;
            int64_t cbase = col * st->window_side;
            for (int64_t a = 0; a < st->window_side; a++) {
                int64_t roff = st->row_lut[rbase + a];
                int64_t abase = a * st->window_side;
                for (int64_t b = 0; b < st->window_side; b++)
                    st->win_buf[abase + b] = roff + st->col_lut[cbase + b];
            }
        }
        int64_t dv = (int64_t)new_value;
        int64_t spin_sum = 0;
        for (int64_t j = 0; j < st->window_area; j++) {
            int64_t g = base + st->win_buf[j];
            int8_t s = st->spins[g];
            st->spin_buf[j] = s;
            st->same_buf[j] = st->same[g];
            spin_sum += s;
        }
        int64_t old_center = st->same_buf[st->center_col];
        /* Incremental counters from the pre-update centre count. */
        if (track != 0) {
            st->energies[rep] += dv * spin_sum + st->total - 2 * old_center;
            st->n_plus[rep] += dv;
        }
        for (int64_t j = 0; j < st->window_area; j++)
            st->same_buf[j] = st->same_buf[j] + dv * st->spin_buf[j];
        st->same_buf[st->center_col] = st->total + 1 - old_center;
        for (int64_t j = 0; j < st->window_area; j++) {
            int64_t g = base + st->win_buf[j];
            st->same[g] = st->same_buf[j];
            int64_t spin_row = st->spin_buf[j] > 0 ? 1 : 0;
            int8_t new_code =
                st->code_lut[spin_row * st->lut_stride + st->same_buf[j]];
            st->new_code_buf[j] = new_code;
            st->old_code_buf[j] = st->code[g];
            st->code[g] = new_code;
        }
        for (int64_t j = 0; j < st->window_area; j++) {
            int8_t old_code = st->old_code_buf[j];
            int8_t new_code = st->new_code_buf[j];
            if (old_code == new_code)
                continue;
            st->op_rows[n_ops] = rep;
            st->op_indices[n_ops] = st->win_buf[j];
            st->op_toggled[n_ops] = old_code ^ new_code;
            st->op_members[n_ops] = new_code ^ 1;
            n_ops += 1;
        }
    }
    return n_ops;
}

void repro_coded_ops(const int64_t *rows, const int64_t *indices,
                     const int64_t *toggled, const int64_t *member_codes,
                     int64_t n_ops, int64_t *members, int64_t *positions,
                     int64_t *counts, int64_t capacity, int64_t row_offset)
{
    int64_t offset_base = row_offset * capacity;
    for (int64_t k = 0; k < n_ops; k++) {
        int64_t row = rows[k];
        int64_t index = indices[k];
        int64_t toggle = toggled[k];
        int64_t member = member_codes[k];
        int64_t base = row * capacity;
        if (toggle & 1) {
            int64_t target = base + index;
            int64_t position = positions[target];
            if (member & 1) {
                if (position < 0) {
                    int64_t count = counts[row];
                    members[base + count] = index;
                    positions[target] = count;
                    counts[row] = count + 1;
                }
            } else if (position >= 0) {
                int64_t count = counts[row] - 1;
                counts[row] = count;
                int64_t last = members[base + count];
                members[base + position] = last;
                positions[base + last] = position;
                positions[target] = -1;
            }
        }
        if (toggle & 2) {
            int64_t pair_row = row + row_offset;
            int64_t pair_base = base + offset_base;
            int64_t target = pair_base + index;
            int64_t position = positions[target];
            if (member & 2) {
                if (position < 0) {
                    int64_t count = counts[pair_row];
                    members[pair_base + count] = index;
                    positions[target] = count;
                    counts[pair_row] = count + 1;
                }
            } else if (position >= 0) {
                int64_t count = counts[pair_row] - 1;
                counts[pair_row] = count;
                int64_t last = members[pair_base + count];
                members[pair_base + position] = last;
                positions[pair_base + last] = position;
                positions[target] = -1;
            }
        }
    }
}

int64_t repro_run_rounds(repro_state *st, int64_t max_flips,
                         int64_t max_steps, double max_time,
                         int64_t record_every, int64_t track)
{
    int64_t *resume = st->resume;
    int64_t in_round = resume[0];
    int64_t n_cand = resume[1];
    int64_t index = resume[2];
    int64_t phase = resume[3];
    int64_t n_out = resume[4];
    int64_t rounds = resume[5];
    for (;;) {
        if (in_round == 0) {
            if (record_every > 0 && rounds >= record_every)
                break;
            n_cand = 0;
            for (int64_t replica = 0; replica < st->n_replicas; replica++) {
                if (st->counts[replica + st->term_offset] == 0)
                    continue;
                if (st->flip_counts[replica] - st->start_flips[replica]
                    >= max_flips)
                    continue;
                if (st->steps[replica] - st->start_steps[replica]
                    >= max_steps)
                    continue;
                if (!(st->times[replica] < max_time))
                    continue;
                st->cand[n_cand] = replica;
                n_cand += 1;
            }
            if (n_cand == 0)
                break;
            index = 0;
            phase = PHASE_START;
            n_out = 0;
            in_round = 1;
        }
        int64_t status =
            repro_step_round(st, st->cand, n_cand, index, phase, n_out);
        if (status != STATUS_DONE) {
            resume[0] = 1;
            resume[1] = n_cand;
            resume[2] = st->event[1];
            resume[4] = st->event[2];
            resume[5] = rounds;
            return status;
        }
        n_out = st->event[2];
        if (n_out > 0) {
            int64_t n_ops = repro_apply_flips(st, st->out_reps, st->out_flats,
                                              n_out, track);
            if (n_ops > 0)
                repro_coded_ops(st->op_rows, st->op_indices, st->op_toggled,
                                st->op_members, n_ops, st->members,
                                st->positions, st->counts, st->n_sites,
                                st->n_replicas);
            for (int64_t k = 0; k < n_out; k++)
                st->flip_counts[st->out_reps[k]] += 1;
        }
        rounds += 1;
        in_round = 0;
    }
    resume[0] = 0;
    resume[5] = rounds;
    return STATUS_DONE;
}

int64_t repro_selfcheck(void)
{
    /* Probe the double semantics the bitwise contract needs: exact
       uint64 -> double conversion below 2^53 (the ziggurat significand is
       53 bits) and a round-to-nearest reciprocal-scale product matching
       the IEEE value numpy computes for the same expression. */
    uint64_t big = ((uint64_t)1 << 53) - 1;
    if ((uint64_t)(double)big != big)
        return 1;
    double scale = 1.0 / (double)86;
    if (scale * 9007199254740991.0 != 0x1.7d05f417d05f3p+46)
        return 2;
    return 0;
}
"""
)

_CACHE: dict[str, object] = {}
_UNAVAILABLE_REASON: Optional[str] = None


def _find_compiler() -> Optional[str]:
    """Locate a C compiler, honouring ``CC`` then common names."""
    env_cc = os.environ.get("CC")
    if env_cc:
        found = shutil.which(env_cc)
        if found:
            return found
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


class UntrustedCacheError(RuntimeError):
    """The compiled-library cache directory could be written by others."""


def _check_cache_dir(cache_dir: str, uid: int) -> None:
    """Refuse a cache directory another account could have planted into.

    ``dlopen`` runs a library's constructors before any self-check can, so
    the directory the library is loaded from must be a real directory (not
    a symlink), owned by this user, and not writable by group or others.
    """
    info = os.lstat(cache_dir)
    if stat.S_ISLNK(info.st_mode):
        problem = "is a symlink"
    elif not stat.S_ISDIR(info.st_mode):
        problem = "is not a directory"
    elif info.st_uid != uid:
        problem = f"is owned by uid {info.st_uid}, not {uid}"
    elif info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        problem = f"is group/other-writable (mode {info.st_mode & 0o777:o})"
    else:
        return
    raise UntrustedCacheError(
        f"untrusted compiled-library cache: {cache_dir} {problem}"
    )


def _library_path() -> str:
    """Per-user cache path for the compiled shared object, hash-keyed.

    Raises :class:`UntrustedCacheError` when the cache directory fails
    :func:`_check_cache_dir`.
    """
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-posix
        uid = 0
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-cffi-{uid}"
    )
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    _check_cache_dir(cache_dir, uid)
    return os.path.join(cache_dir, f"libreproflip-{digest}.so")


def _load_library():
    """Compile (if needed) and dlopen the kernel library; memoized.

    Raises ``RuntimeError`` with the underlying reason on any failure; the
    availability probe converts that into a clean "not available".
    """
    if "lib" in _CACHE:
        return _CACHE["ffi"], _CACHE["lib"]
    # The trust check comes first: it fails closed whatever else is missing.
    so_path = _library_path()
    try:
        import cffi
    except ImportError as exc:  # pragma: no cover - cffi ships with image
        raise RuntimeError(f"cffi not importable: {exc}") from exc
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    if not os.path.exists(so_path):
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
        with tempfile.TemporaryDirectory(
            dir=os.path.dirname(so_path)
        ) as build_dir:
            c_path = os.path.join(build_dir, "reproflip.c")
            with open(c_path, "w", encoding="utf-8") as handle:
                handle.write(_SOURCE)
            tmp_so = os.path.join(build_dir, "libreproflip.so")
            proc = subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared", "-o", tmp_so, c_path],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"C compile failed ({compiler}): {proc.stderr.strip()[:500]}"
                )
            # Atomic publish so concurrent sweep workers race benignly.
            os.replace(tmp_so, so_path)
    lib = ffi.dlopen(so_path)
    check = lib.repro_selfcheck()
    if check != 0:
        raise RuntimeError(f"compiled kernel failed self-check ({check})")
    _CACHE["ffi"] = ffi
    _CACHE["lib"] = lib
    return ffi, lib


def cffi_available() -> bool:
    """True when the C backend can compile and load on this host (memoized)."""
    global _UNAVAILABLE_REASON
    if "lib" in _CACHE:
        return True
    if _UNAVAILABLE_REASON is not None:
        return False
    try:
        _load_library()
        return True
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        _UNAVAILABLE_REASON = str(exc)
        if isinstance(exc, UntrustedCacheError):
            # Not a capability gap but a refused trust check: say so once
            # (the probe is memoized) even when auto selection falls back.
            warnings.warn(
                f"cffi backend disabled: {exc}", RuntimeWarning, stacklevel=2
            )
        return False


def cffi_unavailable_reason() -> Optional[str]:
    """Why the C backend is unavailable, or ``None`` when it is usable."""
    cffi_available()
    return _UNAVAILABLE_REASON


class CffiBackend(KernelLoopBackend):
    """The flip-loop kernels as compiled C behind a pointer-capture struct."""

    name = "cffi"

    def _get_kernels(self) -> tuple[Callable, Callable, Callable, Callable]:
        """The C entry points replace the kernels; nothing to bind."""
        return (None, None, None, None)

    def _capture(self) -> None:
        super()._capture()
        ffi, lib = _load_library()
        self._ffi = ffi
        self._lib = lib
        engine = self.engine
        st = ffi.new("repro_state *")
        ptr = self._ptr
        st.counts = ptr("int64_t *", self._counts)
        st.members = ptr("int64_t *", self._members_flat)
        st.positions = ptr("int64_t *", self._positions_flat)
        st.times = ptr("double *", engine._times)
        st.steps = ptr("int64_t *", engine._n_steps)
        st.code = ptr("int8_t *", engine._code_flat)
        st.words = ptr("uint64_t *", self._words_flat)
        st.pos = ptr("int64_t *", self._pos)
        st.has32 = ptr("uint8_t *", self._has32)
        st.buf32 = ptr("uint64_t *", self._buf32)
        st.ke = ptr("uint64_t *", self._ke)
        st.we = ptr("double *", self._we)
        st.block = engine._streams.block_words
        st.n_sites = engine._n_sites
        st.n_replicas = engine.n_replicas
        st.term_offset = self._term_offset
        st.sampler_offset = self._sampler_offset
        st.continuous = 1 if self._continuous else 0
        st.discrete_gate = 1 if self._discrete_gate else 0
        st.out_reps = ptr("int64_t *", self._out_reps)
        st.out_flats = ptr("int64_t *", self._out_flats)
        st.event = ptr("int64_t *", self._event)
        st.spins = ptr("int8_t *", engine._spins_flat)
        st.same = ptr("int64_t *", engine._same_flat)
        st.full_lut = self._full_lut
        st.window_lut = ptr("int32_t *", self._window_lut_flat)
        st.row_lut = ptr("int64_t *", self._row_lut_flat)
        st.col_lut = ptr("int64_t *", self._col_lut_flat)
        st.n_cols = engine.config.n_cols
        st.window_side = self._window_side
        st.window_area = engine._window_area
        st.center_col = engine._center_col
        st.total = engine.config.neighborhood_agents
        st.code_lut = ptr("int8_t *", self._code_lut2)
        st.lut_stride = self._code_lut2.shape[1]
        st.energies = ptr("int64_t *", engine._energies)
        st.n_plus = ptr("int64_t *", engine._n_plus)
        st.win_buf = ptr("int64_t *", self._win_buf)
        st.spin_buf = ptr("int8_t *", self._spin_buf)
        st.same_buf = ptr("int64_t *", self._same_buf)
        st.old_code_buf = ptr("int8_t *", self._old_code_buf)
        st.new_code_buf = ptr("int8_t *", self._new_code_buf)
        st.op_rows = ptr("int64_t *", self._op_rows)
        st.op_indices = ptr("int64_t *", self._op_indices)
        st.op_toggled = ptr("int64_t *", self._op_toggled)
        st.op_members = ptr("int64_t *", self._op_members)
        st.flip_counts = ptr("int64_t *", engine._n_flips)
        st.start_flips = ptr("int64_t *", self._start_flips)
        st.start_steps = ptr("int64_t *", self._start_steps)
        st.cand = ptr("int64_t *", self._cand)
        st.resume = ptr("int64_t *", self._resume)
        self._state = st
        self._step_fn = lib.repro_step_round
        self._flips_fn = lib.repro_apply_flips
        self._run_fn = lib.repro_run_rounds

    def _ptr(self, ctype: str, array: np.ndarray):
        """Raw pointer into ``array``'s buffer (writable, zero-copy)."""
        return self._ffi.cast(ctype, self._ffi.from_buffer(array))

    def _invoke_step(
        self, cand: np.ndarray, index: int, phase: int, collected: int
    ) -> int:
        cand_ptr = self._ffi.cast(
            "const int64_t *", self._ffi.from_buffer(cand)
        )
        return self._step_fn(
            self._state, cand_ptr, cand.size, index, phase, collected
        )

    def _invoke_run(
        self,
        max_flips: int,
        max_steps: int,
        max_time: float,
        record_every: int,
        track: int,
    ) -> int:
        # Every array the loop touches is in the captured struct, so a call
        # marshals five scalars and no buffers.
        return self._run_fn(
            self._state, max_flips, max_steps, max_time, record_every, track
        )

    def _invoke_flips(self, reps: np.ndarray, flats: np.ndarray) -> int:
        ffi = self._ffi
        return self._flips_fn(
            self._state,
            ffi.cast("const int64_t *", ffi.from_buffer(reps)),
            ffi.cast("const int64_t *", ffi.from_buffer(flats)),
            reps.size,
            1 if self.engine._track_counters else 0,
        )

    def _invoke_ops(self, n_ops: int) -> None:
        ffi = self._ffi
        engine = self.engine
        self._lib.repro_coded_ops(
            self._state.op_rows,
            self._state.op_indices,
            self._state.op_toggled,
            self._state.op_members,
            n_ops,
            self._state.members,
            self._state.positions,
            self._state.counts,
            engine._n_sites,
            engine.n_replicas,
        )

    def apply_coded_ops(
        self,
        sets: BatchedIndexSet,
        rows: Sequence[int],
        indices: Sequence[int],
        toggled: Sequence[int],
        members: Sequence[int],
        row_offset: int,
    ) -> None:
        ffi, lib = _load_library()
        members_flat, positions_flat, counts = sets.storage()
        row_arr = np.ascontiguousarray(rows, dtype=np.int64)
        idx_arr = np.ascontiguousarray(indices, dtype=np.int64)
        tog_arr = np.ascontiguousarray(toggled, dtype=np.int64)
        mem_arr = np.ascontiguousarray(members, dtype=np.int64)
        lib.repro_coded_ops(
            ffi.cast("const int64_t *", ffi.from_buffer(row_arr)),
            ffi.cast("const int64_t *", ffi.from_buffer(idx_arr)),
            ffi.cast("const int64_t *", ffi.from_buffer(tog_arr)),
            ffi.cast("const int64_t *", ffi.from_buffer(mem_arr)),
            len(row_arr),
            ffi.cast("int64_t *", ffi.from_buffer(members_flat)),
            ffi.cast("int64_t *", ffi.from_buffer(positions_flat)),
            ffi.cast("int64_t *", ffi.from_buffer(counts)),
            sets.capacity,
            row_offset,
        )
