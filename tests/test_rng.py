"""Tests for the random number generator plumbing."""

import os

import numpy as np
import pytest

from repro.rng import (
    choice_without_replacement,
    ensure_distinct,
    make_rng,
    replicate_seeds,
    spawn_rngs,
)


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(7).integers(0, 1000, size=5)
        b = make_rng(7).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(42)
        rng = make_rng(sequence)
        assert isinstance(rng, np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(0, 2)
        a = children[0].integers(0, 10**9, size=8)
        b = children[1].integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        a = [rng.integers(0, 10**9) for rng in spawn_rngs(3, 4)]
        b = [rng.integers(0, 10**9) for rng in spawn_rngs(3, 4)]
        assert a == b

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(1)
        children = spawn_rngs(parent, 3)
        assert len(children) == 3


class TestReplicateSeeds:
    def test_distinct_and_deterministic(self):
        seeds = replicate_seeds(11, 10)
        assert len(seeds) == 10
        assert len(set(seeds)) == 10
        assert seeds == replicate_seeds(11, 10)

    def test_ensure_distinct_passes(self):
        ensure_distinct([1, 2, 3])

    def test_ensure_distinct_raises(self):
        with pytest.raises(ValueError):
            ensure_distinct([1, 2, 2])


class TestChoiceWithoutReplacement:
    def test_distinct_sample(self, rng):
        sample = choice_without_replacement(rng, range(100), 20)
        assert len(sample) == 20
        assert len(set(sample.tolist())) == 20

    def test_too_large_request_rejected(self, rng):
        with pytest.raises(ValueError):
            choice_without_replacement(rng, range(5), 6)


class TestZigguratTables:
    def test_tables_verify_against_live_draws(self):
        from repro.rng import _verify_ziggurat_tables, ziggurat_exponential_tables

        tables = ziggurat_exponential_tables()
        assert tables[0].shape == (256,)
        assert tables[1].shape == (256,)
        assert _verify_ziggurat_tables(tables)

    def test_corrupted_tables_fail_verification(self):
        from repro.rng import _verify_ziggurat_tables, ziggurat_exponential_tables

        we, ke = ziggurat_exponential_tables()
        corrupted = (we.copy(), ke.copy())
        corrupted[1][:] = 0  # force everything onto the (wrong) slow path
        assert not _verify_ziggurat_tables(corrupted)


class TestZigguratCacheFile:
    """Every untrusted or unreadable cache file is a miss that recalibrates."""

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        """Point the cache at ``tmp_path`` and count recalibrations."""
        import repro.rng as rng_module

        path = tmp_path / "zig.npz"
        calibrations = []
        calibrate = rng_module._calibrate_ziggurat_tables

        def counting_calibrate():
            calibrations.append(1)
            return calibrate()

        monkeypatch.setattr(rng_module, "_ziggurat_cache_path", lambda: path)
        monkeypatch.setattr(
            rng_module, "_calibrate_ziggurat_tables", counting_calibrate
        )
        monkeypatch.setattr(rng_module, "_ZIGGURAT_TABLES", None)

        def load():
            monkeypatch.setattr(rng_module, "_ZIGGURAT_TABLES", None)
            tables = rng_module.ziggurat_exponential_tables()
            assert rng_module._verify_ziggurat_tables(tables)
            return tables

        return path, calibrations, load

    def test_private_cache_file_is_loaded(self, cache):
        path, calibrations, load = cache
        load()
        assert calibrations == [1] and path.is_file()
        load()
        assert calibrations == [1]  # second load hit the file

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_damaged_file_recalibrates_and_is_rewritten(self, cache, damage):
        path, calibrations, load = cache
        load()
        data = path.read_bytes()
        # A truncated zip raises zipfile.BadZipFile, an empty file EOFError.
        path.write_bytes(data[: len(data) // 2] if damage == "truncated" else b"")
        load()
        assert calibrations == [1, 1]
        load()  # the rewritten file is whole again
        assert calibrations == [1, 1]

    def test_symlinked_file_is_ignored(self, cache, tmp_path):
        path, calibrations, load = cache
        load()
        target = tmp_path / "planted.npz"
        path.rename(target)
        path.symlink_to(target)
        load()
        assert calibrations == [1, 1]
        assert not path.is_symlink()  # replaced by a private regular file

    def test_group_writable_file_is_ignored(self, cache):
        path, calibrations, load = cache
        load()
        path.chmod(0o664)
        load()
        assert calibrations == [1, 1]

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX ownership")
    def test_file_owned_by_another_user_is_ignored(self, cache, monkeypatch):
        import repro.rng as rng_module

        path, calibrations, load = cache
        load()
        owner = path.stat().st_uid
        monkeypatch.setattr(rng_module.os, "getuid", lambda: owner + 1)
        load()
        assert calibrations == [1, 1]

    def test_failed_write_leaves_no_temp_file(self, cache, monkeypatch, tmp_path):
        import repro.rng as rng_module

        path, calibrations, load = cache

        def refuse(src, dst):
            raise OSError("read-only cache directory")

        monkeypatch.setattr(rng_module.os, "replace", refuse)
        load()
        assert calibrations == [1]
        assert list(tmp_path.iterdir()) == []


class TestPcg64StateAfter:
    def test_matches_bit_generator_advance(self):
        from repro.rng import pcg64_state_after

        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        expected = np.random.Generator(np.random.PCG64())
        expected.bit_generator.state = state
        expected.bit_generator.advance(123)
        advanced = pcg64_state_after(
            state["state"]["state"], state["state"]["inc"], 123
        )
        assert advanced == expected.bit_generator.state["state"]["state"]


def _interleaved_reference(seeds, script):
    """Replay a step script through per-replica scalar Generator calls."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    out = []
    for replica, high, exponential in script:
        wait = rngs[replica].standard_exponential() if exponential else 0.0
        out.append((wait, int(rngs[replica].integers(0, high))))
    return out


class TestBlockedReplicaStreams:
    """The blocked streams must replicate scalar Generator draws bitwise."""

    SEEDS = [101, 202, 303]

    def _script(self, n_steps=400, seed=0, highs=None):
        """Steps ``(replica, high, exponential)`` over interleaved replicas.

        ``high == 1`` steps (about 1 in 8 by default) check that a
        single-member sampler consumes no candidate words."""
        rng = np.random.default_rng(seed)
        script = []
        for _ in range(n_steps):
            replica = int(rng.integers(0, len(self.SEEDS)))
            if highs is not None:
                high = int(highs[int(rng.integers(0, len(highs)))])
            elif rng.random() < 0.125:
                high = 1
            else:
                high = int(rng.integers(2, 50_000))
            script.append((replica, high, bool(rng.random() < 0.6)))
        return script

    def _streams(self, block_words):
        from repro.rng import BlockedReplicaStreams

        return BlockedReplicaStreams(
            [np.random.default_rng(seed) for seed in self.SEEDS],
            block_words=block_words,
        )

    @pytest.mark.parametrize("block_words", [1, 2, 3, 64, 4096])
    def test_bitwise_equal_to_scalar_draws(self, block_words):
        """Boundary block sizes: one-word blocks force a refill per draw,
        larger ones exercise exact exhaustion and mid-block hand-offs."""
        streams = self._streams(block_words)
        script = self._script()
        expected = _interleaved_reference(self.SEEDS, script)
        for step, (replica, high, exponential) in enumerate(script):
            got = streams.draw(replica, high, exponential)
            assert got == expected[step], (block_words, step)

    @pytest.mark.parametrize("block_words", [1, 2, 3, 4096])
    @pytest.mark.parametrize("high", [2**31 + 1, 3 * 2**30])
    def test_lemire_rejection_matches_live_integers(self, block_words, high):
        """Highs with large Lemire rejection odds (~50% for ``2**31 + 1``,
        25% for ``3 * 2**30``) drive the rejection loop on most steps; the
        candidates and the words it consumes must stay numpy's own."""
        streams = self._streams(block_words)
        next32 = streams._next32_scalar
        calls = []

        def counting_next32(replica):
            calls.append(replica)
            return next32(replica)

        streams._next32_scalar = counting_next32
        script = self._script(n_steps=300, seed=4, highs=[high])
        expected = _interleaved_reference(self.SEEDS, script)
        for step, (replica, step_high, exponential) in enumerate(script):
            got = streams.draw(replica, step_high, exponential)
            assert got == expected[step], (block_words, high, step)
        # Every step draws one candidate; the surplus is rejected candidates.
        assert len(calls) - len(script) > len(script) // 8

    def test_exact_exhaustion_boundary(self):
        """A block consumed exactly to its end refills with zero overrun."""
        from repro.rng import BlockedReplicaStreams

        streams = BlockedReplicaStreams(
            [np.random.default_rng(1)], block_words=4
        )
        reference = np.random.default_rng(1)
        # high=2**32 would leave the 32-bit path; large highs below it
        # consume exactly one 32-bit half-word per draw -> 8 draws per block.
        for _ in range(16):
            got = streams.draw(0, 2**31, False)[1]
            assert got == int(reference.integers(0, 2**31))
        assert streams._pos[0] in (0, 4) or streams._pos[0] < 4

    def test_high_of_one_consumes_nothing(self):
        from repro.rng import BlockedReplicaStreams

        streams = BlockedReplicaStreams([np.random.default_rng(3)])
        reference = np.random.default_rng(3)
        assert streams.draw(0, 1, False) == (0.0, 0)
        # The next draw still matches the scalar stream: integers(0, 1)
        # consumed no words there either.
        assert int(reference.integers(0, 1)) == 0
        assert streams.draw(0, 1000, False)[1] == int(
            reference.integers(0, 1000)
        )

    def test_rejects_non_pcg64_generators(self):
        from repro.rng import BlockedReplicaStreams

        bad = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError):
            BlockedReplicaStreams([bad])

    def test_rejects_bad_block_words(self):
        from repro.rng import BlockedReplicaStreams

        with pytest.raises(ValueError):
            BlockedReplicaStreams([np.random.default_rng(0)], block_words=0)
        with pytest.raises(ValueError):
            BlockedReplicaStreams([])
