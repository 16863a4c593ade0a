"""Swarm iteration loop: scalar update rules, stepping semantics,
determinism and best-tracking invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FunctionObjective, repair_oracle
from vcbpso.engine import (
    Block,
    RunConfig,
    SwarmState,
    WSchedule,
    init_swarm,
    run,
    run_block,
    step_swarm,
    w_at,
)
from vcbpso.errors import ConfigError
from vcbpso.knapsack import KnapsackObjective, generate
from vcbpso.transfer import CORRECTION_CLAMP, TransferKind, correct, sigm


def update_velocity(v, x, pbest_bit, gbest_bit, w, c1, c2, r1, r2):
    """Single-entry velocity update; the swarm loop applies the same
    arithmetic vectorized."""
    return (w * v + c1 * r1 * (float(pbest_bit) - float(x))
            + c2 * r2 * (float(gbest_bit) - float(x)))


def clamp_velocity(v, vmax):
    if vmax is None:
        return v
    return min(max(v, -vmax), vmax)


def decide_jump(kind: TransferKind, v: float, r: float) -> bool:
    """True means the bit flips (x <- 1 - x)."""
    return r < sigm(kind, v)


def count_ones(d):
    return FunctionObjective(lambda bits: float(bits.sum()), d)


def constant_zero(d):
    return FunctionObjective(lambda bits: 0.0, d)


def make_config(**kw):
    base = dict(
        kind=TransferKind.VT2,
        correction_enabled=True,
        w=WSchedule(1.0, 1.0),
        vmax=None,
        c1=2.0,
        c2=2.0,
        swarm_size=4,
        dimensions=8,
        max_iterations=10,
        seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


class QueueRng:
    """Deterministic stand-in for a numpy Generator: returns pre-seeded
    blocks in draw order."""

    def __init__(self, blocks):
        self._blocks = list(blocks)

    def random(self, shape=None, out=None):
        block = np.asarray(self._blocks.pop(0), dtype=np.float64)
        if out is None:
            assert block.shape == tuple(shape)
            return block
        assert shape is None and block.shape == out.shape
        out[...] = block
        return out


class TestWSchedule:
    def test_parse_constant(self):
        assert WSchedule.parse("0.6") == WSchedule(0.6, 0.6)

    def test_parse_ramp(self):
        assert WSchedule.parse("1.2-0.99") == WSchedule(1.2, 0.99)

    def test_parse_garbage(self):
        for text in ("", "a", "1.0-2.0-3.0", "1.0--0.5"):
            with pytest.raises(ConfigError):
                WSchedule.parse(text)

    def test_nonpositive_endpoint(self):
        with pytest.raises(ConfigError):
            WSchedule(0.0, 0.4)

    def test_str_round_trip(self):
        for text in ("0.6", "1.2-0.99", "1", "1-0.4"):
            assert WSchedule.parse(str(WSchedule.parse(text))) == \
                WSchedule.parse(text)


class TestWAt:
    def test_constant(self):
        assert w_at(WSchedule(0.6, 0.6), 500, 1000) == 0.6

    def test_ramp_start(self):
        assert w_at(WSchedule(1.0, 0.4), 0, 1000) == 1.0

    def test_ramp_end(self):
        assert w_at(WSchedule(1.2, 0.99), 999, 1000) == pytest.approx(0.99)

    def test_ramp_needs_two_iterations(self):
        with pytest.raises(ConfigError):
            w_at(WSchedule(1.0, 0.4), 0, 1)

    def test_out_of_range_iteration(self):
        with pytest.raises(ValueError):
            w_at(WSchedule(1.0, 0.4), 1000, 1000)

    def test_monotone_between_endpoints(self):
        vals = [w_at(WSchedule(1.0, 0.4), k, 100) for k in range(100)]
        assert vals[0] == 1.0 and vals[-1] == pytest.approx(0.4)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestScalarOps:
    def test_update_velocity_pull_up(self):
        assert update_velocity(0, 0, 1, 1, 1, 2, 2, 0.5, 0.5) == 2.0

    def test_update_velocity_inertia_only(self):
        assert update_velocity(3, 1, 1, 1, 0.6, 2, 2, 0.77, 0.13) == \
            pytest.approx(1.8)

    def test_update_velocity_pull_down(self):
        assert update_velocity(-1, 1, 0, 0, 1, 2, 2, 1, 1) == -5.0

    def test_clamp(self):
        assert clamp_velocity(7, 5) == 5
        assert clamp_velocity(-7, 5) == -5
        assert clamp_velocity(7, None) == 7
        assert clamp_velocity(3, 5) == 3

    def test_decide_jump(self):
        assert decide_jump(TransferKind.VT2, 1.0, 0.3) is True
        assert decide_jump(TransferKind.VT2, 1.0, 0.7) is False
        for kind in TransferKind:
            assert decide_jump(kind, 0.0, 0.0) is False


class TestRunConfig:
    def test_correction_forbids_vmax(self):
        with pytest.raises(ConfigError):
            make_config(correction_enabled=True, vmax=5.0)

    def test_uncorrected_needs_vmax(self):
        with pytest.raises(ConfigError):
            make_config(correction_enabled=False, vmax=None)

    def test_negative_c_rejected(self):
        with pytest.raises(ConfigError):
            make_config(c1=-0.1)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            make_config(swarm_size=0)
        with pytest.raises(ConfigError):
            make_config(dimensions=0)
        with pytest.raises(ConfigError):
            make_config(max_iterations=-1)

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            make_config(seed=2**64)


class TestStepSwarm:
    def _state(self, positions, velocities, objective):
        positions = np.asarray(positions, dtype=np.uint8)
        fitness, stored = objective.evaluate_swarm(positions)
        best = int(np.argmax(fitness))
        return SwarmState(
            positions=positions,
            velocities=np.asarray(velocities, dtype=np.float64),
            pbest_positions=positions.copy(),
            pbest_fitness=fitness.astype(np.float64),
            gbest_position=positions[[best]],
            gbest_fitness=fitness[[best]].astype(np.float64),
        )

    def test_all_zero_velocities_noop(self):
        cfg = make_config(correction_enabled=False, vmax=5.0,
                          swarm_size=2, dimensions=3)
        obj = count_ones(3)
        state = self._state([[1, 0, 1], [0, 1, 0]], np.zeros((2, 3)), obj)
        rng = QueueRng([np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3))])
        state, flips = step_swarm(state, Block([cfg]), obj, [rng])
        assert np.array_equal(state.positions, [[1, 0, 1], [0, 1, 0]])
        assert np.array_equal(state.velocities, np.zeros((2, 3)))
        assert np.array_equal(flips, [0, 0])

    def test_flip_stores_corrected_velocity(self):
        # pbest == gbest == position, so the update leaves v = w*v = 2;
        # sigm(VT2, 2) = 0.8, the 0.1 draw flips, stored velocity is 1/2
        cfg = make_config(swarm_size=1, dimensions=1)
        obj = constant_zero(1)
        state = self._state([[1]], [[2.0]], obj)
        rng = QueueRng([[[0.3]], [[0.9]], [[0.1]]])
        state, flips = step_swarm(state, Block([cfg]), obj, [rng])
        assert state.positions[0, 0] == 0
        assert state.velocities[0, 0] == 0.5
        assert flips[0] == 1

    def test_oscillation_alternates_velocity(self):
        # constant objective and c1=c2=0: the velocity only ever passes
        # through correct(), so two steps restore it and the bit oscillates
        cfg = make_config(swarm_size=1, dimensions=1, c1=0.0, c2=0.0,
                          kind=TransferKind.VT3)
        obj = constant_zero(1)
        v0 = 1.5
        state = self._state([[0]], [[v0]], obj)
        seen_bits, seen_v = [], []
        for _ in range(4):
            rng = QueueRng([[[0.0]], [[0.0]], [[0.0]]])
            state, flips = step_swarm(state, Block([cfg]), obj, [rng])
            assert flips[0] == 1
            seen_bits.append(int(state.positions[0, 0]))
            seen_v.append(float(state.velocities[0, 0]))
        assert seen_bits == [1, 0, 1, 0]
        c = correct(TransferKind.VT3, v0)
        assert seen_v[0] == c
        assert seen_v[1] == pytest.approx(v0, rel=1e-12)
        assert seen_v[2] == pytest.approx(c, rel=1e-12)

    def test_uncorrected_keeps_velocity_after_flip(self):
        cfg = make_config(correction_enabled=False, vmax=5.0,
                          swarm_size=1, dimensions=1)
        obj = constant_zero(1)
        state = self._state([[1]], [[2.0]], obj)
        rng = QueueRng([[[0.3]], [[0.9]], [[0.1]]])
        state, _ = step_swarm(state, Block([cfg]), obj, [rng])
        assert state.positions[0, 0] == 0
        assert state.velocities[0, 0] == 2.0

    def test_vmax_clamp_applied(self):
        cfg = make_config(correction_enabled=False, vmax=5.0,
                          swarm_size=1, dimensions=1, w=WSchedule(4.0, 4.0))
        obj = constant_zero(1)
        state = self._state([[1]], [[2.0]], obj)  # w*v = 8, clamps to 5
        rng = QueueRng([[[0.0]], [[0.0]], [[0.99]]])
        state, _ = step_swarm(state, Block([cfg]), obj, [rng])
        assert state.velocities[0, 0] == 5.0

    @pytest.mark.parametrize("corrected", [True, False],
                             ids=["corrected", "uncorrected"])
    @pytest.mark.parametrize("kind", list(TransferKind), ids=lambda k: k.value)
    def test_shadow_replay_matches_engine(self, kind, corrected):
        """Independent reimplementation of three steps from the documented
        draw order, with the scalar repair, reproduces the engine's state
        exactly."""
        inst = generate("UCI", 40, 100, 0.3, 5)
        obj = KnapsackObjective(inst)
        vmax = None if corrected else 5.0
        cfg = make_config(kind=kind, correction_enabled=corrected, vmax=vmax,
                          c1=3.0, c2=3.0, swarm_size=5, dimensions=40,
                          seed=77, w=WSchedule(1.2, 0.4), max_iterations=3)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        block = Block([cfg])
        state = init_swarm(block, obj, [rng])

        shadow = np.random.Generator(np.random.PCG64(cfg.seed))
        x = (shadow.random((5, 40)) < 0.5).astype(np.uint8)
        v = np.zeros((5, 40))
        pb = np.array([repair_oracle(inst, row) for row in x])
        pf = (pb @ inst.profits).astype(np.float64)
        gb, gf = pb[pf.argmax()].copy(), pf.max()
        repairs = 0
        for k in range(cfg.max_iterations):
            w = w_at(cfg.w, k, cfg.max_iterations)
            r1 = shadow.random((5, 40))
            r2 = shadow.random((5, 40))
            xf = x.astype(np.float64)
            v = (w * v + cfg.c1 * r1 * (pb - xf)
                 + cfg.c2 * r2 * (gb[None, :] - xf))
            bound = CORRECTION_CLAMP if vmax is None else vmax
            v = np.clip(v, -bound, bound)
            r = shadow.random((5, 40))
            flips = r < sigm(kind, v)
            x = x ^ flips
            if corrected:
                v[flips] = correct(kind, v[flips])
            fixed = np.array([repair_oracle(inst, row) for row in x])
            repairs += int((fixed != x).any(axis=1).sum())
            fit = (fixed @ inst.profits).astype(np.float64)
            better = fit > pf
            pb[better], pf[better] = fixed[better], fit[better]
            if pf.max() > gf:
                gb, gf = pb[pf.argmax()].copy(), pf.max()

            state, flip_counts = step_swarm(state, block, obj, [rng])
            assert np.array_equal(state.positions, x)
            assert np.array_equal(state.velocities, v)
            assert np.array_equal(flip_counts, flips.sum(axis=1))
            assert np.array_equal(state.pbest_positions, pb)
            assert np.array_equal(state.pbest_fitness, pf)
            assert np.array_equal(state.gbest_position, [gb])
            assert np.array_equal(state.gbest_fitness, [gf])
        assert repairs > 0
        if not corrected:
            assert np.abs(state.velocities).max() == vmax  # the clip ran


class TestRun:
    def test_zero_iterations_single_record(self):
        trace = run(make_config(max_iterations=0), count_ones(8))
        assert trace.n_records == 1 and trace.iterations == 0

    def test_determinism(self):
        cfg = make_config(max_iterations=30, seed=42)
        a = run(cfg, count_ones(8))
        b = run(cfg, count_ones(8))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.gbest_fitness, b.gbest_fitness)
        assert np.array_equal(a.flip_counts, b.flip_counts)

    def test_different_seeds_differ(self):
        a = run(make_config(max_iterations=30, seed=1), count_ones(8))
        b = run(make_config(max_iterations=30, seed=2), count_ones(8))
        assert not np.array_equal(a.positions, b.positions)

    def test_count_ones_solved(self):
        cfg = make_config(dimensions=16, swarm_size=4, max_iterations=200,
                          seed=7)
        trace = run(cfg, count_ones(16))
        assert trace.gbest_fitness[-1] == 16.0

    def test_gbest_monotone(self):
        cfg = make_config(dimensions=32, max_iterations=100, seed=3)
        trace = run(cfg, count_ones(32))
        assert np.all(np.diff(trace.gbest_fitness) >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            run(make_config(dimensions=8), count_ones(9))

    def test_uncorrected_velocities_bounded(self):
        cfg = make_config(correction_enabled=False, vmax=5.0,
                          dimensions=16, max_iterations=50, seed=11)
        obj = count_ones(16)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        block = Block([cfg])
        state = init_swarm(block, obj, [rng])
        for _ in range(cfg.max_iterations):
            state, _ = step_swarm(state, block, obj, [rng])
            assert float(np.abs(state.velocities).max()) <= 5.0

    def test_pbest_monotone_and_consistent(self):
        cfg = make_config(dimensions=16, max_iterations=50, seed=5)
        obj = count_ones(16)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        block = Block([cfg])
        state = init_swarm(block, obj, [rng])
        prev = state.pbest_fitness.copy()
        for _ in range(cfg.max_iterations):
            state, _ = step_swarm(state, block, obj, [rng])
            assert np.all(state.pbest_fitness >= prev)
            recomputed = state.pbest_positions.sum(axis=1)
            assert np.array_equal(recomputed, state.pbest_fitness)
            assert np.array_equal(state.gbest_fitness,
                                  [state.pbest_fitness.max()])
            prev = state.pbest_fitness.copy()

    def test_flip_counts_match_position_deltas(self):
        cfg = make_config(dimensions=16, max_iterations=20, seed=9)
        trace = run(cfg, count_ones(16))
        for k in range(1, trace.n_records):
            delta = trace.position_bits(k) ^ trace.position_bits(k - 1)
            assert np.array_equal(delta.sum(axis=1), trace.flip_counts[k])


# Runs of every kind, corrected and not, with constant and ramped w and
# several vmax values, for the block tests.
BLOCK_VARIANTS = [
    (TransferKind.VT1, True, "1.0", None),
    (TransferKind.VT1, False, "0.6", 5.0),
    (TransferKind.VT2, True, "1.2-0.4", None),
    (TransferKind.VT2, False, "1.0-0.4", 3.0),
    (TransferKind.VT3, True, "1.2-0.99", None),
    (TransferKind.VT3, False, "0.9", 6.0),
    (TransferKind.VT4, True, "1.0-0.99", None),
    (TransferKind.VT4, False, "1.0-0.4", 4.0),
]


class TestRunBlock:
    @settings(max_examples=40, deadline=None)
    @given(order=st.permutations(range(len(BLOCK_VARIANTS))),
           extra=st.lists(st.integers(0, len(BLOCK_VARIANTS) - 1),
                          max_size=4),
           by_kind=st.booleans(),
           m=st.integers(1, 6), d=st.integers(1, 70),
           iterations=st.integers(2, 12), seed=st.integers(0, 2**32),
           s=st.sampled_from([0.1, 0.5, 0.9]))
    def test_block_replays_separate_runs(self, order, extra, by_kind, m, d,
                                         iterations, seed, s):
        """A block of mixed runs gives every run the trace of its own
        ``run`` call, bit for bit: gbest curve, flip counts and packed
        positions. Repeated variants and the harness's sort by kind put
        runs with equal settings next to each other."""
        picks = list(order) + extra
        if by_kind:
            picks.sort(key=lambda i: BLOCK_VARIANTS[i][0].value)
        configs = [
            make_config(kind=kind, correction_enabled=corrected,
                        w=WSchedule.parse(w), vmax=vmax, swarm_size=m,
                        dimensions=d, max_iterations=iterations,
                        seed=seed + r)
            for r, (kind, corrected, w, vmax) in enumerate(
                BLOCK_VARIANTS[i] for i in picks)]
        obj = KnapsackObjective(generate("UCI", d, 100, s, seed))
        block = run_block(configs, obj)
        bare = run_block(configs, obj, keep_positions=False)
        for config, got, lean in zip(configs, block, bare):
            want = run(config, obj)
            assert np.array_equal(got.gbest_fitness, want.gbest_fitness)
            assert np.array_equal(got.flip_counts, want.flip_counts)
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(lean.gbest_fitness, want.gbest_fitness)
            assert np.array_equal(lean.flip_counts, want.flip_counts)
            assert lean.positions is None and lean.swarm_size == m

    def test_runs_must_share_the_swarm_settings(self):
        for kw in (dict(swarm_size=5), dict(dimensions=9),
                   dict(max_iterations=11), dict(c1=1.0), dict(c2=1.0)):
            with pytest.raises(ConfigError, match="the runs of a block"):
                run_block([make_config(), make_config(**kw)], count_ones(8))
