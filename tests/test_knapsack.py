"""Instance generation, exact solvers, repair and file IO."""

import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    brute_force_optimal,
    dp_full_oracle,
    evaluate,
    load_config,
    repair_oracle,
    traced,
)
from vcbpso import errors
from vcbpso.errors import ConfigError, ParseError, ResourceError
from vcbpso.knapsack import (
    FLOAT_EXACT_LIMIT,
    KnapsackInstance,
    KnapsackObjective,
    dp_need,
    dp_optimal,
    generate,
    load_instance,
    repair,
    save_instance,
)
from vcbpso.trace import open_text


def random_small_instance(rng):
    n = int(rng.integers(1, 21))
    kind = ["UCI", "WCI", "SCI"][int(rng.integers(0, 3))]
    r = int(rng.integers(1, 21)) * 10
    s = float(rng.uniform(0.2, 0.8))
    return generate(kind, n, r, s, int(rng.integers(0, 2**32)))


@st.composite
def instance_and_rows(draw, max_value=6):
    """A small instance and a (k, n) batch; values from 1..6 (the default)
    make ties in profit density common."""
    n = draw(st.integers(1, 12))
    values = st.lists(st.integers(1, max_value), min_size=n, max_size=n)
    weights, profits = draw(values), draw(values)
    capacity = draw(st.integers(0, sum(weights)))
    k = draw(st.integers(0, 6))
    bits = draw(st.lists(st.integers(0, 1), min_size=k * n, max_size=k * n))
    inst = KnapsackInstance(np.array(weights), np.array(profits), capacity)
    return inst, np.array(bits, dtype=np.uint8).reshape(k, n)


@st.composite
def dp_instances(draw):
    """Generated UCI/WCI/SCI instances at S = 0.05, 0.5 and 0.95, or free
    ones: items heavier than the capacity, c = 0 and every item fitting
    all occur, and profits from 2**29 up sum past 2**31 once four items
    fit, where the value row is int64."""
    if draw(st.booleans()):
        return generate(draw(st.sampled_from(["UCI", "WCI", "SCI"])),
                        draw(st.integers(1, 40)), draw(st.integers(1, 20)) * 10,
                        draw(st.sampled_from([0.05, 0.5, 0.95])),
                        draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    least, most = draw(st.sampled_from([(1, 60), (2**29, 2**30)]))
    weights = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    profits = draw(st.lists(st.integers(least, most), min_size=n,
                            max_size=n))
    capacity = draw(st.integers(0, sum(weights) + 10))
    return KnapsackInstance(np.array(weights), np.array(profits), capacity)


def guard_need(inst, selection=True) -> int:
    """The byte count the memory check of ``dp_optimal`` reports."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "MEMORY_LIMIT", 0)
        with pytest.raises(ResourceError) as exc:
            dp_optimal(inst, selection=selection)
    return int(re.search(r"needs (\d+) bytes", str(exc.value)).group(1))


def assert_matches_oracle(inst, rows):
    fixed = repair(inst, rows)
    assert fixed.dtype == np.uint8 and fixed.shape == rows.shape
    expected = np.array([repair_oracle(inst, r) for r in rows],
                        dtype=np.uint8).reshape(rows.shape)
    assert np.array_equal(fixed, expected)


class TestInstance:
    def test_field_coercion(self, three_items):
        assert three_items.weights.dtype == np.int64
        assert three_items.n == 3

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([0, 2]), np.array([1, 1]), 5)
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([1, 2]), np.array([1, 0]), 5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([1, 2]), np.array([1]), 5)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([1]), np.array([1]), -1)

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([1]), np.array([1]), 5, "XXX")

    def test_compares_and_hashes_by_identity(self):
        a = generate("UCI", 5, 100, 0.5, 1)
        b = generate("UCI", 5, 100, 0.5, 1)
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("weights, profits", [
        ([2**52, 2**52], [1, 1]),
        ([1, 1], [2**52, 2**52]),
        ([1, 2**53 - 1], [1, 1]),
        # an int64 sum of these wraps around to a negative number
        ([2**62, 2**62], [1, 1]),
    ])
    def test_rejects_totals_not_exact_in_float(self, weights, profits):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            KnapsackInstance(np.array(weights), np.array(profits), 5)

    def test_totals_just_below_the_limit(self):
        big = [2**52, 2**52 - 1]
        assert sum(big) == FLOAT_EXACT_LIMIT - 1
        positions = np.array([[1, 1], [0, 1], [1, 0]], dtype=np.uint8)
        # all fit; then [1, 1] is over and drops item 0 (a density tie)
        for capacity, first in ((sum(big), [1, 1]), (2**52, [0, 1])):
            inst = KnapsackInstance(np.array(big), np.array(big), capacity)
            fitness, stored = KnapsackObjective(inst).evaluate_swarm(positions)
            assert fitness.dtype == np.int64
            assert stored.tolist() == [first, [0, 1], [1, 0]]
            assert fitness.tolist() == [int(np.dot(first, big)), big[1], big[0]]


class TestGenerate:
    def test_sci_profit_offset(self):
        inst = generate("SCI", 50, 1000, 0.5, 123)
        assert np.array_equal(inst.profits, inst.weights + 100)

    def test_capacity_floor(self):
        inst = generate("UCI", 200, 1000, 0.5, 1)
        assert inst.capacity == int(0.5 * inst.weights.sum())

    def test_uci_bounds(self):
        inst = generate("UCI", 10_000, 1000, 0.5, 2)
        for v in (inst.weights, inst.profits):
            assert v.min() >= 1 and v.max() <= 1000

    def test_wci_bounds_and_clamp(self):
        inst = generate("WCI", 100_000, 1000, 0.5, 3)
        assert inst.profits.min() >= 1
        assert np.all(inst.profits <= inst.weights + 100)
        assert np.all(inst.profits >= np.maximum(inst.weights - 100, 1))
        # the clamp has to actually trigger at this sample size
        assert np.any((inst.weights - 100 < 1) & (inst.profits == 1))

    def test_deterministic(self):
        a = generate("UCI", 100, 1000, 0.5, 99)
        b = generate("UCI", 100, 1000, 0.5, 99)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.profits, b.profits)
        assert a.capacity == b.capacity

    def test_types_share_weights_for_equal_seed(self):
        a = generate("UCI", 100, 1000, 0.5, 99)
        b = generate("SCI", 100, 1000, 0.5, 99)
        assert np.array_equal(a.weights, b.weights)

    def test_sci_requires_r_multiple_of_ten(self):
        with pytest.raises(ConfigError):
            generate("SCI", 10, 1005, 0.5, 1)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            generate("UCI", 0, 1000, 0.5, 1)
        with pytest.raises(ConfigError):
            generate("UCI", 10, 5, 0.5, 1)
        with pytest.raises(ConfigError):
            generate("UCI", 10, 1000, 1.0, 1)
        with pytest.raises(ConfigError):
            generate("EXTERNAL", 10, 1000, 0.5, 1)


class TestSolvers:
    def test_three_item_optimum(self, three_items):
        profit, selection = dp_optimal(three_items, selection=True)
        assert profit == 7
        assert np.array_equal(selection, [1, 1, 0])

    def test_zero_capacity(self):
        inst = KnapsackInstance(np.array([2]), np.array([3]), 0)
        assert dp_optimal(inst) == (0, None)
        assert dp_optimal(inst, selection=True) == (0, np.zeros(1, np.uint8))

    def test_exact_fit(self):
        inst = KnapsackInstance(np.array([5]), np.array([9]), 5)
        profit, selection = dp_optimal(inst, selection=True)
        assert profit == 9 and selection[0] == 1

    def test_brute_three_items(self, three_items):
        assert brute_force_optimal(three_items) == 7

    def test_brute_empty(self):
        inst = KnapsackInstance(np.empty(0, np.int64), np.empty(0, np.int64), 5)
        assert brute_force_optimal(inst) == 0
        assert dp_optimal(inst)[0] == 0

    def test_brute_nothing_fits(self):
        inst = KnapsackInstance(np.array([7, 8]), np.array([1, 1]), 5)
        assert brute_force_optimal(inst) == 0

    def test_brute_refuses_large_n(self):
        inst = generate("UCI", 25, 100, 0.5, 1)
        with pytest.raises(ValueError):
            brute_force_optimal(inst)

    def test_dp_memory_guard(self, monkeypatch):
        inst = KnapsackInstance(np.array([10**9]), np.array([1]), 10**9)
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 1000)
        with pytest.raises(ResourceError):
            dp_optimal(inst, selection=True)

    @pytest.mark.parametrize("capacity", [2**63 - 1, 2**63 + 5, 10**400])
    def test_dp_memory_guard_beyond_int64(self, capacity):
        # both items fit, so the value row has 2**52 + 2 cells
        inst = KnapsackInstance(np.array([2**51, 2**51 + 1]),
                                np.array([1, 2]), capacity)
        with pytest.raises(ResourceError):
            dp_optimal(inst, selection=True)

    def test_dp_memory_guard_counts_the_value_rows(self, monkeypatch):
        # the item's band is empty, so there are no choice bits; the int32
        # value row (4 MB) does not fit the limit, and nothing is allocated
        inst = KnapsackInstance(np.array([10**6]), np.array([1]), 10**6)
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 10**6)
        _, _, peak = traced(pytest.raises, ResourceError, dp_optimal, inst,
                            selection=True)
        assert peak < 10**5

    @pytest.mark.parametrize("capacity", [10, 10**12, 2**63 + 5])
    def test_value_row_ends_at_the_fitting_weight(self, capacity):
        # every capacity from the total weight 8 up has the same value, so
        # a row of 9 cells does for all of these
        inst = KnapsackInstance(np.array([3, 5]), np.array([1, 2]), capacity)
        assert dp_need(inst) == dp_need(
            KnapsackInstance(inst.weights, inst.profits, 8))
        assert dp_optimal(inst) == (3, None)
        profit, selection = dp_optimal(inst, selection=True)
        assert profit == 3 and selection.tolist() == [1, 1]

    def test_dp_matches_brute_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(40):
            inst = random_small_instance(rng)
            profit, selection = dp_optimal(inst, selection=True)
            assert profit == brute_force_optimal(inst)
            sel = selection.astype(bool)
            assert inst.weights[sel].sum() <= inst.capacity
            assert inst.profits[sel].sum() == profit

    @settings(max_examples=300, deadline=None)
    @given(dp_instances())
    # c = 0, n = 1 fitting, some items too heavy, every item fitting, and
    # fitting profits summing to 2**31 - 1 (int32) and to 2**31 (int64)
    @example(KnapsackInstance(np.array([5]), np.array([3]), 0))
    @example(KnapsackInstance(np.array([4]), np.array([3]), 9))
    @example(KnapsackInstance(np.array([7, 2, 9]), np.array([1, 1, 4]), 5))
    @example(KnapsackInstance(np.array([3, 1, 2]), np.array([4, 2, 2]), 6))
    @example(KnapsackInstance(np.array([1, 1]),
                              np.array([2**30, 2**30 - 1]), 2))
    @example(KnapsackInstance(np.array([1, 1]), np.array([2**30, 2**30]), 2))
    def test_dp_matches_full_table_oracle(self, inst):
        profit, selection = dp_optimal(inst, selection=True)
        want_profit, want_selection = dp_full_oracle(inst)
        assert profit == want_profit
        assert selection.dtype == np.uint8
        assert np.array_equal(selection, want_selection)

    @pytest.mark.parametrize("inst", [
        load_config("scaling.cfg").instance.load(),
        KnapsackInstance(np.array([10**6]), np.array([1]), 10**6),
    ], ids=["scaling.cfg", "n=1,c=10**6"])
    def test_dp_memory_guard_counts_what_is_allocated(self, inst):
        need = guard_need(inst)
        _, _, peak = traced(dp_optimal, inst, selection=True)
        assert abs(peak - need) <= 16 * 1024, (need, peak)


class TestProfitOnly:
    """``dp_optimal`` by default (``selection=False``): the same value
    sweep with no choice bits, for callers that read only the profit."""

    @settings(max_examples=300, deadline=None)
    @given(dp_instances())
    # nothing fits, c = 0, and fitting profits summing to 2**31 - 1
    # (int32 value row) and to 2**31 (int64)
    @example(KnapsackInstance(np.array([7, 8]), np.array([1, 1]), 5))
    @example(KnapsackInstance(np.array([5]), np.array([3]), 0))
    @example(KnapsackInstance(np.array([1, 1]),
                              np.array([2**30, 2**30 - 1]), 2))
    @example(KnapsackInstance(np.array([1, 1]), np.array([2**30, 2**30]), 2))
    def test_matches_the_oracles(self, inst):
        profit, selection = dp_optimal(inst, selection=False)
        assert selection is None
        assert profit == dp_full_oracle(inst)[0]
        assert profit == dp_optimal(inst, selection=True)[0]
        if inst.n <= 20:
            assert profit == brute_force_optimal(inst)

    @pytest.mark.parametrize("capacity", [2**63 - 1, 2**63 + 5, 10**400])
    def test_refuses_capacities_beyond_int64(self, capacity):
        # both items fit, so the value row has 2**52 + 2 cells
        inst = KnapsackInstance(np.array([2**51, 2**51 + 1]),
                                np.array([1, 2]), capacity)
        assert dp_need(inst, selection=False) > errors.MEMORY_LIMIT
        with pytest.raises(ResourceError):
            dp_optimal(inst, selection=False)

    @pytest.mark.parametrize("inst", [
        load_config("scaling.cfg").instance.load(),
        KnapsackInstance(np.array([10**6]), np.array([1]), 10**6),
    ], ids=["scaling.cfg", "n=1,c=10**6"])
    def test_guard_counts_what_is_allocated(self, inst):
        need = guard_need(inst, selection=False)
        assert need == dp_need(inst, selection=False)
        assert need < dp_need(inst, selection=True)
        _, _, peak = traced(dp_optimal, inst, selection=False)
        assert abs(peak - need) <= 16 * 1024, (need, peak)

    def test_guard_counts_the_value_rows(self, monkeypatch):
        # the int32 value row (4 MB) does not fit the limit, and nothing
        # is allocated
        inst = KnapsackInstance(np.array([10**6]), np.array([1]), 10**6)
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 10**6)
        _, _, peak = traced(pytest.raises, ResourceError, dp_optimal, inst,
                            selection=False)
        assert peak < 10**5

    def test_equals_the_selection_profit_on_the_protocol_instances(self):
        for name in ("low_dim.cfg", "scaling.cfg", "curves_vt2.cfg"):
            inst = load_config(name).instance.load()
            assert (dp_optimal(inst)[0]
                    == dp_optimal(inst, selection=True)[0])


class TestRepairAndEvaluate:
    def test_all_zeros(self, three_items):
        assert evaluate(three_items, [0, 0, 0]) == 0

    def test_feasible_sum(self, three_items):
        assert evaluate(three_items, [1, 1, 0]) == 7

    def test_infeasible_all_ones(self, three_items):
        # ratios are 1.5, 1.33, 1.25; dropping item 2 (ratio 1.25) already
        # brings the weight to 5 = capacity, so items 0 and 1 remain
        assert evaluate(three_items, [1, 1, 1]) == 7
        assert np.array_equal(repair(three_items, [1, 1, 1]), [1, 1, 0])

    def test_repair_identity_on_feasible(self, three_items):
        assert np.array_equal(repair(three_items, [0, 1, 0]), [0, 1, 0])

    def test_repair_tie_breaks_by_lower_index(self):
        inst = KnapsackInstance(np.array([4, 4]), np.array([4, 4]), 4)
        assert np.array_equal(repair(inst, [1, 1]), [0, 1])

    def test_repair_multiple_drops(self):
        inst = KnapsackInstance(np.array([5, 5, 5]), np.array([5, 6, 7]), 5)
        assert np.array_equal(repair(inst, [1, 1, 1]), [0, 0, 1])

    def test_length_mismatch(self, three_items):
        with pytest.raises(ValueError):
            evaluate(three_items, [1, 0])

    def test_batch_shape_mismatch(self, three_items):
        for bad in (np.ones((2, 2)), np.ones((1, 2, 3)), np.int64(1)):
            with pytest.raises(ValueError):
                repair(three_items, bad)

    def test_excess_must_match_the_rows(self, three_items):
        for sel, excess in ((np.ones((2, 3)), [4]), (np.ones(3), [4]),
                            (np.ones((1, 3)), 4)):
            with pytest.raises(ValueError, match="excess shape"):
                repair(three_items, sel, excess=excess)

    @given(instance_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_scalar_oracle(self, case):
        inst, rows = case
        assert_matches_oracle(inst, rows)
        for row in rows:  # 1-D input
            assert np.array_equal(repair(inst, row), repair_oracle(inst, row))

    def test_empty_and_single_row_batches(self, three_items):
        assert_matches_oracle(three_items, np.zeros((0, 3), dtype=np.uint8))
        assert_matches_oracle(three_items, np.ones((1, 3), dtype=np.uint8))
        assert repair(three_items, np.ones((1, 3))).shape == (1, 3)

    def test_all_rows_infeasible(self):
        rng = np.random.Generator(np.random.PCG64(3))
        inst = generate("UCI", 40, 100, 0.1, 11)
        rows = rng.integers(0, 2, size=(50, inst.n)).astype(np.uint8)
        rows = rows[rows @ inst.weights > inst.capacity]
        assert len(rows) == 50
        assert_matches_oracle(inst, rows)

    def test_density_ties_drop_lower_index_first(self):
        # every item has profit/weight 1, so the drop order is by index
        values = np.array([2, 4, 1, 3])
        inst = KnapsackInstance(values, values, 5)
        rows = np.array([[1, 1, 1, 1], [0, 1, 1, 1], [1, 0, 1, 1]])
        assert np.array_equal(repair(inst, rows), [[0, 0, 1, 1]] * 3)
        assert_matches_oracle(inst, rows)

    def test_excess_met_exactly_by_one_item(self):
        # densities 0.5, 2, 3: the first drop (item 0, weight 4) covers an
        # excess of exactly 4 and nothing else is dropped
        inst = KnapsackInstance(np.array([4, 3, 2]), np.array([2, 6, 6]), 5)
        rows = np.array([[1, 1, 1], [1, 1, 0]])
        assert np.array_equal(repair(inst, rows), [[0, 1, 1], [0, 1, 0]])
        assert_matches_oracle(inst, rows)

    def test_never_exceeds_optimum(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            inst = random_small_instance(rng)
            optimum, _ = dp_optimal(inst)
            for _ in range(20):
                sel = rng.integers(0, 2, size=inst.n)
                assert evaluate(inst, sel) <= optimum

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=50, deadline=None)
    def test_repair_always_feasible(self, mask):
        inst = generate("UCI", 16, 100, 0.4, 5)
        sel = np.array([(mask >> i) & 1 for i in range(16)], dtype=np.uint8)
        fixed = repair(inst, sel).astype(bool)
        assert inst.weights[fixed].sum() <= inst.capacity
        # repair only ever drops items
        assert np.all(fixed <= sel.astype(bool))

    def test_objective_leaves_positions_untouched(self, three_items):
        obj = KnapsackObjective(three_items)
        positions = np.array([[1, 1, 1], [0, 1, 0]], dtype=np.uint8)
        before = positions.copy()
        fitness, stored = obj.evaluate_swarm(positions)
        assert np.array_equal(positions, before)
        assert np.array_equal(fitness, [7, 4])
        assert np.array_equal(stored, [[1, 1, 0], [0, 1, 0]])

    @pytest.mark.parametrize("capacity", [2**63 + 5, 10**400])
    def test_objective_takes_capacities_beyond_float(self, capacity):
        inst = KnapsackInstance(np.array([3, 4]), np.array([1, 2]), capacity)
        fitness, _ = KnapsackObjective(inst).evaluate_swarm(
            np.array([[1, 1], [0, 1]], dtype=np.uint8))
        assert fitness.tolist() == [3, 2]

    @given(st.one_of(instance_and_rows(), instance_and_rows(2**49)))
    @settings(max_examples=200, deadline=None)
    def test_objective_matches_oracle_profits(self, case):
        # values up to 2**49 give totals near 2**53, where a float sum
        # would round if it were not exact
        inst, rows = case
        fitness, stored = KnapsackObjective(inst).evaluate_swarm(rows)
        fixed = np.array([repair_oracle(inst, r) for r in rows],
                         dtype=np.uint8).reshape(rows.shape)
        assert fitness.dtype == np.int64
        assert np.array_equal(stored, fixed)
        assert np.array_equal(fitness, fixed.astype(np.int64) @ inst.profits)

    def test_objective_matches_scalar_evaluate(self):
        rng = np.random.Generator(np.random.PCG64(13))
        inst = random_small_instance(rng)
        obj = KnapsackObjective(inst)
        positions = rng.integers(0, 2, size=(30, inst.n)).astype(np.uint8)
        fitness, _ = obj.evaluate_swarm(positions)
        expected = [evaluate(inst, row) for row in positions]
        assert np.array_equal(fitness, expected)


class TestInstanceIO:
    def test_round_trip(self, tmp_path, three_items):
        path = tmp_path / "inst.txt"
        save_instance(three_items, path)
        back = load_instance(path)
        assert np.array_equal(back.weights, three_items.weights)
        assert np.array_equal(back.profits, three_items.profits)
        assert back.capacity == 5
        assert back.instance_type == "EXTERNAL"

    def test_round_trip_gzip(self, tmp_path):
        inst = generate("WCI", 64, 1000, 0.5, 8)
        path = tmp_path / "inst.txt.gz"
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.profits, inst.profits)
        assert back.instance_type == "WCI"

    def test_format_is_line_oriented(self, tmp_path, three_items):
        path = tmp_path / "inst.txt"
        save_instance(three_items, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "3 5 EXTERNAL"
        assert lines[1:] == ["2 3", "3 4", "4 5"]

    @pytest.mark.parametrize("text", [
        "",
        "3 5\n2 3\n3 4\n4 5\n",
        "3 5 EXTERNAL\n2 3\n3 4\n",
        "2 5 EXTERNAL\n2 3\n3 x\n",
        "1 5 EXTERNAL\n0 3\n",
        "x 5 EXTERNAL\n2 3\n",
    ])
    def test_loader_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_instance(path)

    def test_loader_rejects_totals_not_exact_in_float(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"2 5 EXTERNAL\n{2**52} 1\n{2**52} 1\n")
        with pytest.raises(ParseError, match=r"huge\.txt: weights .*2\*\*53"):
            load_instance(path)

    def test_gz_bytes_do_not_depend_on_the_clock(self, tmp_path,
                                                 monkeypatch):
        inst = generate("UCI", 32, 100, 0.5, 3)
        path = tmp_path / "inst.txt.gz"
        saved = []
        for clock in (1.0e9, 2.0e9):
            monkeypatch.setattr(time, "time", lambda: clock)
            save_instance(inst, path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]
        # the header's little-endian mtime field, bytes 4-7
        assert saved[0][4:8] == bytes(4)

    def test_gzip_helpers(self, tmp_path):
        path = tmp_path / "t.gz"
        with open_text(path, "w") as fh:
            fh.write("hello\n")
        with open_text(path) as fh:
            assert fh.read() == "hello\n"
