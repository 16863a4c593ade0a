"""Transfer functions and velocity corrections.

Frozen expected values were computed with mpmath at 50 decimal digits and
rounded to the nearest double.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import conftest
from conftest import (
    ALL_KINDS,
    OracleError,
    clamp_bound,
    correct_oracle,
    sigm_complement,
    sigm_vt2_where,
    true_correction,
)
from vcbpso.transfer import (
    CORRECTION_CLAMP,
    CORRECTION_FLOOR,
    TransferKind,
    correct,
    sigm,
)

TANH_1 = 0.7615941559557649
FOUR_OVER_PI_SQ = 0.4052847345693511
ATANH_HALF = 0.5493061443340548
LN_3 = 1.0986122886681098

finite_v = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
kinds = st.sampled_from(ALL_KINDS)


class TestSigm:
    def test_vt2_at_one_is_half(self):
        assert sigm(TransferKind.VT2, 1.0) == 0.5

    def test_vt1_at_zero_is_zero(self):
        assert sigm(TransferKind.VT1, 0.0) == 0.0

    def test_vt3_at_one_is_tanh_one(self):
        assert sigm(TransferKind.VT3, 1.0) == pytest.approx(TANH_1, abs=1e-15)

    def test_vt4_at_ln3_is_half(self):
        assert sigm(TransferKind.VT4, LN_3) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonfinite_rejected(self, kind):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sigm(kind, bad)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_grid_evenness_and_range(self, kind, grid):
        p = sigm(kind, grid)
        assert np.all(p >= 0.0) and np.all(p < 1.0)
        assert np.array_equal(p, sigm(kind, -grid))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_strictly_increasing_on_positive_grid(self, kind, grid):
        pos = grid[grid > 0]
        # saturation: beyond ~20 every kind rounds to the same sub-1 cap,
        # so strictness is asserted where doubles can still resolve it
        pos = pos[pos <= 20.0]
        p = sigm(kind, pos)
        assert np.all(np.diff(p) > 0.0)

    @given(kinds, finite_v)
    def test_even_property(self, kind, v):
        assert sigm(kind, v) == sigm(kind, -v)

    @given(kinds, finite_v)
    def test_range_property(self, kind, v):
        p = sigm(kind, v)
        assert 0.0 <= p < 1.0

    def test_array_shape_preserved(self):
        p = sigm(TransferKind.VT2, np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert p.shape == (2, 2)
        assert p[0, 1] == 0.5


class TestVt2ByIndex:
    """VT2 takes its reciprocal branch by index; the result must equal the
    whole-array ``np.where`` form bit for bit, without a warning."""

    EDGES = [0.0, 1.0, -1.0, float(np.nextafter(1.0, 2.0)),
             float(np.nextafter(1.0, 0.0)), 1e154, -1e154, 1e300, -1e300]

    @staticmethod
    def assert_bit_equal(v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.asarray(sigm(TransferKind.VT2, v))
        want = sigm_vt2_where(v)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_grid_and_edges(self, grid):
        self.assert_bit_equal(np.concatenate([grid, self.EDGES]))

    def test_scalars(self):
        for v in self.EDGES:
            got = sigm(TransferKind.VT2, v)
            assert isinstance(got, float)
            assert got == float(sigm_vt2_where(v))

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0, 1e100])
    def test_swarm_blocks(self, scale):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(10):
            self.assert_bit_equal(rng.standard_normal((20, 500)) * scale)

    def test_no_element_above_one(self):
        self.assert_bit_equal(np.linspace(-1.0, 1.0, 101).reshape(1, 101))


class TestSigmComplement:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_subtraction_where_stable(self, kind):
        for v in (0.0, 0.3, 1.0, 2.5, 5.0):
            assert sigm_complement(kind, v) == pytest.approx(
                1.0 - sigm(kind, v), rel=1e-12, abs=1e-15)

    def test_no_cancellation_at_saturation(self):
        # 1 - sigm rounds to 0 here; the complement form keeps the value
        c = sigm_complement(TransferKind.VT3, 50.0)
        assert c == pytest.approx(2.0 * math.exp(-100.0), rel=1e-12)
        # the naive subtraction cannot get below one ulp of 1.0
        naive = 1.0 - sigm(TransferKind.VT3, 50.0)
        assert naive > 1e-20 or naive == 0.0


class TestCorrect:
    def test_vt2_reciprocal(self):
        assert correct(TransferKind.VT2, 2.0) == 0.5

    def test_vt1_at_one(self):
        assert correct(TransferKind.VT1, 1.0) == pytest.approx(
            FOUR_OVER_PI_SQ, rel=1e-15)

    def test_vt4_fixed_point(self):
        assert correct(TransferKind.VT4, LN_3) == pytest.approx(LN_3, rel=1e-12)

    def test_vt3_fixed_point(self):
        assert correct(TransferKind.VT3, ATANH_HALF) == pytest.approx(
            ATANH_HALF, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_rejected(self, kind):
        with pytest.raises(ValueError):
            correct(kind, 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonfinite_rejected(self, kind):
        with pytest.raises(ValueError):
            correct(kind, math.inf)

    def test_blowup_clamped_above(self):
        assert correct(TransferKind.VT2, 1e-300) == CORRECTION_CLAMP

    def test_underflow_clamped_below(self):
        assert correct(TransferKind.VT3, 1e6) == CORRECTION_FLOOR

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sign_preserved_on_grid(self, kind, grid):
        out = correct(kind, grid)
        assert np.array_equal(np.sign(out), np.sign(grid))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identity_on_grid(self, kind, grid):
        err = np.abs(sigm(kind, correct(kind, grid))
                     - sigm_complement(kind, grid))
        assert float(err.max()) <= 1e-10

    @given(kinds, finite_v)
    def test_identity_property(self, kind, v):
        assert abs(sigm(kind, correct(kind, v))
                   - sigm_complement(kind, v)) <= 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_involution_on_representable_grid(self, kind, grid):
        sub = grid[[clamp_bound(kind, float(v)) is None for v in grid]]
        back = correct(kind, correct(kind, sub))
        assert np.allclose(back, sub, rtol=1e-8, atol=0.0)

    @given(kinds, st.floats(min_value=1e-6, max_value=300.0))
    def test_involution_property(self, kind, v):
        assert correct(kind, correct(kind, v)) == pytest.approx(v, rel=1e-8)

    def test_vectorized_matches_scalar(self, grid):
        for kind in ALL_KINDS:
            vec = correct(kind, grid)
            scal = np.array([correct(kind, float(v)) for v in grid])
            assert np.array_equal(vec, scal)


class TestCorrectOracle:
    def test_vt2_example(self):
        assert correct_oracle(TransferKind.VT2, 2.0) == pytest.approx(
            0.5, abs=1e-12)

    def test_vt1_negative_sign_preserved(self):
        assert correct_oracle(TransferKind.VT1, -1.0) == pytest.approx(
            -FOUR_OVER_PI_SQ, abs=1e-12)

    def test_vt4_fixed_point(self):
        assert correct_oracle(TransferKind.VT4, LN_3) == pytest.approx(
            LN_3, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            correct_oracle(TransferKind.VT1, 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_agrees_with_closed_form_on_grid(self, kind, grid):
        for v in grid:
            if clamp_bound(kind, float(v)) is not None:
                continue
            got = correct(kind, float(v))
            want = correct_oracle(kind, float(v))
            assert got == pytest.approx(want, rel=1e-8), f"v={v}"

    @pytest.mark.parametrize("kind", [TransferKind.VT3, TransferKind.VT4])
    def test_unbracketable_beyond_double_range(self, kind):
        # the true correction underflows below the smallest double here,
        # which the oracle reports rather than silently mis-solving
        with pytest.raises(OracleError):
            correct_oracle(kind, 1e6)


class TestClampBound:
    """The helper that splits the grid for criteria 2 and 3."""

    @pytest.mark.parametrize("kind, v", [(TransferKind.VT3, 360.0),
                                         (TransferKind.VT4, 700.0)])
    def test_floor_where_the_oracle_cannot_bracket(self, kind, v):
        # 1 - sigm(v) is still nonzero here, but below the oracle's bracket
        assert 0.0 < sigm_complement(kind, v) < sigm(kind, CORRECTION_FLOOR)
        for signed in (v, -v):
            assert clamp_bound(kind, signed) == CORRECTION_FLOOR

    def test_other_oracle_failures_reraise(self, monkeypatch):
        def unbracketable(kind, v):
            raise OracleError("cannot bracket")

        monkeypatch.setattr(conftest, "correct_oracle", unbracketable)
        for kind in ALL_KINDS:
            with pytest.raises(OracleError):
                true_correction(kind, 1.0)
