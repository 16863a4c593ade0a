"""Acceptance gate: ten criteria covering the correction math, the exact
solvers, the exploration metrics and the experimental trends.

Each criterion emits one PASS/FAIL line (echoed in the terminal summary).
Criteria 6 and 8-10 share one full-protocol experiment, ``configs/low_dim.cfg``
(UCI d=100, m=20, c1=c2=2, 1000 iterations, 20 repetitions, each variant at
its best inertia schedule); criterion 7 runs ``configs/scaling.cfg`` (the
same at d=500, with the d=500 best schedules).

Criteria 2 and 3 split the velocity grid by where the true correction
lies, as found by the bisection oracle (``true_correction`` and
``clamp_bound`` in conftest). In range, its magnitude is within
[CORRECTION_FLOOR, CORRECTION_CLAMP]: the closed form must match the
oracle and invert itself to 1e-8. Out of range (VT3/VT4 at |v| >= 1e3,
where the true correction is below the smallest positive double),
``correct`` promises the clamp instead: it returns the signed floor, and
the round trip lands on the boundary velocity ``correct(+-CORRECTION_FLOOR)``
with the sign and the flip probability kept. Criterion 3 names those
points in its PASS line. The oracle may fail only where ``1 - sigm(v)``
is below ``sigm(CORRECTION_FLOOR)``, the low end of its bracket; anywhere
else its failure fails the criterion.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_LINES,
    ALL_KINDS,
    OracleError,
    brute_force_optimal,
    clamp_bound,
    load_config,
    pujv,
    true_correction,
    velocity_grid,
)
from vcbpso import knapsack, metrics
from vcbpso.harness import run_experiment
from vcbpso.results import paired
from vcbpso.trace import TraceBuilder
from vcbpso.transfer import TransferKind, correct, sigm

GRID = velocity_grid()


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name}{suffix}"


@pytest.fixture(scope="module")
def d100(tmp_path_factory):
    out = tmp_path_factory.mktemp("d100")
    spec = replace(load_config("low_dim.cfg"), output_dir=str(out))
    return paired(run_experiment(spec)), out


class TestMathCriteria:
    def test_01_correction_identity(self):
        worst = 0.0
        for kind in ALL_KINDS:
            err = np.abs(sigm(kind, correct(kind, GRID))
                         - (1.0 - sigm(kind, GRID)))
            worst = max(worst, float(err.max()))
        report(1, "correction identity", worst <= 1e-10,
               f"max |sigm(correct(v)) - (1-sigm(v))| = {worst:.2e}")

    def test_02_closed_form_vs_oracle(self):
        worst = 0.0
        bad: list[str] = []
        out_of_range: list[str] = []
        for kind in ALL_KINDS:
            for v in GRID:
                v = float(v)
                try:
                    want = true_correction(kind, v)
                except OracleError:
                    bad.append(f"{kind.value}@{v:g} oracle failed")
                    continue
                if want is None:
                    out_of_range.append(f"{kind.value}@{v:g}")
                    continue
                rel = abs(correct(kind, v) - want) / abs(want)
                worst = max(worst, rel)
                if rel > 1e-8:
                    bad.append(f"{kind.value}@{v:g} rel={rel:.2e}")
        detail = f"max rel err {worst:.2e}"
        if out_of_range:
            detail += (f"; {len(out_of_range)} points skipped: true "
                       "correction below double range")
        if bad:
            detail += "; mismatches: " + ", ".join(bad[:6])
        report(2, "closed form vs oracle", not bad, detail)

    def test_03_involution(self):
        bad: list[str] = []
        clamped: list[str] = []
        worst = 0.0
        for kind in ALL_KINDS:
            for v in GRID:
                v = float(v)
                name = f"{kind.value}@{v:g}"
                try:
                    bound = clamp_bound(kind, v)
                except OracleError:
                    bad.append(f"{name} oracle failed")
                    continue
                once = correct(kind, v)
                if bound is None:
                    rel = abs(correct(kind, once) - v) / abs(v)
                    worst = max(worst, rel)
                    if rel > 1e-8:
                        bad.append(f"{name} rel={rel:.2e}")
                    continue
                # the true correction is clamped: check what correct
                # promises there instead of exact inversion
                clamped.append(name)
                if abs(once) != bound:
                    bad.append(f"{name} |correct|={abs(once):g} not {bound:g}")
                    continue
                back = correct(kind, once)
                if not np.sign(once) == np.sign(back) == np.sign(v):
                    bad.append(f"{name} sign lost")
                elif back != correct(kind, math.copysign(bound, v)):
                    bad.append(f"{name} round trip {back:g} not the "
                               "boundary velocity")
                elif sigm(kind, back) != sigm(kind, v):
                    bad.append(f"{name} flip probability changed")
        detail = f"max rel err {worst:.2e}"
        if clamped:
            detail += (f"; {len(clamped)} points out of range, checked "
                       "at the clamp: " + ", ".join(clamped))
        if bad:
            detail += "; mismatches: " + ", ".join(bad[:6])
        report(3, "involution", not bad, detail)

    def test_04_dp_vs_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(20260823))
        mismatches = 0
        for i in range(200):
            n = int(rng.integers(1, 21))
            kind = ("UCI", "WCI", "SCI")[i % 3]
            inst = knapsack.generate(kind, n, int(rng.integers(1, 21)) * 10,
                                     float(rng.uniform(0.2, 0.8)),
                                     int(rng.integers(0, 2**32)))
            if knapsack.dp_optimal(inst)[0] != brute_force_optimal(inst):
                mismatches += 1
        report(4, "exact solver oracle", mismatches == 0,
               f"{mismatches} mismatches over 200 instances")

    def test_05_metric_oracle(self):
        rng = np.random.Generator(np.random.PCG64(5))
        mismatches = 0
        additivity_violations = 0
        for _ in range(50):
            d = int(rng.integers(8, 65))
            bits = rng.integers(0, 2, size=(201, 5, d)).astype(np.uint8)
            builder = TraceBuilder(d, 1, 5, len(bits))
            for pos in bits:
                builder.record(np.zeros(1), pos)
            trace = builder.build()[0]
            eff = metrics.dist_eff_matrix(trace)
            signed = bits.astype(np.int16)
            for i in range(5):
                hist = signed[:, i, :]
                pair = np.abs(hist[:, None, :] - hist[None, :, :]).sum(-1)
                want = [pair[k, :k].min() for k in range(1, 201)]
                if not np.array_equal(eff[:, i], want):
                    mismatches += 1
            q = int(rng.integers(1, 200))
            if pujv(trace, 1, q) + pujv(trace, q + 1, 200) \
                    != pujv(trace, 1, 200):
                additivity_violations += 1
        ok = mismatches == 0 and additivity_violations == 0
        report(5, "metric oracle", ok,
               f"{mismatches} dist_eff mismatches, "
               f"{additivity_violations} additivity violations")


class TestExperimentCriteria:
    def test_06_low_dimension_trend(self, d100):
        pairs, _ = d100
        lines = []
        ok = len(pairs) == len(ALL_KINDS)
        for kind, corr, plain in pairs:
            lines.append(f"{kind.value}: {corr.ratio:.4f} vs {plain.ratio:.4f}")
            ok = ok and corr.ratio >= 0.985 and plain.ratio < corr.ratio
        report(6, "d=100 ratio trend", ok, "; ".join(lines))

    def test_07_dimensional_scaling(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("d500")
        spec = replace(load_config("scaling.cfg"), output_dir=str(out))
        pairs = paired(run_experiment(spec))
        assert len(pairs) == len(ALL_KINDS)
        gaps = [corr.ratio - plain.ratio for _, corr, plain in pairs]
        mean_gap = float(np.mean(gaps))
        min_corr = min(corr.ratio for _, corr, _ in pairs)
        ok = min_corr >= 0.97 and mean_gap >= 0.04
        report(7, "d=500 scaling trend", ok,
               f"min corrected ratio {min_corr:.4f}, "
               f"mean gap {100 * mean_gap:.2f}pp")

    def test_08_useless_jump_reduction(self, d100):
        pairs, _ = d100
        lines = []
        ok = len(pairs) == len(ALL_KINDS)
        for kind, corr, plain in pairs:
            lines.append(f"{kind.value}: {corr.mean_pujv:.0f} vs "
                         f"{plain.mean_pujv:.0f}")
            ok = ok and corr.mean_pujv < plain.mean_pujv
        report(8, "useless jump reduction", ok, "; ".join(lines))

    def test_09_first_discovery_ordering(self, d100):
        pairs, _ = d100
        corr, plain = {kind: (c, p) for kind, c, p in pairs}[TransferKind.VT2]
        a = corr.mean_first_discovery_round
        b = plain.mean_first_discovery_round
        report(9, "first discovery ordering", a < b,
               f"corrected {a:.1f} vs uncorrected {b:.1f}")

    def test_10_pipeline_determinism(self, d100, tmp_path_factory):
        _, first_out = d100
        out = tmp_path_factory.mktemp("d100_repeat")
        run_experiment(replace(load_config("low_dim.cfg"),
                               output_dir=str(out)))
        first = (first_out / "aggregate.csv").read_bytes()
        second = (out / "aggregate.csv").read_bytes()
        report(10, "pipeline determinism", first == second,
               f"{len(first)} bytes compared")
