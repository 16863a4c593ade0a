"""The output format: every CSV schema, the aggregation, the one CSV
writer and the reader behind ``vcbpso report``. An experiment writes:

- ``runs.csv``: one row per run
- ``aggregate.csv``: one row per variant (means over repetitions)
- ``curve_<variant>.csv``: per-iteration mean gbest profit
- ``metrics_<variant>.csv``: per-iteration mean dist / dist_eff and the
  cumulative useless jump volume, averaged over repetitions
- ``trace_<variant>_rep<k>.txt.gz``: full traces (optional), each in
  the gzip format 2 of :mod:`vcbpso.trace` (gbest values and packed
  positions; the name keeps its ``.txt.gz`` suffix)

``vcbpso metrics`` writes ``<trace>_particle_metrics.csv`` and
``<trace>_aggregate_metrics.csv`` beside a trace. Every CSV goes through
:func:`write_csv`, except the particle file (m·T rows), whose writer
formats the same bytes faster.
"""

from __future__ import annotations

import csv
import os
import re
import sys
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .harness import Variant
    from .transfer import TransferKind

RUNS_HEADER = ["variant", "repetition", "seed", "best_profit", "ratio",
               "convergence_round", "first_discovery_round", "pujv"]
AGGREGATE_HEADER = ["variant", "mean_best_profit", "ratio",
                    "mean_convergence_round", "mean_first_discovery_round",
                    "mean_pujv"]
CURVE_HEADER = ["iteration", "mean_gbest"]
METRICS_HEADER = ["iteration", "mean_dist", "mean_dist_eff", "cum_pujv"]
PARTICLE_HEADER = ["iteration", "particle", "dist", "dist_eff"]
REPORT_COLUMNS = [c for c in AGGREGATE_HEADER if c != "mean_best_profit"]


@dataclass
class RunResult:
    variant: Variant
    repetition: int
    seed: int
    best_profit: float
    ratio: float
    convergence_round: int
    first_discovery_round: int
    pujv: int | None
    gbest_curve: np.ndarray
    dist_curve: np.ndarray | None
    dist_eff_curve: np.ndarray | None
    cum_pujv_curve: np.ndarray | None


@dataclass
class AggregateResult:
    variant: Variant
    optimum: int
    mean_best_profit: float
    ratio: float
    mean_convergence_round: float
    mean_first_discovery_round: float
    mean_pujv: float | None
    runs: list[RunResult]

    def mean_curve(self, name: str) -> np.ndarray:
        return np.mean([getattr(r, name) for r in self.runs], axis=0)


def aggregate(variant: Variant, runs: list[RunResult],
              optimum: int) -> AggregateResult:
    def mean(name):
        values = [getattr(r, name) for r in runs]
        return None if values[0] is None else float(np.mean(values))

    best = mean("best_profit")
    return AggregateResult(variant, optimum, best, best / optimum,
                           mean("convergence_round"),
                           mean("first_discovery_round"), mean("pujv"), runs)


def paired(aggregates: list[AggregateResult]
           ) -> list[tuple[TransferKind, AggregateResult, AggregateResult]]:
    """(kind, corrected, uncorrected) per transfer kind, in the order the
    kinds first appear, when each listed kind has exactly one corrected
    and one uncorrected variant; otherwise []."""
    by_kind: dict[TransferKind, list[AggregateResult]] = {}
    for agg in aggregates:
        by_kind.setdefault(agg.variant.kind, []).append(agg)
    out = []
    for kind, aggs in by_kind.items():
        corrected = [a for a in aggs if a.variant.correction]
        uncorrected = [a for a in aggs if not a.variant.correction]
        if len(corrected) != 1 or len(uncorrected) != 1:
            return []
        out.append((kind, corrected[0], uncorrected[0]))
    return out


def safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", label)


def write_csv(path, header: list[str], rows) -> None:
    """The one CSV writer: a Python float as its repr, None as an empty
    cell. Rows hold Python values; a numpy float's repr differs."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def write_experiment(out_dir, runs: list[RunResult],
                     aggregates: list[AggregateResult]) -> None:
    """Every CSV of an experiment, runs and variants in spec order; each
    ``runs.csv`` / ``aggregate.csv`` cell is the field its column names."""
    for name, header, items in (("runs.csv", RUNS_HEADER, runs),
                                ("aggregate.csv", AGGREGATE_HEADER, aggregates)):
        write_csv(os.path.join(out_dir, name), header,
                  ([r.variant.label] + [getattr(r, c) for c in header[1:]]
                   for r in items))
    for agg in aggregates:
        label = safe_label(agg.variant.label)
        write_csv(os.path.join(out_dir, f"curve_{label}.csv"), CURVE_HEADER,
                  enumerate(agg.mean_curve("gbest_curve").tolist()))
        if agg.runs[0].dist_curve is not None:
            write_aggregate_metrics_csv(
                agg.mean_curve("dist_curve"), agg.mean_curve("dist_eff_curve"),
                agg.mean_curve("cum_pujv_curve"),
                os.path.join(out_dir, f"metrics_{label}.csv"))


# Rows per chunk of the metric CSV writers, so that their temporaries do
# not grow with the trace: three lists of curve values, or one (rows, 4)
# int64 matrix of particle rows and a tuple of its Python ints.
_CSV_CHUNK_ROWS = 4096


def write_aggregate_metrics_csv(mean_dist: np.ndarray,
                                mean_dist_eff: np.ndarray,
                                cum_pujv: np.ndarray, path) -> None:
    """``METRICS_HEADER`` rows, one per iteration from 1, ``_CSV_CHUNK_ROWS``
    at a time. Cells keep their Python type: floats print as ``repr``,
    integer ``cum_pujv`` values (one trace's) as integers."""
    chunks = (zip(range(start + 1, start + _CSV_CHUNK_ROWS + 1),
                  *(curve[start:start + _CSV_CHUNK_ROWS].tolist()
                    for curve in (mean_dist, mean_dist_eff, cum_pujv)))
              for start in range(0, len(mean_dist), _CSV_CHUNK_ROWS))
    write_csv(path, METRICS_HEADER, chain.from_iterable(chunks))


def aggregate_csv_memory(iterations: int) -> int:
    """An upper bound on the bytes :func:`write_aggregate_metrics_csv`
    allocates: one chunk of rows as Python lists (at most 137 bytes a row)
    and the open file with its ``csv.writer`` (136 KiB)."""
    return 144 * min(iterations, _CSV_CHUNK_ROWS) + (144 << 10)


def write_particle_metrics_csv(d: np.ndarray, e: np.ndarray, path) -> None:
    """``PARTICLE_HEADER`` rows, one per (iteration, particle), from one
    trace's ``dist`` and ``dist_eff`` matrices: the bytes of
    :func:`write_csv`, formatted ``_CSV_CHUNK_ROWS`` rows per string."""
    iterations, m = d.shape
    d, e = d.reshape(-1), e.reshape(-1)
    rows = np.empty((min(_CSV_CHUNK_ROWS, d.size), 4), dtype=np.int64)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(PARTICLE_HEADER) + "\r\n")
        for start in range(0, d.size, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, d.size)
            chunk = rows[:stop - start]
            # row start + j holds iteration (start + j) // m + 1
            np.divmod(np.arange(start, stop), m, out=(chunk[:, 0],
                                                      chunk[:, 1]))
            chunk[:, 0] += 1
            chunk[:, 2] = d[start:stop]
            chunk[:, 3] = e[start:stop]
            fh.write("%d,%d,%d,%d\r\n" * len(chunk)
                     % tuple(chunk.ravel().tolist()))


def particle_csv_memory(iterations: int, swarm_size: int,
                        dimensions: int) -> int:
    """An upper bound on the bytes :func:`write_particle_metrics_csv`
    allocates for a (iterations, swarm_size) pair of matrices whose
    values lie in [0, dimensions]. Per row of a chunk: its int64 row and
    record index, a list and a tuple of its four values and an int object
    for each that CPython does not cache (above 256), the format string,
    and the text with its encoded copy."""
    rows = min(_CSV_CHUNK_ROWS, iterations * swarm_size)
    big = (iterations > 256) + (swarm_size > 257) + 2 * (dimensions > 256)
    text = (len(str(iterations)) + len(str(swarm_size))
            + 2 * len(str(dimensions)) + 5)
    return rows * (40 + 4 * 16 + 32 * big + 13 + 2 * text)


def print_report(results_dir) -> None:
    """The ``REPORT_COLUMNS`` of ``aggregate.csv`` in ``results_dir`` on
    stdout, once every row is checked; blank lines are skipped. Text that
    is not UTF-8 or that the csv module refuses (a cell over its field
    limit, say) is a ConfigError naming the file."""
    path = os.path.join(results_dir, "aggregate.csv")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        lines = filter(None, reader)
        try:
            header = next(lines, [])
            rows = []
            for cells in lines:
                if len(cells) != len(header):
                    raise ConfigError(f"{path}: line {reader.line_num} has "
                                      f"{len(cells)} cells, the header "
                                      f"{len(header)}")
                rows.append(dict(zip(header, cells)))
        except csv.Error as exc:
            raise ConfigError(f"{path}: line {reader.line_num}: {exc}"
                              ) from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    missing = [c for c in REPORT_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"{path}: no column {', '.join(missing)}")
    if not rows:
        raise ConfigError(f"{path}: no variant rows")
    out = csv.writer(sys.stdout)
    out.writerow(REPORT_COLUMNS)
    out.writerows([row[c] for c in REPORT_COLUMNS] for row in rows)
