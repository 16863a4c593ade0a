"""The results layer: one owner of every CSV schema."""

import ast
import glob
import os
from dataclasses import fields

import pytest

from vcbpso import results

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "vcbpso")
MODULES = sorted(os.path.basename(p)
                 for p in glob.glob(os.path.join(SRC_DIR, "*.py")))


def csv_facts(name):
    """(imports csv, names of module-level ``*_HEADER`` lists) of a
    package module."""
    with open(os.path.join(SRC_DIR, name)) as fh:
        tree = ast.parse(fh.read())
    imports = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    imports |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    headers = [target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.List)
               for target in node.targets
               if isinstance(target, ast.Name)
               and target.id.endswith("_HEADER")]
    return "csv" in imports, headers


def test_the_scan_sees_the_results_module():
    assert "results.py" in MODULES
    assert csv_facts("results.py") == (True, [
        "RUNS_HEADER", "AGGREGATE_HEADER", "CURVE_HEADER", "METRICS_HEADER",
        "PARTICLE_HEADER"])


@pytest.mark.parametrize("name", [m for m in MODULES if m != "results.py"])
def test_no_other_module_spells_a_csv_schema(name):
    assert csv_facts(name) == (False, [])


def test_report_columns_are_the_aggregate_header_without_the_profit():
    assert results.REPORT_COLUMNS == [
        "variant", "ratio", "mean_convergence_round",
        "mean_first_discovery_round", "mean_pujv"]
    assert results.REPORT_COLUMNS == [
        c for c in results.AGGREGATE_HEADER if c != "mean_best_profit"]


@pytest.mark.parametrize("header, cls", [
    (results.RUNS_HEADER, results.RunResult),
    (results.AGGREGATE_HEADER, results.AggregateResult)])
def test_every_column_after_the_label_is_a_field(header, cls):
    names = [f.name for f in fields(cls)]
    assert header[0] == "variant"
    assert all(column in names for column in header[1:])
