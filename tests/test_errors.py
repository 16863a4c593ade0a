"""The one memory check: one limit, one rule, one refusal message."""

import ast
import os

import pytest

from test_results import MODULES, SRC_DIR
from vcbpso import errors
from vcbpso.errors import ResourceError, check_memory


def memory_facts(name):
    """(names or attributes assigned that end in ``MEMORY_LIMIT``, string
    pieces holding "limit is") of a package module."""
    with open(os.path.join(SRC_DIR, name)) as fh:
        tree = ast.parse(fh.read())
    stored = [getattr(node, "id", getattr(node, "attr", None))
              for node in ast.walk(tree)
              if isinstance(getattr(node, "ctx", None), ast.Store)]
    limits = [n for n in stored if str(n).endswith("MEMORY_LIMIT")]
    messages = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and "limit is" in node.value]
    return limits, messages


def test_the_scan_sees_the_errors_module():
    limits, messages = memory_facts("errors.py")
    assert limits == ["MEMORY_LIMIT"]
    assert len(messages) == 1


@pytest.mark.parametrize("name", [m for m in MODULES if m != "errors.py"])
def test_no_other_module_sets_the_limit_or_words_a_refusal(name):
    assert memory_facts(name) == ([], [])


def test_held_terms_plus_the_largest_phase():
    terms = check_memory("x", {"a": 5}, [{"b": 3, "c": 3}, {"d": 7},
                                         {"e": 1}])
    assert terms == {"a": 5, "d": 7}
    assert check_memory("x", {"a": 5}) == {"a": 5}


def test_refusal_names_subject_need_terms_and_limit(monkeypatch):
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 11)
    assert check_memory("x", {"a": 5}, [{"b": 6}]) == {"a": 5, "b": 6}
    with pytest.raises(ResourceError) as info:
        check_memory("the thing", {"a": 5}, [{"b": 4, "c": 3}, {"d": 6}])
    assert str(info.value) == ("the thing needs 12 bytes (a 5, b 4, c 3), "
                               "limit is 11")
