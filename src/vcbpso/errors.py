"""Shared exception types, and the one memory check."""

from collections.abc import Sequence

# The most bytes a DP, an experiment or ``vcbpso metrics`` may hold at once.
MEMORY_LIMIT = 2 << 30


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class ParseError(ConfigError):
    """Malformed config or instance file; message names the offending key/line."""


class ResourceError(RuntimeError):
    """A computation would exceed its memory budget."""


def check_memory(subject: str, held: dict[str, int],
                 phases: Sequence[dict[str, int]] = ()) -> dict[str, int]:
    """The bytes ``subject`` holds at once, by name: the ``held`` terms
    plus the largest of the ``phases``, which follow one another. Over
    ``MEMORY_LIMIT`` they are a ResourceError naming the subject, the
    bytes needed, every term and the limit. Each stage counts its bytes
    beside its code, with constants measured by tracemalloc on numpy 2.4
    and CPython 3.11's zlib."""
    terms = held | max(phases, key=lambda t: sum(t.values()), default={})
    need = sum(terms.values())
    if need > MEMORY_LIMIT:
        raise ResourceError(
            f"{subject} needs {need} bytes ("
            + ", ".join(f"{name} {count}" for name, count in terms.items())
            + f"), limit is {MEMORY_LIMIT}")
    return terms
