"""One registry for every memo of the package, each with its lifetime.

A memo is an unbounded ``functools.lru_cache`` made by ``cache``, or a dict
made by ``table``.  Each declares, where it is defined, one of two lifetimes:

- ``PROCESS``: the graph layer (canonical forms and code tails, parsed keys,
  enumeration, the named corpus).  Every later computation reads it, so it
  lives as long as the interpreter.
- ``SUITE``: the algebra layer (coproduct, antipode, star and insertion
  products, ``phi``, ``psi`` and chord diagrams).  It serves the suite that
  filled it: ``verify.run_suite`` clears it when each suite ends.

Every memo holds pure results only, so clearing one changes no result, only
the time the next call takes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, TypeVar

PROCESS = "process"
SUITE = "suite"

F = TypeVar("F", bound=Callable)

# "module.name" -> (lifetime, the lru_cache wrapper or dict)
_REGISTRY: dict[str, tuple[str, object]] = {}


def _register(name: str, lifetime: str, memo):
    if lifetime not in (PROCESS, SUITE):
        raise ValueError(f"unknown memo lifetime {lifetime!r}")
    # a reloaded module registers its new memo in place of the old one
    _REGISTRY[name] = (lifetime, memo)
    return memo


def cache(lifetime: str) -> Callable[[F], F]:
    """Decorator: the function behind an unbounded ``lru_cache``, registered
    under its module and name."""

    def wrap(fn: F) -> F:
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"
        return _register(name, lifetime, lru_cache(maxsize=None)(fn))

    return wrap


def table(name: str, lifetime: str) -> dict:
    """A new empty dict memo, registered under ``name`` ("module.attribute")."""
    return _register(name, lifetime, {})


def _size(memo) -> int:
    return len(memo) if isinstance(memo, dict) else memo.cache_info().currsize


def clear(lifetime: str | None = None) -> None:
    """Empty every memo of one lifetime, or every memo."""
    for life, memo in _REGISTRY.values():
        if lifetime is None or life == lifetime:
            if isinstance(memo, dict):
                memo.clear()
            else:
                memo.cache_clear()


def sizes(lifetime: str | None = None) -> dict[str, int]:
    """The number of entries of every memo of one lifetime, or of every memo,
    by name."""
    return {
        name: _size(memo)
        for name, (life, memo) in sorted(_REGISTRY.items())
        if lifetime is None or life == lifetime
    }
