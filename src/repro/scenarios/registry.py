"""The process-wide scenario registry.

Scenario specs register under a unique name; the CLI and the examples look
them up here.  The built-in library (the four paper use cases plus the extra
workloads in :mod:`repro.scenarios.library`) is loaded lazily on the first
lookup, so importing :mod:`repro.scenarios` stays cheap and registering a
scenario never triggers the full use-case imports.
"""

from __future__ import annotations

import importlib
import sys
import threading
from typing import Dict, List, Optional

from repro.errors import TeamPlayError
from repro.scenarios.spec import ScenarioSpec


class ScenarioRegistryError(TeamPlayError):
    """Raised for duplicate registrations and unknown scenario lookups."""


class UnknownScenarioError(ScenarioRegistryError, KeyError):
    """Raised when a scenario name is not registered."""


_REGISTRY: Dict[str, ScenarioSpec] = {}
_builtins_loaded = False
#: True while the library import runs; read and written under the lock.
_builtins_loading = False
#: Serialises the lazy builtin import: the evaluation service's worker
#: threads may look scenarios up concurrently before the library loaded.
#: Reentrant so a library module consulting the registry while registering
#: does not deadlock on its own import.
_builtins_lock = threading.RLock()


def _ensure_builtins() -> None:
    """Import the built-in scenario library exactly once.

    ``_builtins_loaded`` is set only once the import has finished, so a
    concurrent first lookup waits on the lock for the whole library instead
    of reading a partial registry.  A library module that consults the
    registry while registering re-enters on the importing thread and returns
    on ``_builtins_loading``.  A failed import rolls back its partial
    registrations, so the error resurfaces on the next lookup instead of
    leaving a silently partial registry.
    """
    if _builtins_loaded:
        return
    with _builtins_lock:
        _ensure_builtins_locked()


def _ensure_builtins_locked() -> None:
    global _builtins_loaded, _builtins_loading
    if _builtins_loaded or _builtins_loading:
        return
    _builtins_loading = True
    before = set(_REGISTRY)
    modules_before = set(sys.modules)
    try:
        importlib.import_module("repro.scenarios.library")
    except BaseException:
        for name in set(_REGISTRY) - before:
            del _REGISTRY[name]
        # Also evict the registering modules this attempt brought in:
        # Python would otherwise keep them cached in sys.modules and skip
        # their bodies on retry, leaving their (rolled-back) registrations
        # permanently missing.
        for module in set(sys.modules) - modules_before:
            if (module == "repro.scenarios.library"
                    or module == "repro.usecases"
                    or module.startswith("repro.usecases.")):
                del sys.modules[module]
        raise
    else:
        _builtins_loaded = True
    finally:
        _builtins_loading = False


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Register ``spec`` under its name; duplicate names are an error.

    Returns the spec so modules can write
    ``SCENARIO = register_scenario(ScenarioSpec(...))``.
    """
    if not replace and spec.name in _REGISTRY:
        raise ScenarioRegistryError(
            f"scenario {spec.name!r} is already registered; pass "
            f"replace=True to overwrite it")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scenario(name: str) -> Optional[ScenarioSpec]:
    """Remove and return a registered scenario (mainly for tests)."""
    return _REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; registered scenarios: {available}"
        ) from None


def list_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
