"""Registry of named campaign specifications.

Mirrors the scenario registry's idiom: library modules call
``register_campaign(CampaignSpec(...))`` at import time, the built-in
library (:mod:`repro.campaigns.library`) loads lazily on first lookup, and
callers — the service facade, the HTTP API's ``{"campaign": name}`` form,
and the ``python -m repro.service campaign`` CLI — resolve campaigns by
name.
"""

from __future__ import annotations

import importlib
import threading
from typing import Dict, List, Optional

from repro.campaigns.spec import CampaignSpec, CampaignSpecError
from repro.errors import TeamPlayError


class CampaignRegistryError(TeamPlayError):
    """Raised for duplicate registrations and other registry misuse."""


class UnknownCampaignError(CampaignRegistryError, KeyError):
    """Raised when a campaign name is not registered."""


_REGISTRY: Dict[str, CampaignSpec] = {}
_builtins_loaded = False
#: True while the library import runs; read and written under the lock.
_builtins_loading = False
#: Serialises the lazy builtin import (service threads may look campaigns
#: up concurrently); reentrant so the library module can consult the
#: registry while registering without deadlocking on its own import.
_builtins_lock = threading.RLock()


def _ensure_builtins() -> None:
    # ``_builtins_loaded`` flips only after the import finished, so a
    # concurrent first lookup waits for the whole library; the importing
    # thread's own re-entry returns on ``_builtins_loading``.
    global _builtins_loaded, _builtins_loading
    if _builtins_loaded:
        return
    with _builtins_lock:
        if _builtins_loaded or _builtins_loading:
            return
        _builtins_loading = True
        before = set(_REGISTRY)
        try:
            importlib.import_module("repro.campaigns.library")
        except BaseException:
            # Roll back the partial registrations so the failure resurfaces
            # on the next lookup instead of leaving a silently partial
            # registry (the scenario registry's contract).
            for name in set(_REGISTRY) - before:
                del _REGISTRY[name]
            raise
        else:
            _builtins_loaded = True
        finally:
            _builtins_loading = False


def register_campaign(spec: CampaignSpec,
                      replace: bool = False) -> CampaignSpec:
    """Register ``spec`` under its name; duplicate names are an error.

    Returns the spec so library modules can write
    ``CAMPAIGN = register_campaign(CampaignSpec(...))``.
    """
    if not isinstance(spec, CampaignSpec):
        raise CampaignSpecError(
            f"register_campaign needs a CampaignSpec, got {spec!r}")
    with _builtins_lock:
        if spec.name in _REGISTRY and not replace:
            raise CampaignRegistryError(
                f"campaign {spec.name!r} is already registered")
        _REGISTRY[spec.name] = spec
    return spec


def unregister_campaign(name: str) -> Optional[CampaignSpec]:
    """Remove a campaign by name; returns it (``None`` if unknown)."""
    with _builtins_lock:
        return _REGISTRY.pop(name, None)


def get_campaign(name: str) -> CampaignSpec:
    """Look a campaign up by name (built-ins load lazily)."""
    _ensure_builtins()
    with _builtins_lock:
        spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownCampaignError(
            f"unknown campaign {name!r}; registered: "
            f"{[s.name for s in list_campaigns()]}")
    return spec


def list_campaigns() -> List[CampaignSpec]:
    """Every registered campaign, sorted by name."""
    _ensure_builtins()
    with _builtins_lock:
        return [spec for _, spec in sorted(_REGISTRY.items())]
