"""``repro.api`` — the engine API.

The package centres on :class:`~repro.api.engine.PerforationEngine`, the
facade that owns the simulated device, the timing model, the reference
and timing caches and the worker pool; every evaluation, sweep and
compiled run takes the application explicitly:

.. code-block:: python

    from repro.api import PerforationEngine

    engine = PerforationEngine(device="firepro-w5100", workers="auto")
    sweep = engine.sweep("gaussian", image)
    output = engine.run_compiled("sobel3", image, ROWS1_NN)

:mod:`repro.api.calibration` calibrates configurations into a ladder and
selects one for an error budget; quality-monitored serving is
:class:`repro.serve.PerforationServer`.

Supporting pieces:

* :mod:`repro.api.registry` — the string-keyed registries behind
  ``app=``/``device=`` name resolution (see
  :func:`repro.apps.register_application`,
  :func:`repro.clsim.device.register_device`,
  :func:`repro.core.schemes.register_scheme`);
* :mod:`repro.api.cache` — :class:`~repro.api.cache.LRUCache`, the one
  in-memory LRU: the engine's reference and timing stores and the
  server's result cache; and :class:`~repro.api.cache.StoreStats`, the
  counters of every cache.

Kernels are built once per process by
:func:`repro.core.perforator.build_kernel`, the one kernel-build cache;
the tuning database (:mod:`repro.autotune.db`) is the only store on disk.

Heavy submodules are imported lazily so that the registry module — which
the application/device/scheme packages import at definition time — does not
drag the whole evaluation stack in circularly.
"""

from __future__ import annotations

from .registry import Registry, RegistryError

__all__ = [
    "CalibrationEntry",
    "LRUCache",
    "PerforationEngine",
    "Registry",
    "RegistryError",
    "StoreStats",
]

_LAZY = {
    "PerforationEngine": ("repro.api.engine", "PerforationEngine"),
    "CalibrationEntry": ("repro.api.calibration", "CalibrationEntry"),
    "LRUCache": ("repro.api.cache", "LRUCache"),
    "StoreStats": ("repro.api.cache", "StoreStats"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
