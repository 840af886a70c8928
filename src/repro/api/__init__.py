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

* :mod:`repro.api.cache` — :class:`~repro.api.cache.LRUCache`, the one
  in-memory LRU: the engine's reference and timing stores and the
  server's result cache; and :class:`~repro.api.cache.StoreStats`, the
  counters of every cache.

Applications, device profiles and execution backends resolve by name
through plain dicts of their built-in instances
(:data:`repro.apps.APPLICATIONS`, :data:`repro.clsim.device.DEVICE_PROFILES`,
:data:`repro.clsim.backends.BACKENDS`).  Kernels are built once per process
by :func:`repro.core.perforator.build_kernel`, the one kernel-build cache;
the tuning database (:mod:`repro.autotune.db`) is the only store on disk.
"""

from __future__ import annotations

from .cache import LRUCache, StoreStats
from .calibration import CalibrationEntry
from .engine import PerforationEngine

__all__ = [
    "CalibrationEntry",
    "LRUCache",
    "PerforationEngine",
    "StoreStats",
]
