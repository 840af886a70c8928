"""String-keyed registries for the engine API.

A :class:`Registry` maps names to factories (or ready-made objects) so the
engine can resolve applications, device profiles and perforation schemes by
name — ``engine.sweep("gaussian", image)`` — and so third-party code can add
its own entries without editing the package:

.. code-block:: python

    from repro.apps import register_application

    @register_application("my-filter")
    class MyFilterApp(Application):
        ...

An application's ``approximate`` may depend on its configuration only
through the samplers :func:`~repro.core.reconstruction.make_sampler` builds
from the configuration's scheme, reconstruction and work group; the engine
computes one approximation per
:meth:`~repro.apps.base.Application.approximation_key`.  An application
that breaks that contract overrides ``approximation_key``.

The registry is deliberately dumb: it knows nothing about what it stores.
The owning modules (:mod:`repro.apps`, :mod:`repro.clsim.device`,
:mod:`repro.core.schemes`) decide whether entries are factories that are
called on lookup or singletons that are returned as-is.
"""

from __future__ import annotations

import threading
from typing import Generic, Iterator, TypeVar

T = TypeVar("T")


class RegistryError(KeyError):
    """Lookup of an unknown registry entry."""


class Registry(Generic[T]):
    """A thread-safe, string-keyed collection of named entries.

    Parameters
    ----------
    kind:
        Human-readable description of what is stored (``"application"``,
        ``"device profile"``, ...); used in error messages.
    error:
        Exception class raised for unknown names.  Must accept a single
        message argument (:class:`RegistryError` by default).
    """

    def __init__(self, kind: str, error: type[Exception] = RegistryError) -> None:
        self.kind = kind
        self.error = error
        self._entries: dict[str, T] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def register(self, name: str, entry: T | None = None, *, overwrite: bool = False):
        """Register ``entry`` under ``name``.

        Usable directly (``registry.register("x", factory)``) or as a
        decorator (``@registry.register("x")``).  Registering an existing
        name raises ``ValueError`` unless ``overwrite=True``.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")

        def _add(value: T) -> T:
            with self._lock:
                if not overwrite and name in self._entries:
                    raise ValueError(
                        f"{self.kind} {name!r} is already registered; "
                        f"pass overwrite=True to replace it"
                    )
                self._entries[name] = value
            return value

        if entry is None:
            return _add  # decorator form
        return _add(entry)

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the registry (missing names are ignored)."""
        with self._lock:
            self._entries.pop(name, None)

    # ------------------------------------------------------------------
    def get(self, name: str) -> T:
        """Return the entry registered under ``name``."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                available = sorted(self._entries)
        raise self.error(f"unknown {self.kind} {name!r}; available: {available}")

    def names(self) -> list[str]:
        """Sorted names of all registered entries."""
        with self._lock:
            return sorted(self._entries)

    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Registry of {len(self)} {self.kind}s: {', '.join(self.names())}>"
