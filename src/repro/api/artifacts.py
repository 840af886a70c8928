"""A name the traced benchmark run patches, and nothing else.

``perfbench/layers.py`` wraps ``ArtifactCache.get`` when it traces a run,
so the class stays, with a ``get`` that nothing in the library calls.
Lowered kernels are cached only in the process
(:func:`repro.core.perforator.build_kernel`); the tuning database
(:mod:`repro.autotune.db`) owns the only disk store.
"""


class ArtifactCache:
    def get(self, key: str) -> None:
        return None
