# perfbench/layers.py patches ``repro.kernellang.vectorize.vectorized_kernel``
# when it traces a run, so the name stays as an alias of the codegen entry point.
from .codegen import codegen_kernel as vectorized_kernel  # noqa: F401
