"""Static analyses over kernel ASTs: stencil access patterns and data reuse.

The perforation passes read the access patterns; Table 1 reads the reuse
factors.  Traffic is modelled per application (``Application.profile``),
not derived from the AST.
"""

from .access_patterns import (
    AccessPatternInfo,
    BufferAccessSummary,
    LinearForm,
    StencilAccess,
    analyze_kernel,
)
from .reuse import ReuseInfo, reuse_info

__all__ = [
    "AccessPatternInfo",
    "BufferAccessSummary",
    "LinearForm",
    "ReuseInfo",
    "StencilAccess",
    "analyze_kernel",
    "reuse_info",
]
