"""``repro.apps`` — the six benchmark applications of the evaluation.

Table 1 of the paper:

==========  ====================  ====================
Application Domain                Error metric
==========  ====================  ====================
Gaussian    Image processing      Mean relative error
Median      Medical imaging       Mean relative error
Hotspot     Physics simulation    Mean relative error
Inversion   Image processing      Mean relative error
Sobel3      Image processing      Mean error
Sobel5      Image processing      Mean error
==========  ====================  ====================
"""

from __future__ import annotations

from typing import Callable

from ..api.registry import Registry
from .base import Application, InputBufferSpec
from .gaussian import GAUSSIAN_WEIGHTS, GaussianApp
from .hotspot import HotspotApp, HotspotCoefficients
from .inversion import INVERSION_MAX, InversionApp
from .median import MedianApp
from .sobel import SOBEL3_GX, SOBEL3_GY, SOBEL5_GX, SOBEL5_GY, Sobel3App, Sobel5App

#: Registry of application factories, keyed by name.  Third-party apps can
#: add themselves via :func:`register_application` and are then resolvable
#: by every engine: ``PerforationEngine().sweep("my-filter", image)``.
APPLICATIONS: Registry[Callable[[], Application]] = Registry("application", error=KeyError)

for _factory in (GaussianApp, InversionApp, MedianApp, HotspotApp, Sobel3App, Sobel5App):
    APPLICATIONS.register(_factory.name, _factory)

#: Applications whose input is a single grayscale image.
IMAGE_APPS = ("gaussian", "inversion", "median", "sobel3", "sobel5")

#: The order Table 1 lists the applications in.
TABLE1_ORDER = ("gaussian", "median", "hotspot", "inversion", "sobel3", "sobel5")


def register_application(
    name: str, factory: Callable[[], Application] | None = None, *, overwrite: bool = False
):
    """Register an application factory under ``name``.

    Usable directly (``register_application("x", XApp)``) or as a class
    decorator (``@register_application("x")``).
    """
    return APPLICATIONS.register(name, factory, overwrite=overwrite)


def available_applications() -> list[str]:
    """Names of all registered applications."""
    return APPLICATIONS.names()


def get_application(name: str) -> Application:
    """Instantiate a registered application by name."""
    return APPLICATIONS.get(name)()


def all_applications() -> list[Application]:
    """Instantiate every benchmark application (Table 1 order)."""
    return [get_application(name) for name in TABLE1_ORDER]


__all__ = [
    "APPLICATIONS",
    "Application",
    "GAUSSIAN_WEIGHTS",
    "GaussianApp",
    "HotspotApp",
    "HotspotCoefficients",
    "IMAGE_APPS",
    "INVERSION_MAX",
    "InputBufferSpec",
    "InversionApp",
    "MedianApp",
    "SOBEL3_GX",
    "SOBEL3_GY",
    "SOBEL5_GX",
    "SOBEL5_GY",
    "Sobel3App",
    "Sobel5App",
    "TABLE1_ORDER",
    "all_applications",
    "available_applications",
    "get_application",
    "register_application",
]
