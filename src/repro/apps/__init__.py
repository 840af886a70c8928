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

:data:`APPLICATIONS` is a plain dict of the built-in instances, which
:func:`get_application` resolves names through.
"""

from __future__ import annotations

from .base import Application, InputBufferSpec
from .gaussian import GAUSSIAN_WEIGHTS, GaussianApp
from .hotspot import HotspotApp, HotspotCoefficients
from .inversion import INVERSION_MAX, InversionApp
from .median import MedianApp
from .sobel import SOBEL3_GX, SOBEL3_GY, SOBEL5_GX, SOBEL5_GY, Sobel3App, Sobel5App

#: The built-in applications, keyed by name.  Applications hold no state,
#: so every engine shares these instances: ``engine.sweep("gaussian", image)``.
APPLICATIONS: dict[str, Application] = {
    app.name: app
    for app in (GaussianApp(), InversionApp(), MedianApp(), HotspotApp(), Sobel3App(), Sobel5App())
}

#: Applications whose input is a single grayscale image.
IMAGE_APPS = ("gaussian", "inversion", "median", "sobel3", "sobel5")

#: The order Table 1 lists the applications in.
TABLE1_ORDER = ("gaussian", "median", "hotspot", "inversion", "sobel3", "sobel5")


def available_applications() -> list[str]:
    """Names of the built-in applications."""
    return sorted(APPLICATIONS)


def get_application(name: str) -> Application:
    """The built-in application called ``name`` (a ``KeyError`` if none is)."""
    try:
        return APPLICATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; available: {available_applications()}"
        ) from None


def all_applications() -> list[Application]:
    """Every benchmark application (Table 1 order)."""
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
]
