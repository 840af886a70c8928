"""The one spelling of "off" for the library's environment variables.

``REPRO_TRACE``, ``REPRO_METRICS`` and ``REPRO_TUNING_DB`` (and the
tuning database's ``db=`` argument) are switched off by an empty value or
any of :data:`DISABLED_VALUES`, in any case and with surrounding blanks
ignored.
"""

from __future__ import annotations

DISABLED_VALUES = frozenset({"", "0", "off", "none", "disable", "disabled"})


def switched_off(value: str) -> bool:
    """Whether ``value``, in any case and blanks aside, is in :data:`DISABLED_VALUES`."""
    return value.strip().lower() in DISABLED_VALUES
