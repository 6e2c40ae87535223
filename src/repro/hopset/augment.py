"""Retired: ``HopsetAugmentation`` is the direct tier's augmentation
(:class:`repro.core.direct.DirectAugmentation`) under its old name."""

from ..core.direct import DirectAugmentation as HopsetAugmentation

__all__ = ["HopsetAugmentation"]
