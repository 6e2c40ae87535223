"""Retired: the sampled-pivot (1+ε) hopset.  Graphs without small
separators are served exactly by ``mode="direct"`` (:mod:`repro.core.direct`);
these names remain so that old imports get a pointed error."""

from .augment import HopsetAugmentation

__all__ = ["HopsetAugmentation", "build_hopset", "replay_hopset"]

_REMOVED = "removed with the (1+eps) hopset; use mode='direct', which answers exactly"


def build_hopset(*args, **kwargs):
    """Removed: raises.  Build with ``mode="direct"`` instead."""
    raise RuntimeError(f"build_hopset was {_REMOVED}")


def replay_hopset(*args, **kwargs):
    """Removed: raises.  A direct-tier reweight rebinds G's relaxer."""
    raise RuntimeError(f"replay_hopset was {_REMOVED}")
