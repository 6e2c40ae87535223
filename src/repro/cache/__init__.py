"""Content-addressed augmentation cache (see DESIGN.md §7).

Preprocessing dominates end-to-end cost — T1-pre-* put it orders of
magnitude above a single query — yet the augmentation E⁺ is a pure
function of ``(graph, tree, semiring)`` and the builder (Algorithm 4.1
for the exact tier, or the direct tier's G).  This package makes the
cold path as fast as a disk load: :func:`augmentation_key` hashes the
canonicalized inputs into a SHA-256 address, and :class:`AugmentationCache`
is the on-disk store behind ``OracleConfig(cache=...)`` builds and the
``repro-spsp cache`` CLI.  A second entry kind, keyed by
:func:`tree_key`, holds the separator tree a named spec derives, so a
restart skips the decomposition too.
"""

from .keys import augmentation_key, tree_key
from .store import AugmentationCache, default_cache_dir

__all__ = ["augmentation_key", "tree_key", "AugmentationCache", "default_cache_dir"]
