"""Persistent data structures (paper §1: "our use of persistent
data-structures is somewhat novel in the context of parallel
algorithms").

* :mod:`repro.persistence.rope` — versioned chunked rope of immutable
  packed piece blocks: the one persistent profile store.  Profile
  versions share every chunk outside a splice's y-range, so PCT
  layer-mates share structure (paper Figs. 1/3).
"""

from repro.persistence.rope import (
    Chunk,
    Rope,
    count_shared_chunks,
    rope_from_envelope,
    rope_range_pieces,
    rope_splice_merge,
    rope_value_at,
    rope_visible_parts,
)

__all__ = [
    "Chunk",
    "Rope",
    "count_shared_chunks",
    "rope_from_envelope",
    "rope_range_pieces",
    "rope_splice_merge",
    "rope_value_at",
    "rope_visible_parts",
]
