"""Envelope (upper-profile) algebra.

* :mod:`repro.envelope.chain` — representation (:class:`Envelope`).
* :mod:`repro.envelope.merge` — point-wise max with crossing detection
  (the pure-Python reference kernel).
* :mod:`repro.envelope.flat` — vectorized NumPy kernel:
  :class:`FlatEnvelope` structure-of-arrays, batched merge sweeps,
  level-batched construction.
* :mod:`repro.envelope.flat_visibility` — batched NumPy visibility
  kernel (many segment-vs-profile queries in one sweep).
* :mod:`repro.envelope.engine` — kernel selection.
* :mod:`repro.envelope.build` — divide-and-conquer construction (Lemma 3.1).
* :mod:`repro.envelope.visibility` — visible parts of a segment.
* :mod:`repro.envelope.splice` — localised single-segment insertion
  and the window-local :func:`splice_merge`.
* :mod:`repro.envelope.flat_splice` — flat-native incremental insert:
  whole runs go through ``insert_run`` (one compiled call per 256
  inserts when the optional core is built), single inserts through
  :func:`insert_segment_flat` (locate → fused window kernel →
  in-place splice); no tuple materialisation either way.
* :mod:`repro.envelope.flat_fused` — fused visibility+merge window
  kernel: one sweep (scalar or vectorized, cutoff
  :data:`repro.envelope.engine.FLAT_FUSED_CUTOFF`) answers an
  insert's visibility *and* merged window together.
* :mod:`repro.envelope.packed` — packed single-buffer live profile
  (:class:`PackedProfile`): one ``(5, capacity)`` allocation with
  slack at both ends, splices edit it in place (the one live-profile
  layout of the numpy engine).

Engine selection
----------------

Algorithms that merge envelopes accept an ``engine`` keyword (and the
CLI a ``--engine`` flag):

``"python"``
    The reference sweep: walks elementary intervals one at a time.
    Semantic ground truth, zero dependencies.
``"numpy"``
    The flat kernel: union breakpoints by sorted events, covering
    pieces by segmented running maxima, all interval evaluations as
    single array expressions, crossings and output pieces by boolean
    masks.  Independent merges (a divide-and-conquer level, a PCT
    layer) batch into *one* sweep.  Default when NumPy is available.
``None`` / ``"auto"``
    :data:`repro.envelope.engine.DEFAULT_ENGINE`.

The two kernels are exact replicas of each other: same pieces, same
sources, same crossings, same ``ops`` (elementary-interval counts, so
PRAM work/depth accounting is engine-independent).  The property suite
in ``tests/test_envelope_flat.py`` enforces this equivalence on
adversarial inputs; pick an engine purely on wall-clock grounds.

NumPy is an optional dependency: everything except
:mod:`repro.envelope.flat` works without it, and ``engine=None``
degrades to the Python kernel.
"""

from repro.envelope.build import build_envelope, build_envelope_sequential
from repro.envelope.chain import Envelope, EnvelopeBuilder, Piece
from repro.envelope.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    HAVE_NUMPY,
    merge_dispatch,
    resolve_engine,
    visibility_dispatch,
)
from repro.envelope.merge import (
    Crossing,
    MergeResult,
    envelope_breakpoints,
    merge_envelopes,
    merge_many,
)
from repro.envelope.splice import (
    InsertResult,
    SpliceMergeResult,
    insert_segment,
    splice_merge,
)
from repro.envelope.visibility import (
    VisibilityResult,
    VisiblePart,
    visible_parts,
)

__all__ = [
    "Crossing",
    "DEFAULT_ENGINE",
    "ENGINES",
    "Envelope",
    "EnvelopeBuilder",
    "HAVE_NUMPY",
    "InsertResult",
    "MergeResult",
    "Piece",
    "SpliceMergeResult",
    "VisibilityResult",
    "VisiblePart",
    "build_envelope",
    "build_envelope_sequential",
    "envelope_breakpoints",
    "insert_segment",
    "merge_dispatch",
    "merge_envelopes",
    "merge_many",
    "resolve_engine",
    "splice_merge",
    "visibility_dispatch",
    "visible_parts",
]

if HAVE_NUMPY:  # pragma: no branch - numpy ships in the toolchain
    from repro.envelope.flat import (  # noqa: F401
        FlatEnvelope,
        FlatMergeResult,
        build_envelope_flat,
        merge_envelopes_flat,
    )
    from repro.envelope.flat_fused import (  # noqa: F401
        FusedWindowResult,
        fused_insert_window,
        fused_insert_window_flat,
    )
    from repro.envelope.flat_splice import (  # noqa: F401
        FlatInsertResult,
        insert_segment_flat,
    )
    from repro.envelope.flat_visibility import (  # noqa: F401
        FlatVisibility,
        batch_visible_parts,
        visible_parts_flat,
    )
    from repro.envelope.packed import (  # noqa: F401
        PackedProfile,
    )

    __all__ += [
        "FlatEnvelope",
        "FlatInsertResult",
        "FlatMergeResult",
        "PackedProfile",
        "FlatVisibility",
        "FusedWindowResult",
        "batch_visible_parts",
        "build_envelope_flat",
        "fused_insert_window",
        "fused_insert_window_flat",
        "insert_segment_flat",
        "merge_envelopes_flat",
        "visible_parts_flat",
    ]
