"""Envelope (upper-profile) algebra.

* :mod:`repro.envelope.chain` — representation (:class:`Envelope`).
* :mod:`repro.envelope.merge` — point-wise max with crossing detection
  (the pure-Python reference kernel).
* :mod:`repro.envelope.flat` — :class:`FlatEnvelope`, the
  structure-of-arrays envelope the array kernels share.
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
  :func:`insert_segment_flat` (locate → the reference scan and merge
  of the window → in-place splice); the live profile stays one packed
  buffer either way.
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
    The array engine: the packed live profile of a sequential run,
    the batched query kernels and — when the optional compiled core
    is built — one C call per 256 inserts, per PCT layer or per
    level of the divide-and-conquer build; what the core does not
    run takes the python reference.  Default when NumPy is
    available.
``None`` / ``"auto"``
    :data:`repro.envelope.engine.DEFAULT_ENGINE`.

The two engines are exact replicas of each other: same pieces, same
sources, same crossings, same ``ops`` (elementary-interval counts, so
PRAM work/depth accounting is engine-independent).  The parity suites
(``tests/test_envelope_flat.py``, the scenario matrix) enforce this
equivalence on adversarial inputs; pick an engine purely on
wall-clock grounds.

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
    resolve_engine,
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
    "merge_envelopes",
    "merge_many",
    "resolve_engine",
    "splice_merge",
    "visible_parts",
]

if HAVE_NUMPY:  # pragma: no branch - numpy ships in the toolchain
    from repro.envelope.flat import (  # noqa: F401
        FlatEnvelope,
    )
    from repro.envelope.flat_splice import (  # noqa: F401
        FlatInsertResult,
        insert_segment_flat,
    )
    from repro.envelope.flat_visibility import (  # noqa: F401
        FlatVisibility,
        batch_visible_parts,
    )
    from repro.envelope.packed import (  # noqa: F401
        PackedProfile,
    )

    __all__ += [
        "FlatEnvelope",
        "FlatInsertResult",
        "PackedProfile",
        "FlatVisibility",
        "batch_visible_parts",
        "insert_segment_flat",
    ]
