"""repro.compact — streaming trace redundancy suppression and codec.

Trace volume is the binding constraint of complete profiling at scale
(the paper's 2 MB/s-per-processor estimate); most of that volume is
structural redundancy — the same loop body shape recorded verbatim
every iteration.  This package removes the redundancy *losslessly*:

* :mod:`repro.compact.suppress` — an on-line tandem-repeat detector
  that folds repeated record subsequences (generalising
  ``BatchPairRecord`` to arbitrary loop bodies), plus
  :func:`fold_ring` for bounded ring buffers;
* :mod:`repro.compact.varint` — LEB128/zigzag integer framing and a
  second-order IEEE-754 bit-pattern delta codec for timestamps (hot
  loops cost ~1 byte per timestamp after warm-up);
* :mod:`repro.compact.container` — the sealed container under VGVZ and
  RRLG, and the one :class:`DecodeError` every decoder raises;
* :mod:`repro.compact.codec` — the VGVZ binary on-disk format with a
  streaming writer/reader pair and a strict round-trip guarantee:
  ``decompress(compress(stream)) == stream``, record for record.

Everything here is postmortem/off-path: the simulator's hot paths are
untouched, nothing costs anything unless a caller explicitly compresses
a trace or constructs a compacting tracer, and figure outputs are
byte-identical with the whole layer unused.

The package namespace re-exports only the dependency-free
:mod:`~repro.compact.suppress`, :mod:`~repro.compact.varint` and
:class:`DecodeError`, so the observation and replay layers can import
the varint codec and the container at module level; the VGVZ codec
builds on :mod:`repro.vt` and is imported as :mod:`repro.compact.codec`.
"""

from .suppress import DEFAULT_MAX_WINDOW, Fold, RepeatSuppressor, fold_ring
from .varint import (
    DecodeError,
    DeltaDecoder,
    DeltaEncoder,
    decode_uvarint,
    encode_uvarint,
    unzigzag,
    zigzag,
)

__all__ = [
    "Fold",
    "RepeatSuppressor",
    "fold_ring",
    "DEFAULT_MAX_WINDOW",
    "DecodeError",
    "DeltaEncoder",
    "DeltaDecoder",
    "encode_uvarint",
    "decode_uvarint",
    "zigzag",
    "unzigzag",
]
