"""Payload size accounting and integrity checksums for the simulated-MPI layer.

The communication metering needs the wire size of whatever the algorithms
send.  Sizes follow the paper's convention of ``r = 24`` bytes per sparse
nonzero (two 8-byte indices + one 8-byte value, Sec. IV-A); raw NumPy
arrays count their buffer size; Python scalars count 8 bytes (one word on
the wire); containers sum their elements.

This module also owns per-message integrity: :func:`payload_checksum`
computes a deterministic CRC32 over a payload's content, and
:class:`Envelope` pairs a payload with its checksum for transit.  When a
run has checksums enabled, every
broadcast / point-to-point / all-to-all message travels enveloped and is
verified on receipt; a mismatch (injected corruption) triggers a metered
redelivery instead of silently propagating garbage.  An envelope's wire
size is its payload plus one 8-byte checksum word — metadata only, never
proportional to the payload.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..sparse.matrix import BYTES_PER_NONZERO, SparseMatrix

#: wire size of a Python scalar (int/float/bool) — one 8-byte word.
SCALAR_NBYTES = 8

#: wire size of a per-message checksum (one 8-byte word).
CHECKSUM_NBYTES = 8


def payload_nbytes(obj) -> int:
    """Wire size in bytes of a payload passed through a collective."""
    if obj is None:
        return 0
    if isinstance(obj, Envelope):
        return payload_nbytes(obj.payload) + CHECKSUM_NBYTES
    if isinstance(obj, SparseMatrix):
        # r bytes per nonzero, the paper's accounting (Sec. IV-A).  No
        # indptr term: hypersparse tiles go over the wire in an
        # nnz-proportional format (CombBLAS uses DCSC / coordinate tuples
        # for exactly this reason), so a dense column-pointer array never
        # needs to be transmitted.
        return obj.nnz * BYTES_PER_NONZERO
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating, np.bool_)):
        return SCALAR_NBYTES
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(x) for x in obj)
    # objects exposing nbytes (array-likes)
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    raise TypeError(f"cannot size payload of type {type(obj).__name__}")


# --------------------------------------------------------------------- #
# per-message integrity
# --------------------------------------------------------------------- #


class Envelope:
    """A payload in transit together with its content checksum.

    Built by the sender (:func:`wrap_payload`), verified by each receiver
    (:func:`repro.simmpi.comm.SimComm` unwraps and compares checksums).
    Envelopes never nest.
    """

    __slots__ = ("payload", "crc")

    def __init__(self, payload, crc: int) -> None:
        self.payload = payload
        self.crc = int(crc)

    def __repr__(self) -> str:
        return f"Envelope(crc={self.crc:#010x}, payload={type(self.payload).__name__})"


def wrap_payload(obj) -> Envelope:
    """Envelope ``obj`` with its checksum for transit."""
    if isinstance(obj, Envelope):
        return obj
    return Envelope(obj, payload_checksum(obj))


def payload_checksum(obj) -> int:
    """Deterministic CRC32 over a payload's content.

    Covers the structural arrays of sparse tiles, the raw buffers of
    ndarrays, and recurses through the container types
    :func:`payload_nbytes` accepts.  Cheap (one pass over the bytes) and
    stable across processes and runs — the per-message integrity check of
    the resilience layer.
    """
    return _crc(obj, 0)


def _crc_bytes(data: bytes, crc: int) -> int:
    return zlib.crc32(data, crc)


def _crc_array(arr: np.ndarray, crc: int) -> int:
    crc = _crc_bytes(str(arr.dtype).encode(), crc)
    crc = _crc_bytes(struct.pack("<%dq" % len(arr.shape), *arr.shape), crc)
    return _crc_bytes(np.ascontiguousarray(arr).tobytes(), crc)


def _crc(obj, crc: int) -> int:
    if obj is None:
        return _crc_bytes(b"N", crc)
    if isinstance(obj, SparseMatrix):
        crc = _crc_bytes(struct.pack("<qq", obj.nrows, obj.ncols), crc)
        crc = _crc_array(obj.indptr, crc)
        crc = _crc_array(obj.rowidx, crc)
        return _crc_array(obj.values, crc)
    if isinstance(obj, np.ndarray):
        return _crc_array(obj, crc)
    if isinstance(obj, (bool, np.bool_)):
        return _crc_bytes(b"T" if obj else b"F", crc)
    if isinstance(obj, (int, np.integer)):
        return _crc_bytes(b"i" + str(int(obj)).encode(), crc)
    if isinstance(obj, (float, np.floating)):
        return _crc_bytes(b"f" + struct.pack("<d", float(obj)), crc)
    if isinstance(obj, (bytes, bytearray)):
        return _crc_bytes(bytes(obj), crc)
    if isinstance(obj, str):
        return _crc_bytes(b"s" + obj.encode("utf-8"), crc)
    if isinstance(obj, dict):
        for k, v in obj.items():
            crc = _crc(k, crc)
            crc = _crc(v, crc)
        return crc
    if isinstance(obj, (list, tuple)):
        crc = _crc_bytes(b"l", crc)
        for x in obj:
            crc = _crc(x, crc)
        return crc
    if isinstance(obj, (set, frozenset)):
        # order-independent: XOR of element checksums
        acc = 0
        for x in obj:
            acc ^= _crc(x, 0)
        return _crc_bytes(struct.pack("<I", acc & 0xFFFFFFFF), crc)
    # fall back to the byte size — weak, but keeps unknown array-likes usable
    return _crc_bytes(str(payload_nbytes(obj)).encode(), crc)


def corrupt_copy(obj):
    """A minimally-perturbed copy of ``obj`` whose checksum differs —
    what the fault injector delivers to simulate in-flight corruption.
    The original object is never touched (peers share it by reference)."""
    if isinstance(obj, SparseMatrix) and obj.nnz > 0:
        values = obj.values.copy()
        values[0] += 1.0
        return SparseMatrix(
            obj.nrows, obj.ncols, obj.indptr, obj.rowidx, values,
            sorted_within_columns=obj.sorted_within_columns, validate=False,
        )
    if isinstance(obj, np.ndarray) and obj.size > 0:
        flipped = obj.copy()
        flat = flipped.reshape(-1)
        flat[0] = flat[0] + 1 if flipped.dtype.kind in "iuf" else flat[0]
        return flipped
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return obj + 1
    if isinstance(obj, (bytes, bytearray)) and len(obj) > 0:
        mutated = bytearray(obj)
        mutated[0] ^= 0xFF
        return bytes(mutated)
    if isinstance(obj, str):
        return obj + "\x00"
    if isinstance(obj, (list, tuple)) and obj:
        seq = list(obj)
        seq[0] = corrupt_copy(seq[0])
        return type(obj)(seq) if isinstance(obj, tuple) else seq
    return _Garbled(obj)


class _Garbled:
    """Opaque corruption stand-in for payloads with no natural bit-flip
    (None, empty containers).  Its checksum always differs from the
    original's, so verification still catches it."""

    __slots__ = ("original",)

    def __init__(self, original) -> None:
        self.original = original

    @property
    def nbytes(self) -> int:
        return payload_nbytes(self.original)
