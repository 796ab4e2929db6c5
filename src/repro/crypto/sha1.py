"""SHA-1 (RFC 3174): the host's hash and the from-scratch port.

issl's record layer needs a MAC; SSL 3.0-era stacks used MD5 and SHA-1.
Both classes here stream with the usual ``update``/``digest`` interface
so the record layer can MAC without buffering whole messages.

:class:`Sha1` is what issl hashes with: a thin wrapper over CPython's
builtin ``_sha1`` module.  ``hashlib`` is only the fallback for an
interpreter built without that module, because importing it loads
OpenSSL's ``_hashlib`` (several MB of resident memory).
:class:`ReferenceSha1` is the from-scratch port, kept as the port
artifact and as the oracle the differential tests check :class:`Sha1`
against.  Neither feeds simulated time: what hashing costs the emulated
board is charged by :class:`repro.issl.costmodel.CryptoCostModel`.
"""

from __future__ import annotations

import struct

try:
    from _sha1 import sha1 as _native_sha1
except ImportError:  # pragma: no cover - interpreter without _sha1
    from hashlib import sha1 as _native_sha1

_MASK = 0xFFFFFFFF


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK


class Sha1:
    """Streaming SHA-1 hash over the interpreter's native code."""

    digest_size = 20
    block_size = 64

    def __init__(self, data: bytes = b""):
        self._h = _native_sha1()
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Sha1":
        self._h.update(data)
        return self

    def copy(self) -> "Sha1":
        clone = Sha1.__new__(Sha1)
        clone._h = self._h.copy()
        return clone

    def digest(self) -> bytes:
        return self._h.digest()

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class ReferenceSha1:
    """Streaming SHA-1 hash, implemented from scratch."""

    digest_size = 20
    block_size = 64

    def __init__(self, data: bytes = b""):
        self._h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "ReferenceSha1":
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def _compress(self, chunk: bytes) -> None:
        # Every MACed record pays several compressions, so the round
        # loop is split per stage with the rotations inlined: same
        # arithmetic as the single branchy loop, minus ~100 Python
        # calls and ~160 stage tests per block.  ``a << 5`` is left
        # unmasked -- the stray high bits sit above bit 31 and the
        # final ``& _MASK`` on the sum discards them.
        w = list(struct.unpack(">16L", chunk))
        append = w.append
        for i in range(16, 80):
            x = w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]
            append(((x << 1) | (x >> 31)) & _MASK)
        a, b, c, d, e = self._h
        for i in range(20):
            a, b, c, d, e = (
                (((a << 5) | (a >> 27)) + ((b & c) | (~b & d))
                 + e + 0x5A827999 + w[i]) & _MASK,
                a, ((b << 30) | (b >> 2)) & _MASK, c, d,
            )
        for i in range(20, 40):
            a, b, c, d, e = (
                (((a << 5) | (a >> 27)) + (b ^ c ^ d)
                 + e + 0x6ED9EBA1 + w[i]) & _MASK,
                a, ((b << 30) | (b >> 2)) & _MASK, c, d,
            )
        for i in range(40, 60):
            a, b, c, d, e = (
                (((a << 5) | (a >> 27)) + ((b & c) | (b & d) | (c & d))
                 + e + 0x8F1BBCDC + w[i]) & _MASK,
                a, ((b << 30) | (b >> 2)) & _MASK, c, d,
            )
        for i in range(60, 80):
            a, b, c, d, e = (
                (((a << 5) | (a >> 27)) + (b ^ c ^ d)
                 + e + 0xCA62C1D6 + w[i]) & _MASK,
                a, ((b << 30) | (b >> 2)) & _MASK, c, d,
            )
        self._h = [(x + y) & _MASK for x, y in zip(self._h, (a, b, c, d, e))]

    def copy(self) -> "ReferenceSha1":
        clone = ReferenceSha1()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        clone = self.copy()
        bit_len = clone._length * 8
        clone.update(b"\x80")
        while len(clone._buffer) != 56:
            clone.update(b"\x00")
        # The final update consumes the buffer through _compress.
        clone._buffer += struct.pack(">Q", bit_len)
        clone._compress(clone._buffer)
        return struct.pack(">5L", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of ``data``."""
    return Sha1(data).digest()
