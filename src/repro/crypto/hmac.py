"""HMAC (RFC 2104) over any of this package's hash classes."""

from __future__ import annotations

from repro.crypto.md5 import Md5
from repro.crypto.sha1 import Sha1

#: Byte maps XORing every key byte with the outer/inner pad constant.
_OPAD = bytes(b ^ 0x5C for b in range(256))
_IPAD = bytes(b ^ 0x36 for b in range(256))


class Hmac:
    """Keyed-hash message authentication code.

    ``hash_cls`` is a class with the streaming interface of
    :class:`repro.crypto.sha1.Sha1` (``update``/``digest``/``block_size``),
    so the same construction runs over the reference ports too.
    """

    def __init__(self, key: bytes, data: bytes = b"", hash_cls=Sha1):
        self._hash_cls = hash_cls
        block = hash_cls.block_size
        if len(key) > block:
            key = hash_cls(key).digest()
        key = key + b"\x00" * (block - len(key))
        self._okey = key.translate(_OPAD)
        self._inner = hash_cls(key.translate(_IPAD))
        self.digest_size = hash_cls.digest_size
        if data:
            self._inner.update(data)

    def update(self, data: bytes) -> "Hmac":
        self._inner.update(data)
        return self

    def digest(self) -> bytes:
        return self._hash_cls(self._okey + self._inner.digest()).digest()

    def hexdigest(self) -> str:
        return self.digest().hex()


def hmac_sha1(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA1."""
    return Hmac(key, data, Sha1).digest()


def hmac_md5(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-MD5."""
    return Hmac(key, data, Md5).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare MACs without early exit on the first differing byte."""
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0
