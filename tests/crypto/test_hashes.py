"""SHA-1 / MD5 / HMAC tests against RFC vectors, hashlib, and streaming
properties.

Every check runs twice: over the from-scratch ports (``ReferenceSha1``,
``ReferenceMd5`` and HMAC built over them), which keeps the port code
honest, and over the host classes issl actually uses.
"""

import hashlib
import hmac as py_hmac
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac import Hmac, constant_time_equal, hmac_md5, hmac_sha1
from repro.crypto.md5 import Md5, ReferenceMd5, md5
from repro.crypto.sha1 import ReferenceSha1, Sha1, sha1

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

SHA1_CLASSES = (ReferenceSha1, Sha1)
MD5_CLASSES = (ReferenceMd5, Md5)
HASH_CLASSES = SHA1_CLASSES + MD5_CLASSES


def _digests(classes, data):
    return [cls(data).digest() for cls in classes]


def test_sha1_rfc3174_vectors():
    vectors = {
        b"abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq":
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    }
    for data, expected in vectors.items():
        assert sha1(data).hex() == expected
        for cls in SHA1_CLASSES:
            assert cls(data).hexdigest() == expected


def test_sha1_empty():
    expected = "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    assert sha1(b"").hex() == expected
    for cls in SHA1_CLASSES:
        assert cls().hexdigest() == expected


def test_md5_rfc1321_vectors():
    vectors = {
        b"": "d41d8cd98f00b204e9800998ecf8427e",
        b"a": "0cc175b9c0f1b6a831c399e269772661",
        b"abc": "900150983cd24fb0d6963f7d28e17f72",
        b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
        b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
    }
    for data, expected in vectors.items():
        assert md5(data).hex() == expected
        for cls in MD5_CLASSES:
            assert cls(data).hexdigest() == expected


def test_sizes_match_between_port_and_host():
    for reference, host in ((ReferenceSha1, Sha1), (ReferenceMd5, Md5)):
        assert (reference.digest_size, reference.block_size) == (
            host.digest_size, host.block_size)


@given(st.binary(max_size=500))
@settings(max_examples=100, deadline=None)
def test_sha1_matches_hashlib(data):
    expected = hashlib.sha1(data).digest()
    assert _digests(SHA1_CLASSES, data) == [expected, expected]
    assert sha1(data) == expected


@given(st.binary(max_size=500))
@settings(max_examples=100, deadline=None)
def test_md5_matches_hashlib(data):
    expected = hashlib.md5(data).digest()
    assert _digests(MD5_CLASSES, data) == [expected, expected]
    assert md5(data) == expected


@given(st.lists(st.binary(max_size=100), max_size=10))
def test_sha1_streaming_equals_oneshot(chunks):
    for cls in SHA1_CLASSES:
        h = cls()
        for chunk in chunks:
            h.update(chunk)
        assert h.digest() == sha1(b"".join(chunks))


@given(st.lists(st.binary(max_size=100), max_size=10))
def test_md5_streaming_equals_oneshot(chunks):
    for cls in MD5_CLASSES:
        h = cls()
        for chunk in chunks:
            h.update(chunk)
        assert h.digest() == md5(b"".join(chunks))


def test_digest_does_not_consume_state():
    for cls in SHA1_CLASSES:
        h = cls(b"hello")
        first = h.digest()
        assert h.digest() == first
        h.update(b" world")
        assert h.digest() == sha1(b"hello world")


def test_copy_is_independent():
    for cls in HASH_CLASSES:
        h = cls(b"base")
        clone = h.copy()
        assert type(clone) is cls
        clone.update(b"more")
        assert h.digest() == cls(b"base").digest()
        assert clone.digest() == cls(b"basemore").digest()
    assert Md5(b"base").copy().digest() == md5(b"base")


@pytest.mark.parametrize("length", [55, 56, 57, 63, 64, 65, 119, 120, 128])
def test_padding_boundaries(length):
    # Lengths that straddle the 64-byte compression boundary.
    data = b"x" * length
    assert _digests(SHA1_CLASSES, data) == [hashlib.sha1(data).digest()] * 2
    assert _digests(MD5_CLASSES, data) == [hashlib.md5(data).digest()] * 2


def test_hmac_rfc2202_sha1():
    vectors = (
        (b"\x0b" * 20, b"Hi There",
         "b617318655057264e28bc0b6fb378c8ef146be00"),
        (b"Jefe", b"what do ya want for nothing?",
         "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    )
    for key, data, expected in vectors:
        assert hmac_sha1(key, data).hex() == expected
        assert Hmac(key, data, ReferenceSha1).hexdigest() == expected


def test_hmac_rfc2202_md5():
    expected = "9294727a3638bb1c13f48ef8158bfc9d"
    assert hmac_md5(b"\x0b" * 16, b"Hi There").hex() == expected
    assert Hmac(b"\x0b" * 16, b"Hi There", ReferenceMd5).hexdigest() == expected


@given(key=st.binary(min_size=1, max_size=128), data=st.binary(max_size=300))
@settings(max_examples=50, deadline=None)
def test_hmac_matches_stdlib(key, data):
    expected_sha1 = py_hmac.new(key, data, hashlib.sha1).digest()
    expected_md5 = py_hmac.new(key, data, hashlib.md5).digest()
    assert Hmac(key, data, ReferenceSha1).digest() == expected_sha1
    assert Hmac(key, data, ReferenceMd5).digest() == expected_md5
    assert hmac_sha1(key, data) == expected_sha1
    assert hmac_md5(key, data) == expected_md5


def test_hmac_long_key_is_hashed():
    key = b"k" * 200
    expected = py_hmac.new(key, b"m", hashlib.sha1).digest()
    assert Hmac(key, b"m", ReferenceSha1).digest() == expected
    assert hmac_sha1(key, b"m") == expected


def test_hmac_streaming():
    for cls in SHA1_CLASSES:
        h = Hmac(b"key", hash_cls=cls)
        h.update(b"part one ")
        h.update(b"part two")
        assert h.digest() == hmac_sha1(b"key", b"part one part two")


def test_constant_time_equal():
    assert constant_time_equal(b"abc", b"abc")
    assert not constant_time_equal(b"abc", b"abd")
    assert not constant_time_equal(b"abc", b"abcd")
    assert constant_time_equal(b"", b"")


#: Runs the issl/redirector import chain and one of each host hash use.
_HASH_USE = """
import sys
import repro.issl
import repro.services.redirector
from repro.crypto.hmac import hmac_sha1
from repro.crypto.kdf import ssl3_prf
from repro.crypto.md5 import md5
hmac_sha1(b"key", b"data")
md5(b"data")
ssl3_prf(b"secret", b"seed", 48)
print("_hashlib" in sys.modules)
"""


@pytest.mark.skipif(
    importlib.util.find_spec("_sha1") is None
    or importlib.util.find_spec("_md5") is None,
    reason="interpreter built without the builtin _sha1/_md5 modules",
)
def test_host_hashes_do_not_load_openssl():
    # hashlib (and stdlib hmac) load OpenSSL's _hashlib, several MB of
    # resident memory; the host classes use the builtin modules instead.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _HASH_USE], capture_output=True, text=True,
        env=env, cwd=REPO, timeout=120, check=True,
    )
    assert result.stdout.strip() == "False"
