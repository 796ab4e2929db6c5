"""Seeded property/differential tests for the ported crypto.

The paper's port had no room for a crypto test battery on the target;
the reproduction does.  Every case here draws randomized inputs from a
fixed-seed ``random.Random`` (reproducible by construction, no new
dependencies) and checks the port against an independent authority:

* the two AES implementations against *each other* (a table lookup bug
  that self-inverts would survive a round-trip test but not this),
* the from-scratch SHA-1/MD5 ports, HMAC over them, and the host hash
  classes issl uses, all against ``hashlib``/``hmac``,
* block modes round-trip across random key/plaintext/length choices,
* corrupted ciphertext must *fail* -- never silently decrypt to the
  original -- which is the property the issl MAC teardown stands on.
"""

import hashlib
import hmac as py_hmac
import random

import pytest

from repro.crypto.aes_ttable import AesTTable
from repro.crypto.hmac import (
    Hmac,
    constant_time_equal,
    hmac_md5,
    hmac_sha1,
)
from repro.crypto.md5 import Md5, ReferenceMd5, md5
from repro.crypto.modes import (
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    ctr_xor,
    ecb_decrypt,
    ecb_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.rijndael import Rijndael
from repro.crypto.sha1 import ReferenceSha1, Sha1, sha1

SEED = 20030310  # the paper's DATE 2003 session, fixed forever
CASES = 40

KEY_SIZES = (16, 24, 32)


def _rng() -> random.Random:
    return random.Random(SEED)


def _rand_bytes(rng: random.Random, n: int) -> bytes:
    return rng.randbytes(n)


class TestAesDifferential:
    """Reference Rijndael vs the T-table port, same inputs."""

    # Every key size runs CASES blocks, so both unrolled final rounds
    # are checked after 10, 12 and 14 rounds.

    def test_encrypt_block_agrees(self):
        rng = _rng()
        for key_size in KEY_SIZES:
            for _ in range(CASES):
                key = _rand_bytes(rng, key_size)
                block = _rand_bytes(rng, 16)
                assert (AesTTable(key).encrypt_block(block)
                        == Rijndael(key).encrypt_block(block))

    def test_decrypt_block_agrees(self):
        rng = _rng()
        for key_size in KEY_SIZES:
            for _ in range(CASES):
                key = _rand_bytes(rng, key_size)
                block = _rand_bytes(rng, 16)
                assert (AesTTable(key).decrypt_block(block)
                        == Rijndael(key).decrypt_block(block))

    def test_round_trip_both_implementations(self):
        rng = _rng()
        for _ in range(CASES):
            key = _rand_bytes(rng, rng.choice(KEY_SIZES))
            block = _rand_bytes(rng, 16)
            for implementation in (AesTTable, Rijndael):
                cipher = implementation(key)
                assert cipher.decrypt_block(
                    cipher.encrypt_block(block)
                ) == block


class TestSlicedDecryptDifferential:
    """The byte-sliced decrypt runs every block of a record at once, so
    a lane mask, a rotation or a round key out of order can corrupt
    bytes at block and column boundaries that a one-block test never
    reaches.  Reference Rijndael decrypts each block on its own."""

    BLOCK_COUNTS = tuple(range(1, 21)) + (64, 192, 257)

    def _ciphertexts(self, rng: random.Random, blocks: int):
        # One random record, plus one of alternating all-zero and
        # all-one columns: a mask that let a shift carry bytes across a
        # lane or block boundary changes it.
        edges = bytes(0xFF if (i // 4) % 2 else 0x00
                      for i in range(16 * blocks))
        return _rand_bytes(rng, 16 * blocks), edges

    def test_ecb_and_cbc_match_reference_per_block(self):
        rng = _rng()
        for key_size in KEY_SIZES:
            for blocks in self.BLOCK_COUNTS:
                key = _rand_bytes(rng, key_size)
                iv = _rand_bytes(rng, 16)
                sliced, reference = AesTTable(key), Rijndael(key)
                for ciphertext in self._ciphertexts(rng, blocks):
                    expected = b"".join(
                        reference.decrypt_block(ciphertext[i: i + 16])
                        for i in range(0, len(ciphertext), 16))
                    assert ecb_decrypt(sliced, ciphertext) == expected
                    chained = bytes(
                        a ^ b for a, b in zip(
                            expected, iv + ciphertext[:-16]))
                    assert cbc_decrypt(sliced, iv, ciphertext) == chained

    def test_sliced_decrypt_inverts_encrypt_every_block(self):
        rng = _rng()
        for key_size in KEY_SIZES:
            cipher = AesTTable(_rand_bytes(rng, key_size))
            iv = _rand_bytes(rng, 16)
            plaintext = _rand_bytes(rng, 16 * 257)
            assert cbc_decrypt(
                cipher, iv, cbc_encrypt(cipher, iv, plaintext)
            ) == plaintext

    def test_empty_and_partial_input(self):
        cipher = AesTTable(bytes(16))
        assert cbc_decrypt(cipher, bytes(16), b"") == b""
        assert ecb_decrypt(cipher, b"") == b""
        with pytest.raises(ValueError):
            cipher.decrypt_blocks(bytes(17))
        with pytest.raises(ValueError):
            cipher.decrypt_block(bytes(32))


class TestModesProperties:
    def test_ecb_cbc_round_trip_random_lengths(self):
        rng = _rng()
        for _ in range(CASES):
            cipher = AesTTable(_rand_bytes(rng, rng.choice(KEY_SIZES)))
            iv = _rand_bytes(rng, 16)
            plaintext = _rand_bytes(rng, rng.randrange(0, 200))
            padded = pkcs7_pad(plaintext, 16)
            assert pkcs7_unpad(
                ecb_decrypt(cipher, ecb_encrypt(cipher, padded)), 16
            ) == plaintext
            assert pkcs7_unpad(
                cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, padded)),
                16,
            ) == plaintext

    def test_ctr_is_an_involution(self):
        rng = _rng()
        for _ in range(CASES):
            cipher = AesTTable(_rand_bytes(rng, rng.choice(KEY_SIZES)))
            nonce = _rand_bytes(rng, 16)
            data = _rand_bytes(rng, rng.randrange(0, 200))
            assert ctr_xor(
                cipher, nonce, ctr_xor(cipher, nonce, data)
            ) == data

    def test_cbc_matches_its_definition(self):
        # C_i = E(P_i xor C_{i-1}), C_0 = IV, written out per byte, at
        # every Rijndael block size.
        rng = _rng()
        for block_bits in (128, 192, 256):
            bs = block_bits // 8
            for _ in range(CASES // 4):
                cipher = Rijndael(_rand_bytes(rng, 16), block_bits)
                iv = _rand_bytes(rng, bs)
                plaintext = _rand_bytes(rng, bs * rng.randrange(1, 5))
                expected, prev = b"", iv
                for i in range(0, len(plaintext), bs):
                    prev = cipher.encrypt_block(bytes(
                        a ^ b for a, b in zip(plaintext[i: i + bs], prev)))
                    expected += prev
                assert cbc_encrypt(cipher, iv, plaintext) == expected
                assert cbc_decrypt(cipher, iv, expected) == plaintext

    def test_cbc_differs_from_ecb_on_repeated_blocks(self):
        rng = _rng()
        cipher = AesTTable(_rand_bytes(rng, 16))
        iv = _rand_bytes(rng, 16)
        repeated = _rand_bytes(rng, 16) * 4
        ecb = ecb_encrypt(cipher, repeated)
        cbc = cbc_encrypt(cipher, iv, repeated)
        assert ecb[:16] == ecb[16:32]  # ECB leaks the repetition...
        assert cbc[:16] != cbc[16:32]  # ...CBC must not


def _hash_lengths(rng: random.Random) -> list[int]:
    # Lengths straddling the 64-byte block boundary and beyond.
    lengths = [0, 1, 55, 56, 63, 64, 65, 127, 128]
    return lengths + [rng.randrange(0, 500) for _ in range(CASES)]


def _streamed(hash_cls, data: bytes, rng: random.Random):
    """Feed ``data`` in random pieces, copying the state midway; returns
    the copy's digest after the rest of the data."""
    cut = rng.randrange(len(data) + 1)
    h = hash_cls(data[:cut // 2])
    h.update(data[cut // 2: cut])
    clone = h.copy()
    clone.update(data[cut:])
    h.update(b"divergent")  # must not leak into the copy
    return clone.digest()


class TestHashDifferential:
    """The hand-ported digests -- and the host classes issl hashes with
    -- against the platform's own."""

    def test_sha1_matches_hashlib(self):
        rng = _rng()
        for length in _hash_lengths(rng):
            data = _rand_bytes(rng, length)
            expected = hashlib.sha1(data).digest()
            for cls in (ReferenceSha1, Sha1):
                assert cls(data).digest() == expected
                assert _streamed(cls, data, rng) == expected
            assert sha1(data) == expected

    def test_md5_matches_hashlib(self):
        rng = _rng()
        for length in _hash_lengths(rng):
            data = _rand_bytes(rng, length)
            expected = hashlib.md5(data).digest()
            for cls in (ReferenceMd5, Md5):
                assert cls(data).digest() == expected
                assert _streamed(cls, data, rng) == expected
            assert md5(data) == expected

    def test_hmac_matches_stdlib(self):
        rng = _rng()
        for _ in range(CASES):
            # Keys shorter, equal to, and longer than the block size.
            key = _rand_bytes(rng, rng.choice([0, 1, 16, 64, 65, 200]))
            data = _rand_bytes(rng, rng.randrange(0, 300))
            expected_sha1 = py_hmac.new(key, data, hashlib.sha1).digest()
            expected_md5 = py_hmac.new(key, data, hashlib.md5).digest()
            assert Hmac(key, data, ReferenceSha1).digest() == expected_sha1
            assert Hmac(key, data, ReferenceMd5).digest() == expected_md5
            assert hmac_sha1(key, data) == expected_sha1
            assert hmac_md5(key, data) == expected_md5

    def test_hmac_incremental_matches_oneshot(self):
        rng = _rng()
        for _ in range(10):
            key = _rand_bytes(rng, 20)
            parts = [
                _rand_bytes(rng, rng.randrange(0, 50)) for _ in range(5)
            ]
            for hash_cls in (ReferenceSha1, Sha1):
                mac = Hmac(key, hash_cls=hash_cls)
                for part in parts:
                    mac.update(part)
                assert mac.digest() == hmac_sha1(key, b"".join(parts))


class TestCorruptionMustFail:
    """One flipped bit anywhere in the protected stream must be caught
    -- the property every fault scenario's MAC-teardown check relies
    on."""

    def test_corrupted_cbc_never_yields_original(self):
        rng = _rng()
        for _ in range(CASES):
            cipher = AesTTable(_rand_bytes(rng, 16))
            iv = _rand_bytes(rng, 16)
            plaintext = _rand_bytes(rng, rng.randrange(1, 100))
            ciphertext = bytearray(
                cbc_encrypt(cipher, iv, pkcs7_pad(plaintext, 16))
            )
            position = rng.randrange(len(ciphertext))
            ciphertext[position] ^= 1 << rng.randrange(8)
            try:
                recovered = pkcs7_unpad(
                    cbc_decrypt(cipher, iv, bytes(ciphertext)), 16
                )
            except PaddingError:
                continue  # failing loudly is the good outcome
            assert recovered != plaintext

    def test_mac_catches_every_single_bit_flip(self):
        rng = _rng()
        key = _rand_bytes(rng, 20)
        message = _rand_bytes(rng, 48)
        tag = hmac_sha1(key, message)
        for position in range(len(message)):
            for bit in range(8):
                corrupted = bytearray(message)
                corrupted[position] ^= 1 << bit
                assert not constant_time_equal(
                    hmac_sha1(key, bytes(corrupted)), tag
                )

    def test_constant_time_equal_requires_equality(self):
        rng = _rng()
        for _ in range(CASES):
            data = _rand_bytes(rng, rng.randrange(1, 40))
            assert constant_time_equal(data, bytes(data))
            assert not constant_time_equal(data, data + b"\x00")


def test_seed_is_pinned():
    """The whole module is reproducible: same seed, same draws."""
    assert _rng().randbytes(8) == random.Random(SEED).randbytes(8)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v"])
