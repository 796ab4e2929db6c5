"""AES (128-bit block), the "hand-optimized" implementation: T-table
encryption, byte-sliced decryption.

The paper compared a straightforward C port of Rijndael against a
hand-coded assembly version supplied by Rabbit Semiconductor and found
the assembly more than an order of magnitude faster.  At the Python
library level this module plays the optimized role.  (The cycle-accurate
reproduction of the experiment runs on the emulated Rabbit -- see
``repro.rabbit.programs``.)

Encryption is the classic 32-bit-word, four-table formulation in which
SubBytes, ShiftRows and MixColumns collapse into four table lookups and
three XORs per column per round.  CBC encryption chains every block
through the previous ciphertext, so it runs one block at a time.

Decryption is byte-sliced: CBC decryption's blocks are independent, so
:meth:`AesTTable.decrypt_blocks` takes a whole record as one big-endian
integer and runs every round over all of its blocks at once.
InvSubBytes and the InvMixColumns coefficients are ``bytes.translate``
passes over the record, InvShiftRows is six lane-masked shifts, and
AddRoundKey XORs the round key repeated once per block.  The Python
interpreter then pays per round, not per byte or per block.

Only the AES profile of Rijndael (Nb = 4) is optimized; issl's 192/256-bit
*blocks* stay on the reference implementation, mirroring the paper's
port, which dropped everything but 128-bit keys and blocks.
"""

from __future__ import annotations

from repro.crypto.gf import GMUL_TABLES, gmul, INV_SBOX, SBOX
from repro.crypto.rijndael import expand_key, RijndaelError

_MASK = 0xFFFFFFFF


def _rotr8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & _MASK


def _build_enc_tables() -> list[list[int]]:
    t0 = []
    for x in range(256):
        s = SBOX[x]
        t0.append(
            (gmul(s, 2) << 24 | s << 16 | s << 8 | gmul(s, 3)) & _MASK
        )
    tables = [t0]
    for _ in range(3):
        tables.append([_rotr8(w) for w in tables[-1]])
    return tables


_TE = _build_enc_tables()


# -- byte-sliced inverse cipher ---------------------------------------------
# Block byte i sits at row i % 4, column i // 4 (FIPS-197), so each column
# is one big-endian 32-bit lane with row 0 in its top byte.  The lane
# masks below are one block's worth; a call repeats them once per block.

def _block_mask(keep) -> bytes:
    return bytes(0xFF if keep(i // 4, i % 4) else 0 for i in range(16))


#: InvShiftRows moves row r from column c to column (c + r) % 4.  Bytes
#: with c + r < 4 move right by 32*r bits; the ones that wrap around move
#: left by 128 - 32*r bits.  Each mask keeps the destination bytes one of
#: the two shifts fills, which also drops what crossed a block boundary.
_ROW0 = _block_mask(lambda col, row: row == 0)
_RIGHT = [_block_mask(lambda col, row, r=r: row == r and col >= r)
          for r in (1, 2, 3)]
_LEFT = [_block_mask(lambda col, row, r=r: row == r and col < r)
         for r in (1, 2, 3)]

#: Rotating every lane left by 8 bits: ``(x << 8) & _ROT_HI`` keeps the
#: three low bytes moved up, ``(x >> 24) & _ROT_LO`` the top byte moved
#: down, neither what spilled into the next lane.
_ROT_HI = b"\xff\xff\xff\x00" * 4
_ROT_LO = b"\x00\x00\x00\xff" * 4

_MUL9, _MUL11 = GMUL_TABLES[9], GMUL_TABLES[11]
_MUL13, _MUL14 = GMUL_TABLES[13], GMUL_TABLES[14]


#: Expanded-schedule cache.  issl constructs a fresh cipher object per
#: record-layer direction while the underlying keys repeat for the life
#: of a session, so the key expansion is shared across instances.
#: Entries are ``(rk, nr, round_keys)``: the encryption words and the
#: ``nr + 1`` round keys as 16-byte strings for the sliced decrypt;
#: neither is mutated.  Bounded crudely: a full cache is cleared, which
#: only costs re-expansion.
_SCHEDULE_CACHE: dict[bytes, tuple] = {}
_SCHEDULE_CACHE_MAX = 256


class AesTTable:
    """AES with precomputed encryption tables and a byte-sliced decrypt.

    Accepts 128-, 192- or 256-bit keys; the block is always 16 bytes.
    Produces byte-identical results to :class:`repro.crypto.rijndael.Rijndael`
    with ``block_bits=128``.
    """

    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise RijndaelError(f"key must be 16/24/32 bytes, got {len(key)}")
        key = bytes(key)
        entry = _SCHEDULE_CACHE.get(key)
        if entry is None:
            words = expand_key(key, block_bits=128)
            rk = [
                (w[0] << 24 | w[1] << 16 | w[2] << 8 | w[3]) & _MASK
                for w in words
            ]
            flat = bytes(b for w in words for b in w)
            round_keys = [flat[i: i + 16] for i in range(0, len(flat), 16)]
            entry = (rk, len(words) // 4 - 1, round_keys)
            if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
                _SCHEDULE_CACHE.clear()
            _SCHEDULE_CACHE[key] = entry
        self._rk, self._nr, self._round_keys = entry
        self.key = key

    @property
    def rounds(self) -> int:
        """Number of rounds (Nr)."""
        return self._nr

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise RijndaelError(f"block must be 16 bytes, got {len(block)}")
        rk = self._rk
        te0, te1, te2, te3 = _TE
        s = int.from_bytes(block, "big")
        s0 = (s >> 96) ^ rk[0]
        s1 = ((s >> 64) & _MASK) ^ rk[1]
        s2 = ((s >> 32) & _MASK) ^ rk[2]
        s3 = (s & _MASK) ^ rk[3]
        # Tables and round keys are 32-bit, so the state words stay
        # below 2**32 and their top byte needs no mask.
        k = 4
        for _ in range(self._nr - 1):
            t0 = (
                te0[s0 >> 24]
                ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF]
                ^ te3[s3 & 0xFF]
                ^ rk[k]
            )
            t1 = (
                te0[s1 >> 24]
                ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF]
                ^ te3[s0 & 0xFF]
                ^ rk[k + 1]
            )
            t2 = (
                te0[s2 >> 24]
                ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF]
                ^ te3[s1 & 0xFF]
                ^ rk[k + 2]
            )
            t3 = (
                te0[s3 >> 24]
                ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF]
                ^ te3[s2 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        # Final round (no MixColumns), unrolled: column c takes row r
        # from state word (c + r) % 4; the four words pack into one int.
        sbox = SBOX
        w0 = (sbox[s0 >> 24] << 24 | sbox[(s1 >> 16) & 0xFF] << 16
              | sbox[(s2 >> 8) & 0xFF] << 8 | sbox[s3 & 0xFF]) ^ rk[k]
        w1 = (sbox[s1 >> 24] << 24 | sbox[(s2 >> 16) & 0xFF] << 16
              | sbox[(s3 >> 8) & 0xFF] << 8 | sbox[s0 & 0xFF]) ^ rk[k + 1]
        w2 = (sbox[s2 >> 24] << 24 | sbox[(s3 >> 16) & 0xFF] << 16
              | sbox[(s0 >> 8) & 0xFF] << 8 | sbox[s1 & 0xFF]) ^ rk[k + 2]
        w3 = (sbox[s3 >> 24] << 24 | sbox[(s0 >> 16) & 0xFF] << 16
              | sbox[(s1 >> 8) & 0xFF] << 8 | sbox[s2 & 0xFF]) ^ rk[k + 3]
        return (w0 << 96 | w1 << 64 | w2 << 32 | w3).to_bytes(16, "big")


    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise RijndaelError(f"block must be 16 bytes, got {len(block)}")
        return self.decrypt_blocks(block)

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt every 16-byte block of ``data`` (ECB), all at once."""
        width = len(data)
        if width % 16:
            raise RijndaelError(
                f"data must be whole 16-byte blocks, got {width} bytes")
        n = width // 16
        # Per call, not cached per length: the masks are a record's size.
        as_int = int.from_bytes
        row0 = as_int(_ROW0 * n, "big")
        right1, right2, right3 = [as_int(mask * n, "big") for mask in _RIGHT]
        left1, left2, left3 = [as_int(mask * n, "big") for mask in _LEFT]
        hi, lo = as_int(_ROT_HI * n, "big"), as_int(_ROT_LO * n, "big")
        keys = [as_int(key * n, "big") for key in self._round_keys]
        rnd = self._nr
        s = as_int(data, "big") ^ keys[rnd]
        while rnd:
            rnd -= 1
            # InvShiftRows, then InvSubBytes and AddRoundKey.
            s = (s & row0
                 | (s >> 32) & right1 | (s << 96) & left1
                 | (s >> 64) & right2 | (s << 64) & left2
                 | (s >> 96) & right3 | (s << 32) & left3)
            s = as_int(s.to_bytes(width, "big").translate(INV_SBOX), "big") \
                ^ keys[rnd]
            if rnd:
                # InvMixColumns: row r of a column becomes
                # 14*a[r] ^ 11*a[r+1] ^ 13*a[r+2] ^ 9*a[r+3], summed
                # Horner-style, one lane rotation per coefficient.
                b = s.to_bytes(width, "big")
                x = as_int(b.translate(_MUL9), "big")
                x = as_int(b.translate(_MUL13), "big") \
                    ^ ((x << 8) & hi | (x >> 24) & lo)
                x = as_int(b.translate(_MUL11), "big") \
                    ^ ((x << 8) & hi | (x >> 24) & lo)
                s = as_int(b.translate(_MUL14), "big") \
                    ^ ((x << 8) & hi | (x >> 24) & lo)
        return s.to_bytes(width, "big")
