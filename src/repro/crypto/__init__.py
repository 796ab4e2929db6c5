"""Cryptographic substrate for issl (see DESIGN.md, S6).

GF(2^8) arithmetic, Rijndael with variable key and block sizes, the
optimized AES (T-table encrypt, byte-sliced whole-record decrypt), block
modes, HMAC, a 16-bit-limb bignum, RSA, and PRNGs are implemented here
from scratch.
The hashes come twice: :class:`Sha1` and :class:`Md5`, which issl uses,
wrap the interpreter's builtin ``_sha1``/``_md5`` modules, while the
from-scratch ports :class:`ReferenceSha1` and :class:`ReferenceMd5` are
kept as the port artifact and the oracle the differential tests check
the host classes against (as reference :class:`Rijndael` is for
:class:`AesTTable`).  Host crypto never feeds simulated time: what it
costs the emulated board is charged by
:class:`repro.issl.costmodel.CryptoCostModel`.
"""

from repro.crypto.aes_ttable import AesTTable
from repro.crypto.bignum import BigNum, BignumError, generate_prime, is_probable_prime
from repro.crypto.hmac import Hmac, constant_time_equal, hmac_md5, hmac_sha1
from repro.crypto.kdf import derive_key_block, derive_master_secret, ssl3_prf
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
from repro.crypto.prng import CipherRng, Lcg
from repro.crypto.rijndael import Rijndael, RijndaelError, expand_key
from repro.crypto.rsa import (
    RsaError,
    RsaPrivateKey,
    RsaPublicKey,
    decrypt,
    encrypt,
    generate_keypair,
    sign_raw,
    verify_raw,
)
from repro.crypto.sha1 import ReferenceSha1, Sha1, sha1

__all__ = [
    "AesTTable",
    "BigNum",
    "BignumError",
    "CipherRng",
    "Hmac",
    "Lcg",
    "Md5",
    "PaddingError",
    "ReferenceMd5",
    "ReferenceSha1",
    "Rijndael",
    "RijndaelError",
    "RsaError",
    "RsaPrivateKey",
    "RsaPublicKey",
    "Sha1",
    "cbc_decrypt",
    "cbc_encrypt",
    "constant_time_equal",
    "ctr_xor",
    "decrypt",
    "derive_key_block",
    "derive_master_secret",
    "ecb_decrypt",
    "ecb_encrypt",
    "encrypt",
    "expand_key",
    "generate_keypair",
    "generate_prime",
    "hmac_md5",
    "hmac_sha1",
    "is_probable_prime",
    "md5",
    "pkcs7_pad",
    "pkcs7_unpad",
    "sha1",
    "sign_raw",
    "ssl3_prf",
    "verify_raw",
]
