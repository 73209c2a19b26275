"""SHA-256 as FIPS 180-4 defines it, in pure Python, for the schema fingerprint.

A schema is a few hundred bytes, a dozen 64-byte blocks.  The standard
library's hash module would load OpenSSL into every process that writes
or reads a model file, which costs more memory and import time than
hashing those blocks in Python.
"""

_MASK = 0xFFFFFFFF

# the first 32 bits of the fractional parts of the square roots of the first
# 8 primes (the initial hash value) and of the cube roots of the first 64
_H0 = (0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A, 0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19)
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of ``data`` as 64 lowercase hex digits."""
    # pad to whole 64-byte blocks: a 1 bit, zeros, and the bit length in 8 bytes
    data = data + b"\x80" + bytes(-(len(data) + 9) % 64) + (8 * len(data)).to_bytes(8, "big")
    state = _H0
    for start in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big") for i in range(start, start + 64, 4)]
        # a sum's low 32 bits depend only on the low 32 bits of its terms, so
        # the bits a left shift pushes past 32 are masked off once, after the sum
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            w.append((w[t - 16] + w[t - 7]
                      + ((x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3)
                      + ((y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10)) & _MASK)
        a, b, c, d, e, f, g, h = state
        for k, wt in zip(_K, w):
            t1 = (h + k + wt + ((e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7))
                  + ((e & f) ^ (~e & g)))
            t2 = (((a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10))
                  + ((a & b) ^ (a & c) ^ (b & c)))
            a, b, c, d, e, f, g, h = (t1 + t2) & _MASK, a, b, c, (d + t1) & _MASK, e, f, g
        state = tuple((s + v) & _MASK for s, v in zip(state, (a, b, c, d, e, f, g, h)))
    return "".join(f"{s:08x}" for s in state)
