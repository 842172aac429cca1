"""numpy's per-stream normal draws, bit for bit, with the stdlib only.

normal_stream(seed, i) draws what np.random.default_rng(c).normal draws for
the i-th child c of np.random.SeedSequence(seed).spawn(n): SeedSequence's
entropy pool and generate_state, PCG64 (128-bit LCG, XSL-RR output; O'Neill
2014), then numpy's 256-strip ziggurat (Marsaglia and Tsang 2000), whose
tables tools/ziggurat_table.py ships as data/ziggurat.json.
"""

from functools import cache
from math import exp, log1p

from .errors import packaged_json

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MIX_MULT = 0x931E8875  # mix_entropy's hash multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_R = 3.6541528853610087963519472518  # where the tail starts
_INV_R = 0.27366123732975827203338247596


@cache
def _ziggurat() -> tuple:
    """(ki, wi, fi) of data/ziggurat.json, read on the first draw."""
    t = packaged_json("ziggurat.json")
    return t["ki_double"], t["wi_double"], t["fi_double"]


def _words(n: int) -> list:
    """n as little-endian uint32 words, [0] for 0."""
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashed(words, h: int, mult: int = _MIX_MULT) -> tuple:
    """SeedSequence's hashmix of each word in turn: (the mixed words, the next hash state)."""
    mixed = []
    for value in words:
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        mixed.append(value ^ value >> 16)
    return mixed, h


def _mix(x: int, y: int) -> int:
    x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return x ^ x >> 16


@cache
def _seed_pool(seed: int) -> tuple:
    """(pool, hash state, seed words past the fourth) of mix_entropy after the
    steps that depend on the seed alone, which every spawned child shares."""
    words = _words(seed)
    pool, h = _hashed((words + [0, 0, 0])[:4], 0x43B0D7E5)  # pool size 4, first hash state
    for src in range(4):  # each word mixed into the other three
        mixed, h = _hashed([pool[src]] * 3, h)
        for dst, word in zip([d for d in range(4) if d != src], mixed):
            pool[dst] = _mix(pool[dst], word)
    return tuple(pool), h, tuple(words[4:])


def normal_stream(seed: int, i: int):
    """normal(loc, scale) drawing from the i-th spawned child stream of seed."""
    pool, h, rest = _seed_pool(seed)
    for word in (*rest, *_words(i)):
        mixed, h = _hashed([word] * 4, h)
        pool = [_mix(x, y) for x, y in zip(pool, mixed)]
    w, _ = _hashed(pool * 2, 0x8B51F9DD, 0x58F38DED)  # generate_state(4, np.uint64)
    s_hi, s_lo, i_hi, i_lo = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
    inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
    state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _M128

    def next64() -> int:
        nonlocal state
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def next_double() -> float:
        return (next64() >> 11) * (1.0 / 9007199254740992.0)

    def normal(loc: float, scale: float) -> float:
        ki, wi, fi = _ziggurat()
        while True:
            r = next64()
            idx, rabs = r & 0xFF, r >> 9 & 0xFFFFFFFFFFFFF
            x = -(rabs * wi[idx]) if r >> 8 & 1 else rabs * wi[idx]
            if rabs < ki[idx]:
                return loc + scale * x
            if idx == 0:  # the tail, past _R
                while True:
                    xx = -_INV_R * log1p(-next_double())
                    yy = -log1p(-next_double())
                    if yy + yy > xx * xx:
                        return loc + scale * (-(_R + xx) if rabs >> 8 & 1 else _R + xx)
            elif (fi[idx - 1] - fi[idx]) * next_double() + fi[idx] < exp(-0.5 * x * x):
                return loc + scale * x

    return normal
