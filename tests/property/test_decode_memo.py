"""Property test: memoized ``decode`` is the uncached decoders, exactly.

``decode`` memoizes the fields of each instruction word.  Over every
16-bit parcel, the 32-bit opcode/funct3/funct7 sweep of
``tests/unit/test_translate.py`` and random words seeded from
``REPRO_FUZZ_SEED``, each decode must:

* equal the uncached ``_decode_c``/``_decode32`` result field for field,
  ``addr`` included;
* raise the same :class:`IllegalEncodingError` kind and message;
* return a new object on every call, so mutating one decode never
  leaks into the next.

Every word is decoded twice, so both the filling miss and the hit are
compared.
"""

import os
import random

from repro.isa.decoding import (
    IllegalEncodingError,
    _decode32,
    _decode_c,
    decode,
    instruction_length,
)
from repro.isa.fields import u16, u32

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
RANDOM_WORDS = 20_000


def uncached_decode(data, offset, addr):
    """``decode`` as it was before memoization."""
    if offset + 2 > len(data):
        raise IllegalEncodingError("truncated instruction stream", kind="truncated")
    parcel = u16(data, offset)
    if instruction_length(parcel) == 2:
        instr = _decode_c(parcel)
    else:
        if offset + 4 > len(data):
            raise IllegalEncodingError("truncated 32-bit instruction", kind="truncated")
        instr = _decode32(u32(data, offset))
    instr.addr = addr
    return instr


def outcome(fn, data, offset, addr):
    try:
        return fn(data, offset, addr)
    except IllegalEncodingError as exc:
        return ("illegal", exc.kind, str(exc))


def check(data: bytes, offset: int = 0, addr=None) -> None:
    expected = outcome(uncached_decode, data, offset, addr)
    first = outcome(decode, data, offset, addr)
    assert first == expected, (data.hex(), offset)
    if isinstance(expected, tuple):
        assert outcome(decode, data, offset, addr) == expected
        return
    first.rd = first.imm = first.addr = -1  # callers may mutate a decode
    second = outcome(decode, data, offset, addr)
    assert second is not first
    assert second == expected, (data.hex(), offset)


def test_every_parcel():
    rng = random.Random(FUZZ_SEED)
    for parcel in range(1 << 16):
        check(parcel.to_bytes(2, "little"), addr=rng.choice((None, 2 * parcel)))


def test_opcode_funct_sweep():
    for opcode in range(0b11, 1 << 7, 4):
        for funct3 in range(8):
            for funct7 in range(1 << 7):
                for rd, rs1, rs2 in ((0, 0, 0), (0, 0, 1), (5, 6, 0), (5, 6, 7)):
                    word = ((funct7 << 25) | (rs2 << 20) | (rs1 << 15)
                            | (funct3 << 12) | (rd << 7) | opcode)
                    check(word.to_bytes(4, "little"), addr=0x1_0000 + 4 * funct7)


def test_random_words():
    rng = random.Random(FUZZ_SEED)
    for _ in range(RANDOM_WORDS):
        data = rng.randbytes(rng.choice((2, 3, 4, 6, 8)))
        offset = rng.randrange(0, len(data))
        check(data, offset, addr=rng.choice((None, rng.getrandbits(64))))
