"""Bit-manipulation helpers shared by the encoder and decoder.

All helpers operate on plain Python ints treated as fixed-width
two's-complement values.  Encoders validate immediate ranges eagerly so
layout bugs in the rewriter surface as exceptions at patch time rather
than as silently corrupted binaries.
"""

from __future__ import annotations


def bits(value: int, hi: int, lo: int) -> int:
    """Extract bits ``hi..lo`` (inclusive, hi >= lo) of *value*."""
    if hi < lo:
        raise ValueError(f"invalid bit range {hi}..{lo}")
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)


def bit(value: int, pos: int) -> int:
    """Extract the single bit at *pos*."""
    return (value >> pos) & 1


def sign_extend(value: int, width: int) -> int:
    """Sign-extend the low *width* bits of *value* to a Python int."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def to_signed64(value: int) -> int:
    """Wrap *value* into signed 64-bit two's-complement range."""
    return sign_extend(value, 64)


def to_unsigned64(value: int) -> int:
    """Wrap *value* into unsigned 64-bit range."""
    return value & 0xFFFFFFFFFFFFFFFF


def fits_signed(value: int, width: int) -> bool:
    """True if *value* fits in a signed immediate of *width* bits."""
    return -(1 << (width - 1)) <= value < (1 << (width - 1))


def fits_unsigned(value: int, width: int) -> bool:
    """True if *value* fits in an unsigned immediate of *width* bits."""
    return 0 <= value < (1 << width)


def check_signed(value: int, width: int, what: str) -> int:
    """Validate a signed immediate, returning it unchanged."""
    if not fits_signed(value, width):
        raise ValueError(f"{what}={value:#x} does not fit in signed {width}-bit field")
    return value


def check_unsigned(value: int, width: int, what: str) -> int:
    """Validate an unsigned immediate, returning it unchanged."""
    if not fits_unsigned(value, width):
        raise ValueError(f"{what}={value:#x} does not fit in unsigned {width}-bit field")
    return value


def check_aligned(value: int, align: int, what: str) -> int:
    """Validate that *value* is a multiple of *align*."""
    if value % align:
        raise ValueError(f"{what}={value:#x} must be {align}-byte aligned")
    return value


def split_hi_lo(offset: int) -> tuple[int, int]:
    """Split a 32-bit pc-relative *offset* into (auipc hi20, lo12) parts.

    The lo12 part is sign-extended by the consuming instruction, so hi20
    absorbs the carry: ``hi20 << 12 + sign_extend(lo12, 12) == offset``.
    """
    check_signed(offset, 32, "pc-relative offset")
    lo = sign_extend(offset & 0xFFF, 12)
    hi = (offset - lo) >> 12
    check_signed(hi, 20, "auipc hi20")
    return hi & 0xFFFFF, lo


def u16(data: bytes | bytearray | memoryview, off: int = 0) -> int:
    """Read a little-endian 16-bit parcel."""
    return data[off] | (data[off + 1] << 8)


def u32(data: bytes | bytearray | memoryview, off: int = 0) -> int:
    """Read a little-endian 32-bit word."""
    return data[off] | (data[off + 1] << 8) | (data[off + 2] << 16) | (data[off + 3] << 24)


def p16(value: int) -> bytes:
    """Pack a 16-bit parcel little-endian."""
    return bytes((value & 0xFF, (value >> 8) & 0xFF))


def p32(value: int) -> bytes:
    """Pack a 32-bit word little-endian."""
    return bytes((value & 0xFF, (value >> 8) & 0xFF, (value >> 16) & 0xFF, (value >> 24) & 0xFF))
