"""On-disk container for :class:`~repro.elf.binary.Binary` images.

A minimal ELF-analog ("SELF", *Simulated ELF*) so binaries — including
rewritten ones with their fault/trap tables — can be saved, shipped, and
loaded by the CLI.  Layout: an 8-byte magic, a JSON header (entry, gp,
section/symbol/metadata descriptors), then raw section payloads.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Union

from repro.elf.binary import Binary, Perm, Section

MAGIC = b"SELF\x01\x00\x00\x00"

#: Metadata keys preserved across save/load (plain JSON data only).
_PLAIN_META = ("workload", "variant", "profile", "scale", "has_rvc",
               "stack_top", "stack_size")


class FileFormatError(ValueError):
    """The file is not a valid SELF image."""


def _perm_to_str(perm: Perm) -> str:
    return "".join(
        flag.name.lower() for flag in (Perm.R, Perm.W, Perm.X) if flag in perm
    ) or "-"


def _perm_from_str(text: str) -> Perm:
    perm = Perm.NONE
    for ch in text:
        perm |= {"r": Perm.R, "w": Perm.W, "x": Perm.X, "-": Perm.NONE}[ch]
    return perm


def _chimera_meta_to_json(meta: dict) -> dict:
    from repro.core.fault_table import FaultTable

    out = {
        "gp": meta.get("gp", 0),
        "vregs_base": meta.get("vregs_base", 0),
        "target_profile": meta.get("target_profile", ""),
        "trap_table": {str(k): v for k, v in meta.get("trap_table", {}).items()},
        "migration_unsafe": [list(r) for r in meta.get("migration_unsafe", ())],
    }
    table = meta.get("fault_table")
    if isinstance(table, FaultTable):
        out["fault_table"] = {str(k): v for k, v in table.entries.items()}
    stats = meta.get("stats")
    if stats is not None and hasattr(stats, "as_dict"):
        out["stats"] = stats.as_dict()
    elif isinstance(stats, dict):
        out["stats"] = stats
    records = meta.get("patch_records")
    if records is not None:
        out["patch_records"] = [list(r.as_state()) for r in records]
    return out


def _chimera_meta_from_json(data: dict) -> dict:
    from repro.core.fault_table import FaultTable
    from repro.core.patcher import PatchStats
    from repro.verify.records import PatchRecord

    table = FaultTable()
    for k, v in data.get("fault_table", {}).items():
        table.add(int(k), int(v))
    stats = data.get("stats", {})
    try:
        stats = PatchStats(**stats)
    except TypeError:
        pass  # stats from a newer/older writer: keep the raw dict
    meta = {
        "gp": data.get("gp", 0),
        "vregs_base": data.get("vregs_base", 0),
        "target_profile": data.get("target_profile", ""),
        "trap_table": {int(k): int(v) for k, v in data.get("trap_table", {}).items()},
        "fault_table": table,
        "stats": stats,
        "migration_unsafe": [tuple(r) for r in data.get("migration_unsafe", [])],
    }
    if "patch_records" in data:
        meta["patch_records"] = tuple(
            PatchRecord.from_state(state) for state in data["patch_records"])
    return meta


def _instr_to_json(instr) -> dict:
    return {"mnemonic": instr.mnemonic, "rd": instr.rd, "rs1": instr.rs1,
            "rs2": instr.rs2, "imm": instr.imm, "addr": instr.addr,
            "length": instr.length}


def _instr_from_json(data: dict):
    from repro.isa.instructions import Instruction

    return Instruction(
        data["mnemonic"], rd=data.get("rd"), rs1=data.get("rs1"),
        rs2=data.get("rs2"), imm=data.get("imm"),
        length=data.get("length", 4), addr=data.get("addr"),
    )


def _regen_meta_to_json(meta: dict) -> dict:
    """Safer/Multiverse metadata: check sites + address map + veneers."""
    return {
        "check_sites": {str(k): _instr_to_json(v) for k, v in meta["check_sites"].items()},
        "addr_map": {str(k): v for k, v in meta["addr_map"].items()},
        "veneers": {str(k): v for k, v in meta["veneers"].items()},
        "gp": meta.get("gp", 0),
    }


def _regen_meta_from_json(data: dict) -> dict:
    return {
        "check_sites": {int(k): _instr_from_json(v) for k, v in data["check_sites"].items()},
        "addr_map": {int(k): int(v) for k, v in data["addr_map"].items()},
        "veneers": {int(k): int(v) for k, v in data["veneers"].items()},
        "gp": data.get("gp", 0),
    }


def _armore_meta_to_json(meta: dict) -> dict:
    return {
        "trap_table": {str(k): v for k, v in meta["trap_table"].items()},
        "addr_map": {str(k): v for k, v in meta["addr_map"].items()},
        "trampoline_addrs": list(meta["trampoline_addrs"]),
    }


def _armore_meta_from_json(data: dict) -> dict:
    return {
        "trap_table": {int(k): int(v) for k, v in data["trap_table"].items()},
        "addr_map": {int(k): int(v) for k, v in data["addr_map"].items()},
        "trampoline_addrs": [int(a) for a in data["trampoline_addrs"]],
    }


def save_binary(binary: Binary, path: Union[str, Path]) -> None:
    """Serialize *binary* to *path*."""
    sections = []
    payload = bytearray()
    for s in binary.sections:
        sections.append({
            "name": s.name,
            "addr": s.addr,
            "size": s.size,
            "perm": _perm_to_str(s.perm),
            "offset": len(payload),
        })
        payload.extend(s.data)
    header = {
        "name": binary.name,
        "entry": binary.entry,
        "gp": binary.global_pointer,
        "sections": sections,
        "symbols": [
            {"name": sym.name, "addr": sym.addr, "size": sym.size, "kind": sym.kind}
            for sym in binary.symbols.values()
        ],
        "metadata": {k: binary.metadata[k] for k in _PLAIN_META if k in binary.metadata},
    }
    if "chimera" in binary.metadata:
        header["chimera"] = _chimera_meta_to_json(binary.metadata["chimera"])
    for key in ("safer", "multiverse"):
        if key in binary.metadata:
            header[key] = _regen_meta_to_json(binary.metadata[key])
    if "armore" in binary.metadata:
        header["armore"] = _armore_meta_to_json(binary.metadata["armore"])
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_binary_file(path: Union[str, Path]) -> Binary:
    """Deserialize a SELF image from *path*."""
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        raise FileFormatError(f"{path}: bad magic (not a SELF image)")
    (hlen,) = struct.unpack_from("<I", data, 8)
    try:
        header = json.loads(data[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: corrupt header") from exc
    payload = data[12 + hlen:]

    binary = Binary(header["name"], entry=header["entry"], global_pointer=header["gp"])
    for s in header["sections"]:
        chunk = payload[s["offset"]:s["offset"] + s["size"]]
        if len(chunk) != s["size"]:
            raise FileFormatError(f"{path}: truncated section {s['name']}")
        binary.add_section(Section(s["name"], s["addr"], bytearray(chunk),
                                   _perm_from_str(s["perm"])))
    for sym in header.get("symbols", []):
        binary.add_symbol(sym["name"], sym["addr"], sym.get("size", 0), sym.get("kind", "label"))
    binary.metadata.update(header.get("metadata", {}))
    if "chimera" in header:
        binary.metadata["chimera"] = _chimera_meta_from_json(header["chimera"])
    for key in ("safer", "multiverse"):
        if key in header:
            binary.metadata[key] = _regen_meta_from_json(header[key])
    if "armore" in header:
        binary.metadata["armore"] = _armore_meta_from_json(header["armore"])
    return binary
