"""One semantic table for every mnemonic the CPU executes.

:data:`SEMANTICS` states each instruction's effect once, as a few lines
of Python over the register list ``r``, the instruction's operands
(``rd rs1 rs2 imm vd vs1 vs2`` and its address ``pc``), the constants
``M``/``W`` (64/32-bit masks) and ``SB``/``SW`` (their sign bits), and
five primitives:

* ``v = LOAD(width, addr)`` / ``STORE(width, addr, value)`` — a
  permission-checked little-endian memory access;
* ``BRANCH(cond)`` — go to ``pc + imm`` when *cond* holds;
* ``JUMP(target)`` — go to *target*;
* ``VLOAD(bits)`` / ``VSTORE(bits)`` — a unit-stride vector access of
  ``vd`` at ``r[rs1]``.

Vector arithmetic works on the vector unit's register bytearrays
directly.  ``{expr}`` marks a value computed once when the instruction is
built (a branch target, a ``lui`` constant, a ``vsetvli`` SEW); it may
raise a structured fault, which then reaches the guest exactly when a
bad encoding would.  A line ``r[rd] = ...`` is dropped when ``rd`` is
x0, so x0 is never written and always reads 0.

Two things are generated from the table:

* :data:`FACTORIES` — per-mnemonic factories, compiled once at import,
  that bake one decoded instruction's operands into a closure
  ``op(cpu)``.  Both :meth:`Cpu.step` and the superblock tier run these
  closures; an op returns true when it took a conditional branch.
* :func:`trace_source` — the straight-line source of one trace pass, with
  operands and constants inlined as literals, loads and stores behind
  per-op segment inline caches, and every branch or indirect jump turned
  into a guard on the direction the recording observed.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.isa.encoding import EncodingError, decode_vtype
from repro.isa.fields import sign_extend
from repro.isa.instructions import Instruction
from repro.sim.faults import BreakpointTrap, EcallTrap, IllegalInstructionFault

M = 0xFFFF_FFFF_FFFF_FFFF
W = 0xFFFF_FFFF
SB = 1 << 63
SW = 1 << 31


def _s(value: int) -> int:
    """Unsigned-64 storage -> signed value."""
    return value - (1 << 64) if value & SB else value


def _div(a: int, b: int) -> int:
    if b == 0:
        return M
    sa, sb = _s(a), _s(b)
    if sa == -(1 << 63) and sb == -1:
        return a
    q = abs(sa) // abs(sb)
    return (-q if (sa < 0) != (sb < 0) else q) & M


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    sa, sb = _s(a), _s(b)
    if sa == -(1 << 63) and sb == -1:
        return 0
    rem = abs(sa) % abs(sb)
    return (-rem if sa < 0 else rem) & M


def _divw(a: int, b: int) -> int:
    aw, bw = sign_extend(a & W, 32), sign_extend(b & W, 32)
    if bw == 0:
        return W
    if aw == -(1 << 31) and bw == -1:
        return a
    q = abs(aw) // abs(bw)
    return -q if (aw < 0) != (bw < 0) else q


def _remw(a: int, b: int) -> int:
    aw, bw = sign_extend(a & W, 32), sign_extend(b & W, 32)
    if bw == 0:
        return a
    if aw == -(1 << 31) and bw == -1:
        return 0
    rem = abs(aw) % abs(bw)
    return -rem if aw < 0 else rem


def _vsew(vtype: int, pc: int) -> int:
    """SEW of a ``vsetvli`` vtype.  The vector unit implements e32 and
    e64 only; any other SEW, or a reserved SEW code, is an illegal
    instruction at *pc*."""
    try:
        sew = decode_vtype(vtype)
    except EncodingError:
        sew = None
    if sew not in (32, 64):
        raise IllegalInstructionFault(
            pc, "unknown", f"vsetvli vtype {vtype:#x}: SEW must be e32 or e64")
    return sew


# ---------------------------------------------------------------------------
# The table.  The helpers below only spell out families of entries.
# ---------------------------------------------------------------------------

def _w(expr: str) -> str:
    """A W-op: rd = the sign-extended low word of *expr*."""
    return f"r[rd] = (((({expr}) & W) ^ SW) - SW) & M"


def _load(width: int, signed: bool) -> str:
    load = f"v = LOAD({width}, (r[rs1] + imm) & M)\n"
    if not signed or width == 8:
        return load + "r[rd] = v"
    sign = 1 << (8 * width - 1)
    return load + f"r[rd] = v | {M ^ (2 * sign - 1)} if v & {sign} else v"


def _store(width: int) -> str:
    value = "r[rs2]" if width == 8 else f"r[rs2] & {(1 << 8 * width) - 1}"
    return f"STORE({width}, (r[rs1] + imm) & M, {value})"


def _velem(expr: str, scalar: str = "") -> str:
    """Elementwise vd[i] = *expr* wrapped to SEW, over ``va`` = vs2[i],
    ``vb`` = vs1[i] (or *scalar*), ``acc`` = vd[i] and ``hb`` = the SEW
    sign bit."""
    pre = ["vu = cpu.vector; sew = vu.sew; w = sew >> 3; mk = (1 << sew) - 1",
           "s2 = vu.regs[vs2]; dd = vu.regs[vd]"]
    if scalar:
        pre.append(f"x_ = {scalar}")
        vb = "x_"
    else:
        pre.append("s1 = vu.regs[vs1]")
        vb = "FB(s1[i_:j_], 'little')"
    if "hb" in expr:
        pre.append("hb = 1 << (sew - 1)")
    expr = re.sub(r"\bva\b", "FB(s2[i_:j_], 'little')", expr)
    expr = re.sub(r"\bvb\b", vb, expr)
    expr = re.sub(r"\bacc\b", "FB(dd[i_:j_], 'little')", expr)
    return "\n".join(pre + [
        "for i_ in range(0, vu.vl * w, w):",
        "    j_ = i_ + w",
        f"    dd[i_:j_] = (({expr}) & mk).to_bytes(w, 'little')"])


_SPLAT = ("vu = cpu.vector; w = vu.sew >> 3\n"
          "vu.regs[vd][0:vu.vl * w] = "
          "(({x}) & ((1 << vu.sew) - 1)).to_bytes(w, 'little') * vu.vl")

SEMANTICS: dict[str, str] = {
    # -- RV64I -------------------------------------------------------------
    "lui": "r[rd] = {sign_extend(imm << 12, 32) & M}",
    "auipc": "r[rd] = {(pc + sign_extend(imm << 12, 32)) & M}",
    "jal": "r[rd] = {pc + 4}\nJUMP({(pc + imm) & M})",
    "jalr": "t = (r[rs1] + imm) & {M - 1}\nr[rd] = {pc + 4}\nJUMP(t)",
    "beq": "BRANCH(r[rs1] == r[rs2])",
    "bne": "BRANCH(r[rs1] != r[rs2])",
    "blt": "BRANCH((r[rs1] ^ SB) < (r[rs2] ^ SB))",
    "bge": "BRANCH((r[rs1] ^ SB) >= (r[rs2] ^ SB))",
    "bltu": "BRANCH(r[rs1] < r[rs2])",
    "bgeu": "BRANCH(r[rs1] >= r[rs2])",
    "lb": _load(1, True), "lh": _load(2, True), "lw": _load(4, True),
    "ld": _load(8, True), "lbu": _load(1, False), "lhu": _load(2, False),
    "lwu": _load(4, False),
    "sb": _store(1), "sh": _store(2), "sw": _store(4), "sd": _store(8),
    "addi": "r[rd] = (r[rs1] + imm) & M",
    "addiw": _w("r[rs1] + imm"),
    "slti": "r[rd] = 1 if (r[rs1] ^ SB) < {(imm & M) ^ SB} else 0",
    "sltiu": "r[rd] = 1 if r[rs1] < {imm & M} else 0",
    "xori": "r[rd] = r[rs1] ^ {imm & M}",
    "ori": "r[rd] = r[rs1] | {imm & M}",
    "andi": "r[rd] = r[rs1] & {imm & M}",
    "slli": "r[rd] = (r[rs1] << imm) & M",
    "srli": "r[rd] = r[rs1] >> imm",
    "srai": "r[rd] = (((r[rs1] ^ SB) - SB) >> imm) & M",
    "slliw": _w("r[rs1] << imm"),
    "srliw": _w("(r[rs1] & W) >> imm"),
    "sraiw": _w("(((r[rs1] & W) ^ SW) - SW) >> imm"),
    "add": "r[rd] = (r[rs1] + r[rs2]) & M",
    "sub": "r[rd] = (r[rs1] - r[rs2]) & M",
    "sll": "r[rd] = (r[rs1] << (r[rs2] & 63)) & M",
    "slt": "r[rd] = 1 if (r[rs1] ^ SB) < (r[rs2] ^ SB) else 0",
    "sltu": "r[rd] = 1 if r[rs1] < r[rs2] else 0",
    "xor": "r[rd] = r[rs1] ^ r[rs2]",
    "srl": "r[rd] = r[rs1] >> (r[rs2] & 63)",
    "sra": "r[rd] = (((r[rs1] ^ SB) - SB) >> (r[rs2] & 63)) & M",
    "or": "r[rd] = r[rs1] | r[rs2]",
    "and": "r[rd] = r[rs1] & r[rs2]",
    "addw": _w("r[rs1] + r[rs2]"),
    "subw": _w("r[rs1] - r[rs2]"),
    "sllw": _w("r[rs1] << (r[rs2] & 31)"),
    "srlw": _w("(r[rs1] & W) >> (r[rs2] & 31)"),
    "sraw": _w("(((r[rs1] & W) ^ SW) - SW) >> (r[rs2] & 31)"),
    "ecall": "raise EcallTrap(pc)",
    "ebreak": "raise BreakpointTrap(pc, compressed=False)",
    "fence": "",
    # -- M and Zba ---------------------------------------------------------
    "mul": "r[rd] = (r[rs1] * r[rs2]) & M",
    "mulh": "r[rd] = ((((r[rs1] ^ SB) - SB) * ((r[rs2] ^ SB) - SB)) >> 64) & M",
    "mulhsu": "r[rd] = ((((r[rs1] ^ SB) - SB) * r[rs2]) >> 64) & M",
    "mulhu": "r[rd] = (r[rs1] * r[rs2]) >> 64",
    "div": "r[rd] = DIV(r[rs1], r[rs2])",
    "divu": "r[rd] = r[rs1] // r[rs2] if r[rs2] else M",
    "rem": "r[rd] = REM(r[rs1], r[rs2])",
    "remu": "r[rd] = r[rs1] % r[rs2] if r[rs2] else r[rs1]",
    "mulw": _w("r[rs1] * r[rs2]"),
    "divw": _w("DIVW(r[rs1], r[rs2])"),
    "divuw": _w("(r[rs1] & W) // (r[rs2] & W) if r[rs2] & W else W"),
    "remw": _w("REMW(r[rs1], r[rs2])"),
    "remuw": _w("(r[rs1] & W) % (r[rs2] & W) if r[rs2] & W else r[rs1]"),
    "sh1add": "r[rd] = ((r[rs1] << 1) + r[rs2]) & M",
    "sh2add": "r[rd] = ((r[rs1] << 2) + r[rs2]) & M",
    "sh3add": "r[rd] = ((r[rs1] << 3) + r[rs2]) & M",
    # -- C (the decoder fills in the implicit rd/rs1 of each form) ----------
    "c.nop": "",
    "c.addi": "r[rd] = (r[rs1] + imm) & M",
    "c.addiw": _w("r[rs1] + imm"),
    "c.li": "r[rd] = {imm & M}",
    "c.lui": "r[rd] = {sign_extend((imm & 0x3F) << 12, 18) & M}",
    "c.addi16sp": "r[rd] = (r[rs1] + imm) & M",
    "c.addi4spn": "r[rd] = (r[rs1] + imm) & M",
    "c.slli": "r[rd] = (r[rs1] << imm) & M",
    "c.srli": "r[rd] = r[rs1] >> imm",
    "c.srai": "r[rd] = (((r[rs1] ^ SB) - SB) >> imm) & M",
    "c.andi": "r[rd] = r[rs1] & {imm & M}",
    "c.sub": "r[rd] = (r[rs1] - r[rs2]) & M",
    "c.xor": "r[rd] = r[rs1] ^ r[rs2]",
    "c.or": "r[rd] = r[rs1] | r[rs2]",
    "c.and": "r[rd] = r[rs1] & r[rs2]",
    "c.subw": _w("r[rs1] - r[rs2]"),
    "c.addw": _w("r[rs1] + r[rs2]"),
    "c.j": "JUMP({(pc + imm) & M})",
    "c.jr": "t = r[rs1] & {M - 1}\nJUMP(t)",
    "c.jalr": "t = r[rs1] & {M - 1}\nr[rd] = {pc + 2}\nJUMP(t)",
    "c.beqz": "BRANCH(r[rs1] == 0)",
    "c.bnez": "BRANCH(r[rs1] != 0)",
    "c.mv": "r[rd] = r[rs2]",
    "c.add": "r[rd] = (r[rd] + r[rs2]) & M",
    "c.lw": _load(4, True), "c.ld": _load(8, True),
    "c.lwsp": _load(4, True), "c.ldsp": _load(8, True),
    "c.sw": _store(4), "c.sd": _store(8),
    "c.swsp": _store(4), "c.sdsp": _store(8),
    "c.ebreak": "raise BreakpointTrap(pc, compressed=True)",
    # -- V (LMUL=1, SEW e32/e64) ------------------------------------------
    "vsetvli": ("vu = cpu.vector; vl_ = vu.vlen // {_vsew(imm, pc)}\n"
                "if rs1 and r[rs1] < vl_:\n"
                "    vl_ = r[rs1]\n"
                "vu.sew = {_vsew(imm, pc)}; vu.vl = vl_\n"
                "r[rd] = vl_"),
    "vle32.v": "VLOAD(32)", "vle64.v": "VLOAD(64)",
    "vse32.v": "VSTORE(32)", "vse64.v": "VSTORE(64)",
    "vadd.vv": _velem("va + vb"),
    "vsub.vv": _velem("va - vb"),
    "vmul.vv": _velem("va * vb"),
    "vand.vv": _velem("va & vb"),
    "vor.vv": _velem("va | vb"),
    "vxor.vv": _velem("va ^ vb"),
    "vadd.vx": _velem("va + vb", "r[rs1]"),
    "vadd.vi": _velem("va + vb", "imm"),
    "vsub.vx": _velem("va - vb", "r[rs1]"),
    "vmul.vx": _velem("va * vb", "r[rs1]"),
    "vmin.vv": _velem("va if (va ^ hb) <= (vb ^ hb) else vb"),
    "vmax.vv": _velem("va if (va ^ hb) >= (vb ^ hb) else vb"),
    "vminu.vv": _velem("va if va <= vb else vb"),
    "vmaxu.vv": _velem("va if va >= vb else vb"),
    "vsll.vv": _velem("va << (vb & (sew - 1))"),
    "vsll.vx": _velem("va << (vb & (sew - 1))", "r[rs1]"),
    "vsrl.vv": _velem("va >> (vb & (sew - 1))"),
    "vsrl.vx": _velem("va >> (vb & (sew - 1))", "r[rs1]"),
    "vsra.vv": _velem("((va ^ hb) - hb) >> (vb & (sew - 1))"),
    "vsra.vx": _velem("((va ^ hb) - hb) >> (vb & (sew - 1))", "r[rs1]"),
    "vmacc.vv": _velem("acc + vb * va"),
    "vmv.v.x": _SPLAT.format(x="r[rs1]"),
    "vmv.v.i": _SPLAT.format(x="imm"),
    "vmv.x.s": ("vu = cpu.vector; hb = 1 << (vu.sew - 1)\n"
                "v = FB(vu.regs[vs2][0:vu.sew >> 3], 'little')\n"
                "r[rd] = ((v ^ hb) - hb) & M"),
    "vredsum.vs": ("vu = cpu.vector; w = vu.sew >> 3; s2 = vu.regs[vs2]\n"
                   "t = FB(vu.regs[vs1][0:w], 'little')\n"
                   "for i_ in range(0, vu.vl * w, w):\n"
                   "    t += FB(s2[i_:i_ + w], 'little')\n"
                   "vu.regs[vd][0:w] = "
                   "(t & ((1 << vu.sew) - 1)).to_bytes(w, 'little')"),
}


# ---------------------------------------------------------------------------
# Parsing the table.
# ---------------------------------------------------------------------------

_OPERANDS = ("pc", "rd", "rs1", "rs2", "imm", "vd", "vs1", "vs2")
_OPERAND_RE = re.compile(r"(?<![.\w])(pc|rd|rs1|rs2|imm|vd|vs1|vs2)\b")
_STATIC_RE = re.compile(r"\{([^{}]+)\}")
_PRIM_RE = re.compile(
    r"^( *)(?:(\w+) = )?(LOAD|STORE|BRANCH|JUMP|VLOAD|VSTORE)\((.*)\)$")
_WRITES_RD = re.compile(r"^ *r\[rd\] = ")
_CONSTANTS = {"M": M, "W": W, "SB": SB, "SW": SW}
_CONST_RE = re.compile(r"\b(M|W|SB|SW)\b")
_PRIMITIVES = ("LOAD(", "STORE(", "BRANCH(", "JUMP(", "VLOAD(", "VSTORE(")

#: Names the generated code resolves at run time.
RUNTIME = {"M": M, "W": W, "SB": SB, "SW": SW, "FB": int.from_bytes,
           "DIV": _div, "REM": _rem, "DIVW": _divw, "REMW": _remw,
           "EcallTrap": EcallTrap, "BreakpointTrap": BreakpointTrap}


def _ends_control(template: str) -> bool:
    return "BRANCH(" in template or "JUMP(" in template or "raise " in template


def _is_pure(template: str) -> bool:
    """Only computes rd from registers: with rd = x0 it does nothing."""
    return ("cpu" not in template and "raise " not in template
            and not any(p in template for p in _PRIMITIVES))


#: Mnemonics that may redirect control flow (or always trap); they end
#: superblocks.
CTRL_MNEMONICS = frozenset(m for m, t in SEMANTICS.items() if _ends_control(t))


def _parse(template: str) -> list[tuple]:
    """Template -> steps ``(kind, indent, var, args, writes_rd)`` where
    kind is "stmt" (args = [line]) or a primitive name."""
    steps = []
    for line in template.splitlines():
        mo = _PRIM_RE.match(line)
        if mo is None:
            steps.append(("stmt", "", None, [line],
                          bool(_WRITES_RD.match(line))))
        else:
            indent, var, kind, args = mo.groups()
            steps.append((kind, indent, var, [a.strip() for a in args.split(",")], False))
    return steps


def _paren(value: str) -> str:
    return value if re.fullmatch(r"r\[\w+\]", value) else f"({value})"


# ---------------------------------------------------------------------------
# Closures for step() and the superblock tier.
# ---------------------------------------------------------------------------

def _op_lines(steps: list[tuple], with_rd: bool) -> list[str]:
    """Closure body: primitives expanded over the permission-checked
    address space and ``cpu.pc``."""
    lines: list[str] = []
    for kind, ind, var, args, writes_rd in steps:
        if writes_rd and not with_rd:
            continue
        if kind == "stmt":
            lines.append(args[0])
        elif kind == "LOAD":
            lines.append(f"{ind}{var} = FB(cpu.space.read({args[1]}, "
                         f"{args[0]}), 'little')")
        elif kind == "STORE":
            lines.append(f"{ind}cpu.space.write({args[1]}, "
                         f"{_paren(args[2])}.to_bytes({args[0]}, 'little'))")
        elif kind == "BRANCH":
            lines += [f"{ind}if {args[0]}:",
                      f"{ind}    cpu.pc = {{(pc + imm) & M}}",
                      f"{ind}    return True"]
        elif kind == "JUMP":
            lines.append(f"{ind}cpu.pc = {args[0]}")
        else:  # VLOAD / VSTORE: element by element, faulting mid-way
            step = int(args[0]) // 8
            lines += [f"{ind}vu = cpu.vector; a_ = r[rs1]",
                      f"{ind}for i_ in range(vu.vl):"]
            if kind == "VLOAD":
                lines.append(f"{ind}    vu.write_elem(vd, i_, FB(cpu.space.read("
                             f"a_ + i_ * {step}, {step}), 'little'))")
            else:
                lines.append(f"{ind}    cpu.space.write(a_ + i_ * {step}, "
                             f"(vu.read_elem(vd, i_) & {(1 << 8 * step) - 1})"
                             f".to_bytes({step}, 'little'))")
    return lines


def _factory_source(name: str, template: str) -> str:
    """Source of ``name(instr) -> op``: bind the operands (and the
    ``{...}`` values) once, return a closure running the template."""
    steps = _parse(template)
    variants = {True: _op_lines(steps, True), False: _op_lines(steps, False)}
    statics: dict[str, str] = {}

    def hoist(mo):
        return statics.setdefault(mo.group(1), f"k{len(statics)}")

    for key, lines in variants.items():
        variants[key] = [_STATIC_RE.sub(hoist, line) for line in lines]
    used = set(_OPERAND_RE.findall("\n".join(variants[True] + list(statics))))
    out = [f"def {name}(i):"]
    out += [f"    {o} = i.{'addr' if o == 'pc' else o}"
            for o in _OPERANDS if o in used]
    out += [f"    {k} = {expr}" for expr, k in statics.items()]

    def closure(lines: list[str], indent: str) -> list[str]:
        if not lines:
            return [f"{indent}return _nop"]
        body = [f"{indent}def op(cpu):"]
        if any("r[" in line for line in lines):
            body.append(f"{indent}    r = cpu.regs")
        body += [f"{indent}    {line}" for line in lines]
        return body + [f"{indent}return op"]

    if variants[False] != variants[True]:
        out.append("    if not rd:")
        out += closure([] if _is_pure(template) else variants[False], "        ")
    return "\n".join(out + closure(variants[True], "    "))


def _nop(cpu) -> None:
    return None


def _operands(i: Instruction) -> dict:
    return {"pc": i.addr, "rd": i.rd, "rs1": i.rs1, "rs2": i.rs2,
            "imm": i.imm, "vd": i.vd, "vs1": i.vs1, "vs2": i.vs2}


def _trace_parts(name: str, template: str) -> tuple[str, list[tuple]]:
    """Prepare an entry for trace emission: the source of ``name(instr)
    -> fields`` (operands and ``{...}`` values by name; empty when the
    plain operands suffice) and the steps as format strings over those
    fields, with the constants inlined as literals."""
    statics: dict[str, str] = {}

    def to_format(text: str) -> str:
        text = _STATIC_RE.sub(
            lambda mo: "{%s}" % statics.setdefault(mo.group(1), f"k{len(statics)}"),
            text)
        text = _OPERAND_RE.sub(r"{\1}", text)
        return _CONST_RE.sub(lambda mo: str(_CONSTANTS[mo.group(1)]), text)

    steps = [(kind, ind, var, [to_format(a) for a in args], writes_rd)
             for kind, ind, var, args, writes_rd in _parse(template)]
    if not statics:
        return "", steps
    used = set(_OPERAND_RE.findall(" ".join(statics)))
    return "\n".join(
        [f"def {name}(i):", "    f = _operands(i)"]
        + [f"    {o} = f['{o}']" for o in _OPERANDS if o in used]
        + [f"    f['{k}'] = {expr}" for expr, k in statics.items()]
        + ["    return f"]), steps


def _build() -> tuple[dict, dict]:
    """Compile every entry's op factory and trace field builder in one
    go; entries with the same template share them."""
    ids: dict[str, int] = {}
    for template in SEMANTICS.values():
        ids.setdefault(template, len(ids))
    sources, steps = [], {}
    for template, n in ids.items():
        sources.append(_factory_source(f"_make_{n}", template))
        src, steps[template] = _trace_parts(f"_fields_{n}", template)
        sources.append(src)
    ns = dict(RUNTIME, _nop=_nop, _vsew=_vsew, _operands=_operands,
              sign_extend=sign_extend)
    exec(compile("\n".join(sources), "<semantics>", "exec"), ns)  # noqa: S102
    factories = {m: ns[f"_make_{ids[t]}"] for m, t in SEMANTICS.items()}
    trace = {m: (ns.get(f"_fields_{ids[t]}", _operands), steps[t], _is_pure(t))
             for m, t in SEMANTICS.items()}
    return factories, trace


#: mnemonic -> ``make(instr) -> op(cpu)``.  ``make`` raises the entry's
#: own structured fault for an operand encoding no tier can execute.
#: _TRACE_ENTRIES: mnemonic -> (fields(instr), steps, pure) for
#: :func:`trace_source`.
FACTORIES, _TRACE_ENTRIES = _build()


# ---------------------------------------------------------------------------
# Trace source.
# ---------------------------------------------------------------------------

_NEGATE = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}
_CMP_RE = re.compile(r" (==|!=|<=|>=|<|>) ")
_ADD0_RE = re.compile(r"\((r\[\d+\]|0) \+ 0\)( & 18446744073709551615\b)?")
_CONST_ADD_RE = re.compile(r"\(0 \+ (-?\d+)\) & 18446744073709551615\b")


def _negate(cond: str) -> str:
    ops = _CMP_RE.findall(cond)
    if len(ops) == 1 and " if " not in cond:
        return _CMP_RE.sub(lambda mo: f" {_NEGATE[mo.group(1)]} ", cond)
    return f"not ({cond})"


def _fold(text: str) -> str:
    """Peepholes for x0 sources and zero immediates (regs are < 2**64)."""
    text = text.replace("r[0]", "0")
    text = _ADD0_RE.sub(r"\1", text)
    return _CONST_ADD_RE.sub(lambda mo: str(int(mo.group(1)) & M), text)


def trace_source(ops: list) -> tuple[str, list[int]]:
    """Source of one compiled trace pass over the recorded flat *ops*
    ``(pc, nxt, expected, instr, op, cost, cost_taken)``, and the
    per-op prefix cycle sums.

    The source defines ``_make(OPS, LD, ST, VM)`` returning
    ``_pass(cpu) -> (retired, cycles, diverged)``.  Recorded branch
    directions and indirect-jump targets become guards that side-exit
    with ``cpu.pc`` set to where execution really went; direct jumps
    vanish, and the pc is only materialized at exits.  A fault escapes
    with the faulting op's index in ``cpu._trace_ex``.
    """
    head = ["def _make(OPS, LD, ST, VM):"]
    body = ["    def _pass(cpu, length=len, FB=int.from_bytes):",
            "        r = cpu.regs",
            "        ex = 0",
            "        try:"]
    H = head.append
    A = body.append
    E = "            "
    cyc = 0
    prefix = []
    for k, (_pc, nxt, expected, instr, _op, cost, cost_taken) in enumerate(ops):
        prefix.append(cyc)
        fields, steps, pure = _TRACE_ENTRIES[instr.mnemonic]
        rd = instr.rd
        if pure and not rd:
            cyc += cost
            continue
        vals = fields(instr)
        fold = instr.imm == 0 or instr.rs1 == 0 or instr.rs2 == 0
        taken = False
        for kind, ind, var, args, writes_rd in steps:
            if writes_rd and not rd:
                continue
            args = [a.format_map(vals) for a in args]
            if fold:
                args = [_fold(a) for a in args]
            at = E + ind
            if kind == "stmt":
                if "raise " in args[0]:
                    A(f"{E}ex = {k}")
                A(E + args[0])
            elif kind in ("LOAD", "STORE"):
                width, addr = args[0], args[1]
                A(f"{at}a = {addr}")
                A(f"{at}o = a - C{k}[0]; d = C{k}[1]")
                A(f"{at}if d is not None and 0 <= o <= length(d) - {width}:")
                if kind == "LOAD":
                    A(f"{at}    {var} = FB(d[o:o + {width}], 'little')")
                    A(f"{at}else:")
                    A(f"{at}    ex = {k}")
                    A(f"{at}    {var} = LD(cpu, C{k}, a, {width})")
                else:
                    data = f"{_paren(args[2])}.to_bytes({width}, 'little')"
                    A(f"{at}    d[o:o + {width}] = {data}")
                    A(f"{at}else:")
                    A(f"{at}    ex = {k}")
                    A(f"{at}    ST(cpu, C{k}, a, {data})")
                H(f"    C{k} = [0, None]")
            elif kind == "BRANCH":
                target = (instr.addr + instr.imm) & M
                taken = expected != nxt
                if taken:  # recorded taken: falling through side-exits
                    A(f"{at}if {_negate(args[0])}:")
                    A(f"{at}    cpu.pc = {nxt}")
                    A(f"{at}    return ({k + 1}, {cyc + cost}, True)")
                else:
                    A(f"{at}if {args[0]}:")
                    A(f"{at}    cpu.pc = {target}")
                    A(f"{at}    return ({k + 1}, {cyc + cost_taken}, True)")
            elif kind == "JUMP":
                if not args[0].isdigit():  # indirect: guard the target
                    A(f"{at}if {args[0]} != {expected}:")
                    A(f"{at}    cpu.pc = {args[0]}")
                    A(f"{at}    return ({k + 1}, {cyc + cost}, True)")
            else:  # VLOAD / VSTORE: bulk copy when SEW matches the width
                bits = int(args[0])
                vreg = f"vu.regs[{vals['vd']}][0:nb]"
                A(f"{at}vu = cpu.vector")
                A(f"{at}a = r[{vals['rs1']}]")
                A(f"{at}nb = vu.vl * {bits // 8}")
                A(f"{at}o = a - C{k}[0]; d = C{k}[1]")
                A(f"{at}if vu.sew == {bits} and d is not None "
                  f"and 0 <= o <= length(d) - nb:")
                if kind == "VLOAD":
                    A(f"{at}    {vreg} = d[o:o + nb]")
                else:
                    A(f"{at}    d[o:o + nb] = {vreg}")
                A(f"{at}else:")
                A(f"{at}    ex = {k}")
                A(f"{at}    H{k}(cpu)")
                A(f"{at}    VM(cpu, C{k}, a, {kind == 'VSTORE'})")
                H(f"    C{k} = [0, None]")
                H(f"    H{k} = OPS[{k}][4]")
        cyc += cost_taken if taken else cost
    if body[-1] == "        try:":
        A(f"{E}pass")  # an all-nop trace still needs a statement
    A("        except BaseException:")
    A("            cpu._trace_ex = ex")
    A("            raise")
    A(f"        cpu.pc = {ops[-1][2]}")
    A(f"        return ({len(ops)}, {cyc}, False)")
    A("    return _pass")
    return "\n".join(head + body), prefix
