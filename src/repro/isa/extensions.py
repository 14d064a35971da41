"""ISA extension taxonomy and per-core capability profiles.

An ISAX heterogeneous machine is a set of cores sharing a base ISA with
per-core optional extensions (paper §1).  ``IsaProfile`` is the
capability mask attached to each simulated core; the rewriter consumes a
(source profile, target profile) pair to decide which instructions are
*source instructions* needing upgrade or downgrade.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Extension(enum.Enum):
    """Instruction-set extension tags used throughout the system."""

    I = "i"        # base integer ISA (RV64I)
    M = "m"        # integer multiply/divide
    C = "c"        # compressed instructions
    ZBA = "zba"    # address-generation bit-manipulation (sh1add family)
    V = "v"        # vector extension (RVV subset, VLEN=256)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Extension.{self.name}"


@dataclass(frozen=True)
class IsaProfile:
    """A named, immutable set of supported extensions.

    The base integer ISA is always included; constructing a profile
    without :attr:`Extension.I` raises.
    """

    name: str
    extensions: frozenset[Extension]

    def __post_init__(self) -> None:
        if Extension.I not in self.extensions:
            raise ValueError("every ISA profile must include the base integer ISA")

    def supports(self, ext: Extension) -> bool:
        """True if this profile implements *ext*."""
        return ext in self.extensions

    def missing(self, other: "IsaProfile") -> frozenset[Extension]:
        """Extensions *other* has that this profile lacks."""
        return other.extensions - self.extensions

    def extra(self, other: "IsaProfile") -> frozenset[Extension]:
        """Extensions this profile has beyond *other*."""
        return self.extensions - other.extensions

    def __str__(self) -> str:
        return self.name


#: The common base ISA of every core in our machines (paper evaluates
#: RV64GC; we implement the integer/M/C part, floating point is not
#: needed by any experiment and is documented as out of scope).
RV64GC = IsaProfile("rv64gc", frozenset({Extension.I, Extension.M, Extension.C}))

#: Extension cores: base plus vector and Zba.  The paper's extension
#: cores are RV64GCV (RVV 1.0, VLEN=256); Zba rides along because the
#: paper's running downgrade example (sh1add) is a Zba instruction.
RV64GCV = IsaProfile(
    "rv64gcv",
    frozenset({Extension.I, Extension.M, Extension.C, Extension.V, Extension.ZBA}),
)

#: Uncompressed variant used by tests that want fixed 4-byte instructions.
RV64G = IsaProfile("rv64g", frozenset({Extension.I, Extension.M}))

#: All profiles by name, for CLI/bench parameterization.
PROFILES: dict[str, IsaProfile] = {p.name: p for p in (RV64GC, RV64GCV, RV64G)}
