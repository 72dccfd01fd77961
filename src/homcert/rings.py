"""Supported coefficient rings: Z, Z/n and the prime fields F_p.

All three are coherent and every flat module over them has finite
projective dimension (Z is hereditary, Z/n and F_p are perfect), so
every construction in this library is available over each of them.
Elements are plain Python ints; over Z/n and F_p the canonical
representative is the residue in [0, n).
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingDescriptor:
    """One of Z ("Z"), Z/n ("Zmod") or F_p ("Fp")."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind == "Z":
            if self.n is not None:
                raise ValueError("Z takes no modulus")
        elif self.kind == "Zmod":
            if self.n is None or self.n < 2:
                raise ValueError("Zmod requires a modulus n >= 2")
        elif self.kind == "Fp":
            if self.n is None or not _is_prime(self.n):
                raise ValueError(f"Fp requires a prime, got {self.n!r}")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    @property
    def modulus(self) -> int | None:
        """The additive order of 1, or None over Z."""
        return self.n

    def normalize(self, x: int) -> int:
        if self.n is None:
            return x
        return x % self.n

    def __str__(self) -> str:
        if self.kind == "Z":
            return "Z"
        if self.kind == "Zmod":
            return f"Z/{self.n}"
        return f"F{self.n}"


ZZ = RingDescriptor("Z")


def Zmod(n: int) -> RingDescriptor:
    return RingDescriptor("Zmod", n)


def Fp(p: int) -> RingDescriptor:
    return RingDescriptor("Fp", p)
