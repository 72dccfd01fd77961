"""Supported coefficient rings: Z, Z/n and the prime fields F_p.

All three are coherent and every flat module over them has finite
projective dimension (Z is hereditary, Z/n and F_p are perfect), so
every construction in this library is available over each of them.
Elements are plain Python ints; over Z/n and F_p the canonical
representative is the residue in [0, n).
"""

from __future__ import annotations

from dataclasses import dataclass


# Miller-Rabin to these bases decides primality exactly below
# _PRIME_BOUND (Sorenson and Webster 2015); larger F_p moduli are refused.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Exact for p < _PRIME_BOUND: p is a strong probable prime to every base."""
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
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
            if self.n is None or not (self.n < _PRIME_BOUND and _is_prime(self.n)):
                raise ValueError(f"Fp requires a prime below {_PRIME_BOUND}, got {self.n!r}")
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
