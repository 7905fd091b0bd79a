"""Finitely generated 2-complete abelian groups as plain values.

Everything downstream works 2-complete, so torsion orders are powers of
two and the free part means copies of the 2-adic integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContractViolationError


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AbelianGroup:
    """free_rank copies of Z plus cyclic 2-groups, orders sorted descending."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ContractViolationError("negative free rank")
        if any(not _is_pow2(t) for t in self.torsion):
            raise ContractViolationError("torsion orders must be powers of 2")
        if list(self.torsion) != sorted(self.torsion, reverse=True):
            raise ContractViolationError("torsion orders must be sorted descending")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def cyclic(order: int) -> "AbelianGroup":
        if order == 1:
            return AbelianGroup()
        return AbelianGroup(0, (order,))

    @staticmethod
    def sum_of(parts: Iterable["AbelianGroup"]) -> "AbelianGroup":
        rank = 0
        tors: list[int] = []
        for p in parts:
            rank += p.free_rank
            tors.extend(p.torsion)
        return AbelianGroup(rank, tuple(sorted(tors, reverse=True)))

    def __add__(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.sum_of((self, other))

    # -- views ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


AbelianGroup.ZERO = AbelianGroup()
AbelianGroup.Z = AbelianGroup(1, ())
