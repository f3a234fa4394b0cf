"""Closed-form invariants of the doubled-cycle family, exact in (n, r).

`n` is the rim length (>= 3 throughout); `r` counts deleted vertical edges
(0 <= r <= n). Every function returns an exact Fraction or int; decimal
rendering is the CLI's business. For r > 0 the degree-weighted indices
depend on which verticals are cut, so no formula in (n, r) alone exists,
and `family_report` leaves those fields as None.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ONE_SIXTH = Fraction(1, 6)


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError(f"family is defined for n >= 3, got {n}")


def _check_nr(n: int, r: int) -> None:
    _check_n(n)
    if not 0 <= r <= n:
        raise ValueError(f"deleted-edge count must lie in 0..{n}, got {r}")


def kf_gn(n: int) -> Fraction:
    """Kirchhoff index of the intact family member: (n^3 + 4n^2 - n)/12."""
    _check_n(n)
    return Fraction(n**3 + 4 * n**2 - n, 12)


def tau_gn(n: int) -> int:
    """Spanning-tree count of the intact family member: n * 2^(2n-2) * 3^n."""
    _check_n(n)
    return n * 2 ** (2 * n - 2) * 3**n


def kf_star_gn(n: int) -> Fraction:
    """Degree-weighted Kirchhoff index: (25n^3 + 100n^2 - 25n)/12."""
    _check_n(n)
    return Fraction(25 * n**3 + 100 * n**2 - 25 * n, 12)


def wiener_gn(n: int) -> int:
    """Wiener index, split by rim parity: (n^3 + n)/2 odd, (n^3 + 2n)/2 even."""
    _check_n(n)
    if n % 2 == 1:
        return (n**3 + n) // 2
    return (n**3 + 2 * n) // 2


def gutman_gn(n: int) -> int:
    """Gutman index; the family is 5-regular, so this is 25 * wiener_gn(n)."""
    return 25 * wiener_gn(n)


def kf_grn(n: int, r: int) -> Fraction:
    """Kirchhoff index after deleting r vertical edges: (n^3 + 4n^2 + (2r-1)n)/12."""
    _check_nr(n, r)
    return Fraction(n**3 + 4 * n**2 + (2 * r - 1) * n, 12)


def tau_grn(n: int, r: int) -> int:
    """Spanning-tree count after deleting r vertical edges: n * 2^(2n+r-2) * 3^(n-r)."""
    _check_nr(n, r)
    return n * 2 ** (2 * n + r - 2) * 3 ** (n - r)


def wiener_grn(n: int, r: int) -> int:
    """Wiener index after deleting r vertical edges; each deletion adds 1."""
    _check_nr(n, r)
    return wiener_gn(n) + r


def kf_cycle(n: int) -> Fraction:
    """Kirchhoff index of the plain n-cycle: (n^3 - n)/12."""
    _check_n(n)
    return Fraction(n**3 - n, 12)


def ratio_report(n: int, r: int = 0) -> tuple[Fraction, Fraction]:
    """Exact Kf/W ratio for (n, r) and its deviation from the 1/6 limit."""
    _check_nr(n, r)
    ratio = kf_grn(n, r) / wiener_grn(n, r)
    return ratio, abs(ratio - _ONE_SIXTH)


@dataclass(frozen=True)
class FamilyFormulaResult:
    """All closed-form invariants available for one (n, r) family member.

    kf_star and gutman are None for r > 0: they depend on which verticals are
    cut, so no formula in (n, r) alone exists.
    """

    n: int
    r: int
    kf: Fraction
    tau: int
    wiener: int
    kf_star: Fraction | None = None
    gutman: int | None = None


def family_report(n: int, r: int = 0) -> FamilyFormulaResult:
    """Evaluate every applicable closed form at (n, r)."""
    _check_nr(n, r)
    return FamilyFormulaResult(
        n=n,
        r=r,
        kf=kf_grn(n, r),
        tau=tau_grn(n, r),
        wiener=wiener_grn(n, r),
        kf_star=kf_star_gn(n) if r == 0 else None,
        gutman=gutman_gn(n) if r == 0 else None,
    )
