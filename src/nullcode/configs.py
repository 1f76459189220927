"""Built-in toy configurations small enough for exact simulation."""

from __future__ import annotations

from .codes import CodeSpec
from .gf import FieldCtx
from .hashing import HashFamily

# Extended Hamming [8,4,4] generator: self-dual over F_2.
_SELFDUAL_8_4 = (
    (1, 0, 0, 0, 0, 1, 1, 1),
    (0, 1, 0, 0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1, 1, 0, 1),
    (0, 0, 0, 1, 1, 1, 1, 0),
)


def toy_selfdual_spec() -> CodeSpec:
    """Self-dual [8,4] binary code folded to Sigma = F_2^2, n = 4."""
    return CodeSpec(
        kind="generic-linear", field=FieldCtx(1), m=2, genmat=_SELFDUAL_8_4
    )


def toy_repetition_spec(n: int = 2, s: int = 2) -> CodeSpec:
    """Length-n repetition code over GF(2^s), unfolded (m = 1)."""
    row = tuple(1 for _ in range(n))
    return CodeSpec(
        kind="generic-linear", field=FieldCtx(s), m=1, genmat=(row,)
    )


def toy_family(spec: CodeSpec, lam: int | None = None) -> HashFamily:
    """Hash family sized for the code: lambda defaults to n^2, and r is the
    smallest supported degree >= 6 that encodes the domain injectively."""
    if lam is None:
        lam = spec.n**2
    for r in (6, 8, 12):
        if (1 << r) >= spec.sigma_size * spec.n:
            break
    else:
        raise ValueError("domain too large for the shipped key fields")
    return HashFamily(
        key_field=FieldCtx(r), lam=lam, n=spec.n, sigma_size=spec.sigma_size
    )
