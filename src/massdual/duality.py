"""Strong and weak duality decisions for a pair of total masses.

Strong duality asserts D(mass_w) = mass_v, where D replaces q^r by q^(-r).
Weak duality is the specialization surviving in more cases:

    mass_v * Q^d - mass_w = D(mass_w) * Q^d - D(mass_v).

Strong implies weak: substituting D(mass_w) = mass_v (hence D(mass_v) =
mass_w) makes both sides equal.  A report carries both verdicts and the
exact residuals, so a failure shows what the obstruction looks like.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping

from .errors import InfiniteMass
from .massengine import MassPair
from .qsym import ClassFunction, _json_int, is_infinite


class DualityReport(namedtuple("DualityReport", "strong weak dim strong_residual weak_residual")):
    """Verdicts and residuals of the two duality tests at dimension dim."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "strong": self.strong,
            "weak": self.weak,
            "dim": self.dim,
            "strong_residual": self.strong_residual.to_json(),
            "weak_residual": self.weak_residual.to_json(),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "DualityReport":
        for key in ("strong", "weak"):
            if not isinstance(obj[key], bool):
                raise ValueError(f"{key} must be a JSON boolean, got {obj[key]!r}")
        return cls(
            strong=obj["strong"],
            weak=obj["weak"],
            dim=_json_int(obj["dim"]),
            strong_residual=ClassFunction.from_json(obj["strong_residual"]),
            weak_residual=ClassFunction.from_json(obj["weak_residual"]),
        )


def duality_report(masses: MassPair, dim: int) -> DualityReport:
    """Decide both dualities for the mass pair at dimension dim.

    strong_residual = D(mass_w) - mass_v, weak_residual = the difference of
    the two sides of the weak identity; each verdict is residual == 0.
    Raises InfiniteMass, naming the infinite side or sides, when a mass is Infinite.
    """
    if infinite := [side for side, m in zip(masses._fields, masses) if is_infinite(m)]:
        verb = "are" if len(infinite) > 1 else "is"
        raise InfiniteMass(f"duality verdicts need finite masses: {' and '.join(infinite)} {verb} infinite")
    dim = _json_int(dim)
    mv, mw = masses.mass_v, masses.mass_w
    dv, dw = mv.dual(), mw.dual()
    qd = ClassFunction.monomial(dim)
    strong_residual = dw - mv
    weak_residual = (mv * qd - mw) - (dw * qd - dv)
    strong = strong_residual.is_zero
    weak = weak_residual.is_zero
    return DualityReport(
        strong=strong,
        weak=weak,
        dim=dim,
        strong_residual=strong_residual,
        weak_residual=weak_residual,
    )
