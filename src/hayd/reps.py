"""Module and comodule structures on finite-dimensional spaces.

Actions are stored as rank-3 tensors rho[h, m_in, m_out]; a left action means
rho gives the operator of h acting from the left, a right action the operator
acting from the right.  Coactions put the Hopf index where the side dictates:
left  lam[m_in, h, m_out]   (m maps to h-leg (x) m-leg)
right lam[m_in, m_out, h]   (m maps to m-leg (x) h-leg)
``coaction_shape`` and ``coaction_letters`` write that layout once, for the
code that serves either side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import module_laws
from .errors import InputError, ShapeError
from .hopf import FinHopfAlgebra, own_generators
from .identity import Identity, check, evaluate
from .report import Report
from .tensor import Tensor


def coaction_shape(side: str, dim: int, hopf_dim: int) -> tuple:
    """The shape of a ``side`` coaction tensor on a ``dim``-dimensional space."""
    return (dim, hopf_dim, dim) if side == "left" else (dim, dim, hopf_dim)


def coaction_letters(side: str, m_in: str, h: str, m_out: str) -> str:
    """Einsum letters of a ``side`` coaction tensor: the Hopf leg sits in the
    middle on the left, last on the right."""
    return m_in + h + m_out if side == "left" else m_in + m_out + h


@dataclass
class ActionStructure:
    side: str
    dim: int
    tensor: Tensor

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise InputError(f"action side must be left/right, got {self.side!r}")
        if self.tensor.rank != 3 or self.tensor.shape[1:] != (self.dim, self.dim):
            raise ShapeError(f"action tensor shape {self.tensor.shape} vs dim {self.dim}")

    @property
    def hopf_dim(self) -> int:
        return self.tensor.shape[0]


@dataclass
class CoactionStructure:
    side: str
    dim: int
    tensor: Tensor

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise InputError(f"coaction side must be left/right, got {self.side!r}")
        if self.tensor.rank != 3:
            raise ShapeError("coaction tensor must have rank 3")
        want = coaction_shape(self.side, self.dim, self.hopf_dim)
        if self.tensor.shape != want:
            raise ShapeError(f"coaction tensor shape {self.tensor.shape}, expected {want}")

    @property
    def hopf_dim(self) -> int:
        return self.tensor.shape[coaction_letters(self.side, "m", "h", "n").index("h")]


def _require_over(H: FinHopfAlgebra, S, what: str):
    """The gate on H, then a ShapeError unless the structure S is over H."""
    H.require_verified()
    if S.hopf_dim != H.dim:
        raise ShapeError(f"{what} is over dim {S.hopf_dim}, Hopf algebra has dim {H.dim}")
    if S.tensor.field != H.field:
        raise ShapeError(f"field mismatch between {what} and Hopf algebra")


def action_laws(H: FinHopfAlgebra, A: ActionStructure, reduced=False) -> list:
    """The unit and associativity laws of an action over H, as identities
    labelled ``action-unit`` and ``action-associativity``; ``reduced`` scans
    associativity on H's own generators (``hopf.own_generators``)."""
    _require_over(H, A, "action")
    return module_laws(H.mult, H.unit, A.tensor, A.side, "action",
                       own_generators(H) if reduced else None)


def coaction_laws(H: FinHopfAlgebra, C: CoactionStructure) -> list:
    """The counit law and coassociativity of a coaction over H, as
    identities labelled ``coaction-counit`` and ``coaction-coassociativity``."""
    _require_over(H, C, "coaction")
    co = C.tensor
    # left: (comult (x) id).lam == (id (x) lam).lam, legs ordered (h, h, m);
    # right: (lam (x) id).lam == (id (x) comult).lam, legs ordered (m, h, h)
    first, second = (H.comult, co) if C.side == "left" else (co, H.comult)
    return [
        Identity("coaction-counit", "a", "b",
                 [(co, coaction_letters(C.side, "a", "i", "b")), (H.counit, "i")],
                 [(Tensor.identity(H.field, C.dim), "ab")]),
        Identity("coaction-coassociativity", "a", "xyz",
                 [(co, "apz"), (first, "pxy")], [(co, "axp"), (second, "pyz")]),
    ]


def verify_action(H: FinHopfAlgebra, A: ActionStructure) -> Report:
    """Unit and associativity of a module structure, exhaustively."""
    return check(f"action-{A.side}", *action_laws(H, A))


def verify_coaction(H: FinHopfAlgebra, C: CoactionStructure) -> Report:
    """Counit law and coassociativity of a comodule structure, exhaustively."""
    return check(f"coaction-{C.side}", *coaction_laws(H, C))


# -- stock structures ------------------------------------------------------------


def regular_action(H: FinHopfAlgebra, side="left") -> ActionStructure:
    """H acting on itself by multiplication."""
    t = H.mult if side == "left" else H.mult.transpose((1, 0, 2))
    return ActionStructure(side, H.dim, t)


def trivial_action(H: FinHopfAlgebra, dim: int, side="left") -> ActionStructure:
    """Everything acts through the counit."""
    t = evaluate("iab", [(H.counit, "i"), (Tensor.identity(H.field, dim), "ab")])
    return ActionStructure(side, dim, t)


def trivial_coaction(H: FinHopfAlgebra, dim: int, side="left") -> CoactionStructure:
    """Every vector coacts by the unit of H."""
    legs = coaction_letters(side, "a", "i", "b")
    t = evaluate(legs, [(H.unit, "i"), (Tensor.identity(H.field, dim), "ab")])
    return CoactionStructure(side, dim, t)


def comult_coaction(H: FinHopfAlgebra, side="right") -> CoactionStructure:
    """H coacting on itself by its comultiplication.

    The same tensor serves both sides: read left as h-leg (x) m-leg, read
    right as m-leg (x) h-leg.
    """
    return CoactionStructure(side, H.dim, H.comult)


# -- dual-basis conversions -------------------------------------------------------


def comodule_to_dual_action(H: FinHopfAlgebra, C: CoactionStructure) -> ActionStructure:
    """A right H-comodule becomes a left module over the dual: phi.m = phi(m_h) m_0."""
    H.require_verified()
    if C.side != "right":
        raise InputError("comodule_to_dual_action expects a right coaction")
    if C.hopf_dim != H.dim:
        raise ShapeError("coaction does not match the Hopf dimension")
    return ActionStructure("left", C.dim, C.tensor.transpose((2, 0, 1)))


def dual_action_to_comodule(H: FinHopfAlgebra, A: ActionStructure) -> CoactionStructure:
    """A left dual-module yields a right H-comodule via the dual basis expansion."""
    H.require_verified()
    if A.side != "left":
        raise InputError("dual_action_to_comodule expects a left action")
    if A.hopf_dim != H.dim:
        raise ShapeError("action does not match the Hopf dimension")
    return CoactionStructure("right", A.dim, A.tensor.transpose((1, 2, 0)))
