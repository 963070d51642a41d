"""Module and comodule structures on finite-dimensional spaces.

Actions are stored as rank-3 tensors rho[h, m_in, m_out]; a left action means
rho gives the operator of h acting from the left, a right action the operator
acting from the right.  Coactions put the Hopf index where the side dictates:
left  lam[m_in, h, m_out]   (m maps to h-leg (x) m-leg)
right lam[m_in, m_out, h]   (m maps to m-leg (x) h-leg)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ShapeError
from .hopf import FinHopfAlgebra
from .identity import Identity, check
from .report import Report
from .tensor import Tensor


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
        n = self.hopf_dim
        want = (self.dim, n, self.dim) if self.side == "left" else (self.dim, self.dim, n)
        if self.tensor.shape != want:
            raise ShapeError(f"coaction tensor shape {self.tensor.shape}, expected {want}")

    @property
    def hopf_dim(self) -> int:
        return self.tensor.shape[1] if self.side == "left" else self.tensor.shape[2]


def verify_action(H: FinHopfAlgebra, A: ActionStructure) -> Report:
    """Unit and associativity of a module structure, exhaustively."""
    H.require_verified()
    if A.hopf_dim != H.dim:
        raise ShapeError(f"action is over dim {A.hopf_dim}, Hopf algebra has dim {H.dim}")
    if A.tensor.field != H.field:
        raise ShapeError("field mismatch between action and Hopf algebra")
    act = A.tensor
    # left: (e_i e_j) m = e_i (e_j m); right: m (e_i e_j) = (m e_i) e_j
    twice = [(act, "icb"), (act, "jac")] if A.side == "left" else [(act, "iac"), (act, "jcb")]
    return check(
        f"action-{A.side}",
        Identity("action-unit", "a", "b", [(H.unit, "j"), (act, "jab")],
                 [(Tensor.identity(H.field, A.dim), "ab")]),
        Identity("action-associativity", "ija", "b", [(H.mult, "ijk"), (act, "kab")], twice),
    )


def verify_coaction(H: FinHopfAlgebra, C: CoactionStructure) -> Report:
    """Counit law and coassociativity of a comodule structure, exhaustively."""
    H.require_verified()
    if C.hopf_dim != H.dim:
        raise ShapeError(f"coaction is over dim {C.hopf_dim}, Hopf algebra has dim {H.dim}")
    if C.tensor.field != H.field:
        raise ShapeError("field mismatch between coaction and Hopf algebra")
    co = C.tensor
    # left: (comult (x) id).lam == (id (x) lam).lam, legs ordered (h, h, m);
    # right: (lam (x) id).lam == (id (x) comult).lam, legs ordered (m, h, h)
    first, second = (H.comult, co) if C.side == "left" else (co, H.comult)
    legs = "aib" if C.side == "left" else "abi"
    return check(
        f"coaction-{C.side}",
        Identity("coaction-counit", "a", "b", [(co, legs), (H.counit, "i")],
                 [(Tensor.identity(H.field, C.dim), "ab")]),
        Identity("coaction-coassociativity", "a", "xyz",
                 [(co, "apz"), (first, "pxy")], [(co, "axp"), (second, "pyz")]),
    )


# -- stock structures ------------------------------------------------------------


def regular_action(H: FinHopfAlgebra, side="left") -> ActionStructure:
    """H acting on itself by multiplication."""
    t = H.mult if side == "left" else H.mult.transpose((1, 0, 2))
    return ActionStructure(side, H.dim, t)


def trivial_action(H: FinHopfAlgebra, dim: int, side="left") -> ActionStructure:
    """Everything acts through the counit."""
    f = H.field
    entries = {}
    for (i,), c in H.counit.entries.items():
        for a in range(dim):
            entries[(i, a, a)] = c
    return ActionStructure(side, dim, Tensor(f, (H.dim, dim, dim), entries, _normalized=True))


def trivial_coaction(H: FinHopfAlgebra, dim: int, side="left") -> CoactionStructure:
    """Every vector coacts by the unit of H."""
    f = H.field
    entries = {}
    for (i,), c in H.unit.entries.items():
        for a in range(dim):
            key = (a, i, a) if side == "left" else (a, a, i)
            entries[key] = c
    shape = (dim, H.dim, dim) if side == "left" else (dim, dim, H.dim)
    return CoactionStructure(side, dim, Tensor(f, shape, entries, _normalized=True))


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
    entries = {
        (i, a, b): c for (a, b, i), c in C.tensor.entries.items()
    }
    t = Tensor(H.field, (H.dim, C.dim, C.dim), entries, _normalized=True)
    return ActionStructure("left", C.dim, t)


def dual_action_to_comodule(H: FinHopfAlgebra, A: ActionStructure) -> CoactionStructure:
    """A left dual-module yields a right H-comodule via the dual basis expansion."""
    H.require_verified()
    if A.side != "left":
        raise InputError("dual_action_to_comodule expects a left action")
    if A.hopf_dim != H.dim:
        raise ShapeError("action does not match the Hopf dimension")
    entries = {
        (a, b, i): c for (i, a, b), c in A.tensor.entries.items()
    }
    t = Tensor(H.field, (A.dim, A.dim, H.dim), entries, _normalized=True)
    return CoactionStructure("right", A.dim, t)
