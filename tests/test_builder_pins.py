"""Every builder's output on the seven builtins, pinned by SHA-256.

Each digest covers the sorted entries of the built tensors with their exact
scalar types, so any change in a coefficient, an index, a shape or a scalar
type shows here.  A Q scalar is digested as a Fraction (``repr`` tells
``Fraction(1, 1)`` from ``1``), after ``_canon`` asserts that it is in the
normal form of ``hayd.fields``: an int iff it is integral.  A pin is one
digest over the builtins in registry order; a failure names the output.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from hayd.algebra import AlgebraModule
from hayd.ayd import (
    CASES,
    check_ayd,
    check_yd,
    entwining_map,
    one_dim_module,
    tensor_product,
)
from hayd.double import (
    ah_double_coaction,
    ah_module_to_ayd,
    ayd_to_ah_module,
    build_ah,
    build_double,
    build_double_hopf,
    yd_to_double_module,
)
from hayd.fields import prime_field
from hayd.galois import (
    canonical_map,
    comodule_algebra_from_hopf,
    mu_action,
    restrict_coaction,
    translation_map,
)
from hayd.suite import (
    BUILTINS,
    adjoint_structure,
    builtin,
    screened_characters,
    screened_group_likes,
)
from hayd.hopf import taft
from hayd.tensor import Tensor

PINS = {
    "adjoint": "380d7879aeba3ffc71f9561475e9f1d4757f5d49bad98beb14dacf0059ce5e53",
    "adjoint-twisted": "0eec7e7463178d6cfec99ba0881e806d1fcac9264c0cdc9dfdf7be48b72e9d8a",
    "ah": "4e2568124f7153042d859ad99439ad333803129deb0ba29a8a6df279ef41b15b",
    "ah-double-coaction": "abf3273182715df80a942ed5406ade78031004374a43eefff7db0a2425156cdf",
    "ah-module-to-ayd": "f7e73822b5d15ddac55ae4091b1b2d9bbbfec23e0e2d0e655a749f93f337ff11",
    "ayd-to-ah-module": "4ed730441d9ac86dcd2d51c2a0b28c17dcee572f0a954231f8be122b6b4c5910",
    "canonical-map": "61d1a7bfda4d8996682f6f8bf432522c11cf0020725455c39d9e9f86ae3c59a2",
    "double": "884c4cbf3a035b3e42bbd55c9b7c712453eae28489613a7827b63aaab5f6a2c9",
    "double-antipode": "374c1e0575cf12d7620ac9dc8efddbd498828f6b53166ca45f817d0b06545293",
    "double-comult": "abf3273182715df80a942ed5406ade78031004374a43eefff7db0a2425156cdf",
    "double-counit": "81cb449666ace63228634d95bf95d52ba82c6d9a51fad15cbe13547d350d5da1",
    "entwining-ayd": "f19fabc0fa969e3d89c163bf6843c679315fb4926a1e5af587ee50e6e4408791",
    "entwining-yd": "21a987b6921cfce4a1429b0b65d729849b14c114e6d7eb248103a6a66303a322",
    "hopf": "b85c9a5ba938de20332aa7f62399e0ef626276e32156e111479442dad85708de",
    "mu-action": "db3c1cef4c244e90e95a3a4076329bca865357bb0b4a9458a125605b1d3e5d01",
    "mu-action-flipped": "beb2642006005210ba761009590addb61c8ca732da0adcb8b8848b59918f4b1e",
    "restrict-coaction": "5ac1fd2991511d57e4b8914b0b73ca01c8a6938b2fd9e6973a495dff50f65205",
    "tensor-ll": "02820b0f1a25dc97f7de0509f77ae3fbe23a071df007570007be55ce55f091d0",
    "tensor-lr": "b47fe8c0d2e5a427c33ef048c727b99f02dcc37d8cc235f4096e928a02406e4c",
    "tensor-rl": "21fe0f88d684c15f611e82fce9aa71032af351793bd8574343d94ab6b7ce0fb2",
    "tensor-rr": "03dea9c148749808135500e2b5408acd79f0bd8e6d963d5299553ca21ef8ab39",
    "translation-map": "46ec038a89091b95e62dfd7afcd57508aee338147cd6349bfb325cc2806083ae",
}


def _canon(x):
    if isinstance(x, Tensor) and x.field.p is None:
        for c in x.entries.values():
            assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)
        return ("tensor", x.shape, sorted((k, repr(Fraction(c))) for k, c in x.entries.items()))
    if isinstance(x, Tensor):
        return ("tensor", x.shape, sorted((k, repr(c)) for k, c in x.entries.items()))
    if isinstance(x, (list, tuple)):
        return [_canon(y) for y in x]
    return repr(x)


def _structures(H, case):
    """The trivial and one-dim structures the suite builds, plus for rr the
    two adjoint structures."""
    out = [("trivial", one_dim_module(H, H.counit, H.unit, case))]
    for k, delta in enumerate(screened_characters(H)):
        for l, sigma in enumerate(screened_group_likes(H)):
            out.append((f"one-dim-{k}-{l}", one_dim_module(H, delta, sigma, case)))
    if case == "rr":
        out += [("adjoint", adjoint_structure(H, twisted=False)),
                ("adjoint-twisted", adjoint_structure(H, twisted=True))]
    return [(name, M) for name, M in out if M.verify().passed]


def _outputs(H) -> dict:
    out = {"hopf": [H.mult, H.unit, H.comult, H.counit, H.antipode]}
    A, B = build_ah(H), build_double(H)
    out["ah"] = [A.mult, A.unit]
    out["double"] = [B.mult, B.unit]
    D = build_double_hopf(H)
    out["double-comult"], out["double-counit"], out["double-antipode"] = (
        D.comult, D.counit, D.antipode)
    for variant in ("yd", "ayd"):
        out[f"entwining-{variant}"] = entwining_map(H, variant).psi
    for twisted in (False, True):
        M = adjoint_structure(H, twisted)
        out["adjoint-twisted" if twisted else "adjoint"] = [M.action.side, M.action.tensor]
    for case in CASES:
        mods = _structures(H, case)
        plain = [(a, N) for a, N in mods if check_yd(N).passed]
        twisted = [(b, M) for b, M in mods if check_ayd(M).passed]
        products = []
        for a, N in plain:
            for b, M in twisted:
                T = tensor_product(N, M, case)
                products.append([a, b, T.action.side, T.action.tensor,
                                 T.coaction.side, T.coaction.tensor])
        out[f"tensor-{case}"] = products
    reg = AlgebraModule(A, A.mult)
    M = ah_module_to_ayd(H, reg)
    out["ah-module-to-ayd"] = [M.action.tensor, M.coaction.tensor]
    back = [ayd_to_ah_module(H, M).action]
    triv = one_dim_module(H, H.counit, H.unit, "lr")
    if check_yd(triv).passed:
        back.append(yd_to_double_module(H, triv).action)
    out["ayd-to-ah-module"] = back
    out["ah-double-coaction"] = ah_double_coaction(H).tensor
    CA = comodule_algebra_from_hopf(H)
    G = canonical_map(CA)
    out["canonical-map"] = [G.can, G.bijective, G.b_basis, G.rel.relations, G.rel.section]
    out["translation-map"] = translation_map(G)
    for flipped in (False, True):
        action, carrier = mu_action(G, flipped)
        out["mu-action-flipped" if flipped else "mu-action"] = [action.tensor, carrier]
    _, carrier = mu_action(G, False)
    out["restrict-coaction"] = restrict_coaction(CA, carrier)
    return out


@pytest.fixture(scope="module")
def outputs():
    return {name: _outputs(builtin(name)) for name in BUILTINS}


def _digest(outputs, key):
    per_builtin = [_canon(outputs[name][key]) for name in BUILTINS]
    return hashlib.sha256(repr(per_builtin).encode()).hexdigest()


def test_every_builder_output_is_pinned(outputs):
    assert set(PINS) == set(outputs["group-c2"])


@pytest.mark.parametrize("key", sorted(PINS))
def test_builder_output_matches_pin(outputs, key):
    assert _digest(outputs, key) == PINS[key]


def test_taft_4_over_f5_is_pinned():
    """The scale tier's Hopf algebras: comult and antipode come from products."""
    hopfs = [taft(4, prime_field(5), zeta) for zeta in (2, 3)]
    digest = hashlib.sha256(repr([
        _canon([H.mult, H.unit, H.comult, H.counit, H.antipode]) for H in hopfs
    ]).encode()).hexdigest()
    assert digest == "69b8185ba62eb87fa3871968f1296f8ba54d5049a1256bb7f5c4ad384f3876b1"
