"""The reductions of the generator lemma beyond the products: the double's
coalgebra, the coaction laws of A_H over the double, and the action laws and
AYD compatibility with an argument in H, on proved generators
(identity.on_generators); and the hypotheses each reduction names.

Each corruption keeps every hypothesis of the reduced law that it breaks, so
the reduced scan is what finds the failure: a coproduct or a coaction
composed with an algebra automorphism or endomorphism of the double, an
action composed with a unital relabelling or a conjugation of H.  The
generator-aware report must equal the full scan's (test_generators._agrees),
and on Sweedler's algebra over Q and F_7 also the dense oracles of
helpers.py.  Dropping a hypothesis that a reduced law names is a ShapeError.
"""

from __future__ import annotations

import pytest

from hayd import algebra, ayd, galois, hopf
from hayd.algebra import AlgebraModule, FinAlgebra, Generators
from hayd.ayd import TwoSidedStructure, check_ayd
from hayd.double import (ah_double_coaction, ah_module_to_ayd, build_ah, build_double,
                         build_double_hopf)
from hayd.errors import ShapeError
from hayd.fields import prime_field
from hayd.galois import check_comodule_algebra
from hayd.groups import cyclic
from hayd.hopf import check_element, group_algebra, own_generators, sweedler
from hayd.identity import Identity, check, evaluate, ledger, on_generators
from hayd.reps import ActionStructure
from hayd.suite import BUILTINS
from hayd.tensor import Tensor, invert_matrix

from helpers import (dense, first_compat_violation, first_hopf_violation,
                     first_right_coaction_violation)
from test_generators import _agrees, _comodule, _plain, _reduced, _scanned, _with_comult

FACTORIES = {name: BUILTINS[name] for name in ("group-s3", "fun-s3", "sweedler-2", "taft-3-f7")}
FACTORIES["sweedler-f7"] = lambda: sweedler(prime_field(7))
NONCOMMUTATIVE = ["group-s3", "sweedler-2", "taft-3-f7", "sweedler-f7"]
DENSE = ("sweedler-2", "sweedler-f7")  # where the dense oracles stay fast
_BUILT: dict = {}


def _built(name):
    """H, A_H, D and the coaction of D on A_H, built once per module."""
    if name not in _BUILT:
        H = FACTORIES[name]()
        _BUILT[name] = H, build_ah(H), build_double_hopf(H), ah_double_coaction(H)
    return _BUILT[name]


def _conjugation(A, u, u_inv) -> Tensor:
    """The matrix of x -> u x u^-1 on the algebra A."""
    return evaluate("xz", [(u, "a"), (A.mult, "axw"), (u_inv, "b"), (A.mult, "wbz")])


def _inverse(A, u) -> Tensor:
    """u^-1 in A, from the inverse of left multiplication by u."""
    left = evaluate("xz", [(u, "a"), (A.mult, "axz")])
    return evaluate("z", [(A.unit, "x"), (invert_matrix(left), "xz")])


def _group_like(H, D) -> Tensor:
    """The first counit (x) e_j, then e_i* (x) 1, that is group-like in D and
    not central: conjugation by it is a bialgebra automorphism other than
    the identity."""
    f, n = H.field, H.dim
    candidates = [Tensor(f, (n * n,), {(a * n + j,): c for (a,), c in H.counit.entries.items()})
                  for j in range(n)]
    candidates += [Tensor(f, (n * n,), {(i * n + b,): c for (b,), c in H.unit.entries.items()})
                   for i in range(n)]
    for u in candidates:
        if check_element(D, u, "group_like"):
            u_inv = evaluate("z", [(u, "a"), (D.antipode, "az")])
            if _conjugation(D, u, u_inv) != Tensor.identity(f, D.dim):
                return u
    raise AssertionError("no group-like of D that is not central")


def _not_group_like(H, D) -> Tensor:
    """3 - 2u for that group-like u: invertible with counit 1, so
    conjugation by it is an algebra automorphism that keeps the counit but
    is no coalgebra map."""
    u = _group_like(H, D)
    v = Tensor(D.field, (D.dim,), {k: 3 * c for k, c in D.unit.entries.items()})
    return v - u - u


def _comults(name):
    """(label, coproduct) of D that keep bialgebra-mult, bialgebra-counit
    and bialgebra-unit: (id (x) conjugation by a group-like) of the
    coproduct, which is not coassociative, and x -> x (x) 1, which is
    coassociative but breaks the first counit law."""
    H, _, D, _ = _built(name)
    u = _group_like(H, D)
    phi = _conjugation(D, u, evaluate("z", [(u, "a"), (D.antipode, "az")]))
    delta = Tensor.identity(D.field, D.dim)
    yield "coassociativity", evaluate("kab", [(D.comult, "kac"), (phi, "cb")])
    yield "counit", evaluate("kab", [(delta, "ka"), (D.unit, "b")])


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_a_corrupted_coproduct_of_the_double_fails_its_reduced_law(monkeypatch, name):
    H, _, D, _ = _built(name)
    for label, comult in _comults(name):
        fast, full = _with_comult(D, comult, D.generators), _with_comult(D, comult, None)
        first = _agrees(monkeypatch, fast, full)
        assert first.label == label and _reduced(first)
        if name in DENSE:
            r = full()
            Dc = hopf.FinHopfAlgebra(D.field, D.mult, D.unit, comult, D.counit, D.antipode)
            assert (r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == first_hopf_violation(Dc)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_a_corrupted_coaction_on_a_h_fails_its_reduced_law(monkeypatch, name):
    # (id (x) conjugation by 3 - 2u) of the coaction: still an algebra map
    # with 1 -> 1 (x) 1 and the counit law, but not coassociative
    H, A, D, coaction = _built(name)
    v = _not_group_like(H, D)
    psi = _conjugation(D, v, _inverse(D, v))
    co = evaluate("abk", [(coaction.tensor, "abc"), (psi, "ck")])
    first = _agrees(monkeypatch, _comodule(A, D, co), _comodule(_plain(A), D, co))
    assert first.label == "coaction-coassociativity" and _reduced(first)
    if name in DENSE:
        r = _comodule(_plain(A), D, co)()
        assert (r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == \
            first_right_coaction_violation(D, co)


def _relabelled_actions(H):
    """(label, sigma) for h acting through sigma(h): sigma exchanges two basis
    elements of H outside the unit's support, so an action stays unital but
    not associative; or sigma is conjugation by a group-like of H that is not
    central, so a module stays one but not compatible."""
    f, n = H.field, H.dim
    s, t = [i for i in range(n) if (i,) not in H.unit.entries][:2]
    swap = {s: t, t: s}
    sigma = Tensor(f, (n, n), {(i, swap.get(i, i)): f.one for i in range(n)})
    yield "action-associativity", sigma
    for g in range(n):
        u = H.basis_vector(g)
        if check_element(H, u, "group_like"):
            phi = _conjugation(H, u, evaluate("z", [(u, "a"), (H.antipode, "az")]))
            if phi != Tensor.identity(f, n):
                yield "anti-yetter-drinfeld-lr", phi
                break
    else:
        raise AssertionError("no basis group-like of H that is not central")


def _acting_through(M, sigma):
    act = evaluate("hab", [(sigma, "hk"), (M.action.tensor, "kab")])
    return TwoSidedStructure(M.hopf, ActionStructure("left", M.dim, act), M.coaction)


def _in_turn(*runs):
    """The first failing report of ``runs``, or the last one."""
    for run in runs:
        report = run()
        if not report.passed:
            return report
    return report


@pytest.mark.parametrize("name", NONCOMMUTATIVE)
def test_a_corrupted_ayd_action_fails_its_reduced_law(monkeypatch, name):
    H, A, _, _ = _built(name)
    M = ah_module_to_ayd(H, AlgebraModule(A, A.mult))
    for label, sigma in _relabelled_actions(H):
        bad = _acting_through(M, sigma)
        first = _agrees(monkeypatch, lambda: check_ayd(bad, with_laws=True),
                        lambda: _in_turn(bad.verify, lambda: check_ayd(bad)))
        assert first.label == label and _reduced(first)
        if name in DENSE and label.startswith("anti"):
            r = check_ayd(bad)
            sinv = dense(hopf.antipode_inverse(H))
            assert (r.axiom, r.witness, dense(r.lhs), dense(r.rhs)) == \
                first_compat_violation(bad, True, sinv)


def test_own_generators_are_greedy_rows_proved_once_per_h():
    H = BUILTINS["taft-3-f7"]()
    G = own_generators(H)
    assert own_generators(H) is G
    assert (G.mult, G.unit) == (H.mult, H.unit)
    assert G.matrix.shape == (2, 9)  # g and x
    assert H.generators is None  # verifying H itself stays full


# -- the hypotheses as data ------------------------------------------------------------


def test_a_record_is_made_only_by_a_proof():
    H = sweedler()
    with pytest.raises(TypeError):
        Generators(Tensor.identity(H.field, H.dim), H.mult, H.unit, None)
    A, D = build_ah(H), build_double(H)
    with pytest.raises(ShapeError, match="another product"):  # A_H's proof, the double's product
        FinAlgebra(D.field, D.mult, D.unit, check=False, generators=A.generators)
    adopted = FinAlgebra(A.field, A.mult, A.unit, generators=A.generators)
    assert adopted.generators is A.generators


def test_a_record_reduces_only_its_own_product(monkeypatch):
    # rows proved to generate another algebra of the same dimension need not
    # generate this one, so a law over H refuses them; the structures over H
    # take H's own record
    H = sweedler()
    other = own_generators(group_algebra(cyclic(4)))
    with pytest.raises(ShapeError, match="another product"):
        algebra.module_laws(H.mult, H.unit, H.mult, "action", generators=other)
    M = ah_module_to_ayd(H, AlgebraModule(build_ah(H), build_ah(H).mult))
    report, log = _scanned(monkeypatch, lambda: check_ayd(M, with_laws=True))
    rows = [ident.lhs[0][0] for group, _ in log for ident in group if _reduced(ident)]
    assert report.passed and len(rows) == 2  # action-associativity, then the compatibility
    assert all(t is own_generators(H).matrix for t in rows)


def test_a_reduction_names_its_hypotheses():
    H = sweedler()
    law = Identity("x", "i", "", [(H.counit, "i")], [(H.counit, "i")])
    with pytest.raises(ShapeError, match="names no hypothesis"):
        on_generators(law, own_generators(H))
    assert on_generators(law, None) is law  # nothing to rest on


def test_a_hypothesis_may_come_from_the_ledger():
    # module-associativity on A_H's generators rests on module-unit: a check
    # call without it passes only once the ledger holds that proof
    A = build_ah(sweedler())
    unit, assoc = algebra.module_laws(A.mult, A.unit, A.mult, generators=A.generators)
    with pytest.raises(ShapeError, match="needs module-unit,"):
        check("module", assoc)
    with ledger():
        assert check("module", unit).passed
        assert check("module", assoc).passed


def _dropping(monkeypatch, module, label):
    """``module.check`` with every identity labelled ``label`` left out."""
    real = module.check

    def dropped(ok_label, *groups):
        kept = []
        for group in groups:
            group = [group] if isinstance(group, Identity) else list(group)
            group = [ident for ident in group if ident.label != label]
            if group:
                kept.append(group)
        return real(ok_label, *kept)

    monkeypatch.setattr(module, "check", dropped)


def _call_site(site):
    """The module whose check call the site makes, and the call."""
    H, A, D, coaction = _built("sweedler-2")
    M = ah_module_to_ayd(H, AlgebraModule(A, A.mult))
    return {
        "algebra": (algebra, lambda: FinAlgebra(A.field, A.mult, A.unit, check=False,
                                                generators=A.generators.matrix).verify()),
        "module": (algebra, lambda: AlgebraModule(A, A.mult, check=False).verify()),
        "hopf": (hopf, _with_comult(D, D.comult, D.generators)),
        "comodule-algebra": (galois, lambda: check_comodule_algebra(A, D, coaction)),
        "two-sided": (ayd, lambda: M.verify(reduced=True)),
        "ayd": (ayd, lambda: check_ayd(M, with_laws=True)),
    }[site]


@pytest.mark.parametrize("site, label", [
    ("algebra", "unit"), ("module", "module-unit"), ("hopf", "bialgebra-unit"),
    ("hopf", "bialgebra-mult"), ("comodule-algebra", "coaction-unital"),
    ("comodule-algebra", "coaction-multiplicative"), ("two-sided", "action-unit"),
    ("ayd", "action-unit"), ("ayd", "action-associativity"),
])
def test_dropping_a_named_hypothesis_is_a_shape_error(monkeypatch, site, label):
    module, call = _call_site(site)
    assert call().passed
    _dropping(monkeypatch, module, label)
    with pytest.raises(ShapeError, match=f"needs {label},"):
        call()
