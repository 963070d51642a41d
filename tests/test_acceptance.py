"""Acceptance criteria, one test per criterion, each printing a pass line and
enforcing the stated wall-clock budget.  Budgets are generous on purpose: the
point is catching algorithmic regressions, not micro-benchmarks.
"""

import json
import time

import pytest

from hayd.ayd import (
    check_ayd,
    check_entwined_module,
    check_entwining,
    check_modular_pair,
    check_pi_stability,
    check_stability,
    check_yd,
    entwining_map,
    group_graded_module,
    one_dim_module,
    tensor_product,
)
from hayd.cli import main
from hayd.double import (
    ah_double_coaction,
    ah_module_to_ayd,
    ayd_to_ah_module,
    build_ah,
    build_double,
    build_double_hopf,
)
from hayd.errors import GuardError
from hayd.fields import prime_field, rationals
from hayd.galois import (
    canonical_map,
    check_comodule_algebra,
    comodule_algebra_from_hopf,
    make_sayd_prop5,
    mu_action,
    restrict_coaction,
    translation_map,
)
from hayd.groups import cyclic, symmetric
from hayd.hopf import (
    check_element,
    find_group_likes,
    function_algebra,
    group_algebra,
    sweedler,
    verify_hopf_axioms,
)
from hayd.suite import BUILTINS, adjoint_structure
from hayd.reps import CoactionStructure
from hayd.tensor import Tensor
from hayd.algebra import AlgebraModule, FinAlgebra

from helpers import graded_structure

Q = rationals()


class budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        return False


@pytest.fixture(scope="module")
def builtins():
    return {name: factory() for name, factory in BUILTINS.items()}


def test_criterion_1_hopf_axiom_suite(builtins):
    with budget("1 hopf-axiom-suite", 1.0):
        for name, H in builtins.items():
            report = verify_hopf_axioms(H)
            assert report.passed, (name, report)


def test_criterion_2_definition_and_stability():
    with budget("2 definition-stability", 1.0):
        G = symmetric(3)

        def conj(g, a):
            return (G.mul(G.mul(g, a), G.inverse(g)), 1)

        M = group_graded_module(G, list(range(6)), conj)
        assert check_ayd(M).passed
        assert check_stability(M).passed

        corrupted = group_graded_module(G, [0, 1, 2, 3, 4, 0], conj)
        r = check_ayd(corrupted)
        assert not r.passed
        # the expected witness: first (hopf index, module index) in
        # lexicographic order where the action leaves the stated grade orbit
        grading = [0, 1, 2, 3, 4, 0]
        expected = None
        for i in range(6):
            for a in range(6):
                target, _ = conj(i, a)
                if G.mul(G.mul(i, grading[a]), G.inverse(i)) != grading[target]:
                    expected = (i, a)
                    break
            if expected:
                break
        assert r.witness == expected


def _modular_candidates(name, H):
    """Characters and group-likes per builtin, all screened by check_element."""
    f = H.field
    n = H.dim
    chars = [H.counit]
    glikes = [H.unit]
    if name in ("group-c2", "group-s3"):
        G = cyclic(2) if name == "group-c2" else symmetric(3)
        if name == "group-c2":
            sign = Tensor(f, (n,), {(0,): f.one, (1,): f.coerce(-1)})
        else:
            parity = [0, 1, 1, 0, 0, 1]
            sign = Tensor(
                f, (n,), {(i,): f.coerce(-1) if parity[i] else f.one for i in range(n)}
            )
        chars.append(sign)
        glikes = [H.basis_vector(i) for i in range(n)]
    elif name == "group-c3":
        glikes = [H.basis_vector(i) for i in range(3)]
    elif name in ("fun-c2", "fun-s3"):
        chars = [H.basis_vector(i) for i in range(n)]  # evaluation functionals
        if name == "fun-c2":
            glikes = [
                H.unit,
                Tensor(f, (2,), {(0,): f.one, (1,): f.coerce(-1)}),
            ]
        else:
            parity = [0, 1, 1, 0, 0, 1]
            glikes = [
                H.unit,
                Tensor(
                    f, (6,), {(i,): f.coerce(-1) if parity[i] else f.one for i in range(6)}
                ),
            ]
    elif name == "sweedler-2":
        chars.append(Tensor(f, (4,), {(0,): f.one, (2,): f.coerce(-1)}))
        glikes = [H.unit, H.basis_vector(2)]
    elif name == "taft-3-f7":
        zeta = 2
        for j in (1, 2):
            chars.append(
                Tensor(
                    f, (9,),
                    {(a * 3,): pow(zeta, j * a, 7) for a in range(3)},
                )
            )
        glikes = [H.basis_vector(a * 3) for a in range(3)]
    for d in chars:
        assert check_element(H, d, "character"), name
    for s in glikes:
        assert check_element(H, s, "group_like"), name
    return chars, glikes


def test_criterion_3_modular_pairs(builtins):
    with budget("3 modular-pairs", 5.0):
        truths = {}
        for name, H in builtins.items():
            chars, glikes = _modular_candidates(name, H)
            for delta in chars:
                for sigma in glikes:
                    M = one_dim_module(H, delta, sigma)
                    stable_ayd = check_ayd(M).passed and check_stability(M).passed
                    lhs = check_modular_pair(H, delta, sigma)
                    assert lhs == stable_ayd, name
                    truths.setdefault(name, []).append(lhs)
        H4 = builtins["sweedler-2"]
        assert check_modular_pair(H4, H4.counit, H4.basis_vector(2)) is True
        assert check_modular_pair(H4, H4.counit, H4.unit) is False

        # enumeration-backed group-likes on prime-field instances under the guard
        f3, f5 = prime_field(3), prime_field(5)
        small = group_algebra(cyclic(2), f3)
        assert len(find_group_likes(small)) == 2
        small4 = sweedler(f5)
        for sigma in find_group_likes(small4):
            M = one_dim_module(small4, small4.counit, sigma)
            both = check_ayd(M).passed and check_stability(M).passed
            assert check_modular_pair(small4, small4.counit, sigma) == both
        with pytest.raises(GuardError):
            find_group_likes(builtins["taft-3-f7"])


def test_criterion_4_tensor_construction(builtins):
    with budget("4 tensor-construction", 30.0):
        pairs = 0
        cases_seen = set()
        hopfs = {
            "group-c2": (builtins["group-c2"], cyclic(2)),
            "group-c3": (builtins["group-c3"], cyclic(3)),
        }
        for case in ("ll", "lr", "rl", "rr"):
            for name, (H, G) in hopfs.items():
                n = len(G)
                zoo = [one_dim_module(H, H.counit, H.unit, case),
                       graded_structure(H, G, list(range(n)), case)]
                if n == 2:
                    def signed(g, a):
                        if g == 0:
                            return (a, 1)
                        return (a, 1) if a == 0 else (a, -1)

                    zoo.append(graded_structure(H, G, [0, 1], case, action_map=signed))
                yd_pool = [M for M in zoo if check_yd(M).passed]
                ayd_pool = [M for M in zoo if check_ayd(M).passed]
                for N in yd_pool:
                    for M in ayd_pool:
                        assert N.dim <= 4 and M.dim <= 4
                        T = tensor_product(N, M, case)
                        assert check_ayd(T).passed, (name, case)
                        assert T.dim == N.dim * M.dim
                        pairs += 1
                        cases_seen.add(case)
        # genuinely twisted factors over the smallest nontrivial antipode
        H4 = builtins["sweedler-2"]
        sw_n = adjoint_structure(H4, twisted=False)
        sw_m = adjoint_structure(H4, twisted=True)
        assert check_yd(sw_n).passed and check_ayd(sw_m).passed
        T = tensor_product(sw_n, sw_m, "rr")
        assert check_ayd(T).passed
        pairs += 1
        one_n = one_dim_module(H4, H4.counit, H4.unit, "rr")
        one_m = one_dim_module(H4, H4.counit, H4.basis_vector(2), "rr")
        T = tensor_product(one_n, one_m, "rr")
        assert check_ayd(T).passed
        pairs += 1
        assert pairs >= 20, pairs
        assert cases_seen == {"ll", "lr", "rl", "rr"}


def test_criterion_5_entwining_equivalence(builtins):
    with budget("5 entwining-equivalence", 30.0):
        for name, H in builtins.items():
            psi_a = entwining_map(H, "ayd")
            psi_y = entwining_map(H, "yd")
            assert check_entwining(psi_a).passed, name
            assert check_entwining(psi_y).passed, name
            mods = [
                one_dim_module(H, H.counit, H.unit, "rr"),
                adjoint_structure(H, twisted=False),
                adjoint_structure(H, twisted=True),
                one_dim_module(H, H.counit, H.unit, "rr"),
            ]
            for M in mods:
                assert check_ayd(M).passed == check_entwined_module(psi_a, M).passed, name
                assert check_yd(M).passed == check_entwined_module(psi_y, M).passed, name
        H4 = builtins["sweedler-2"]
        only_ayd = one_dim_module(H4, H4.counit, H4.basis_vector(2), "rr")
        assert check_ayd(only_ayd).passed and not check_yd(only_ayd).passed
        only_yd = one_dim_module(H4, H4.counit, H4.unit, "rr")
        assert check_yd(only_yd).passed and not check_ayd(only_yd).passed


def test_criterion_6_quotient_stability():
    with budget("6 quotient-stability", 1.0):
        G = symmetric(3)
        H = function_algebra(G)
        transpositions = [i for i in range(6) if i != G.identity and G.mul(i, i) == G.identity]
        m = len(transpositions)
        assert m == 3
        mult = Tensor(Q, (m, m, m), {(a, a, a): Q.one for a in range(m)})
        unit = Tensor(Q, (m,), {(a,): Q.one for a in range(m)})
        M = FinAlgebra(Q, mult, unit)
        entries = {}
        for y_pos, y in enumerate(transpositions):
            for g in range(6):
                x = G.mul(G.mul(G.inverse(g), y), g)
                entries[(y_pos, g, transpositions.index(x))] = Q.one
        coaction = CoactionStructure("left", m, Tensor(Q, (m, 6, m), entries))
        pi = Tensor(
            Q, (6, m), {(g, transpositions.index(g)): Q.one for g in transpositions}
        )
        r = check_pi_stability(H, M, coaction, pi)
        assert r.passed, r


def test_criterion_7_galois_baseline(builtins):
    with budget("7 galois-baseline", 10.0):
        commutative = {"fun-c2", "fun-s3", "group-c2", "group-c3"}
        for name, H in builtins.items():
            CA = comodule_algebra_from_hopf(H)
            G = canonical_map(CA)
            assert G.bijective, name
            T = translation_map(G)  # raises unless can(T(h)) = 1 (x) h exactly
            assert T.shape[0] == H.dim
            M = make_sayd_prop5(CA)
            assert check_ayd(M).passed and check_stability(M).passed, name
            action, carrier = mu_action(G, flipped=False)
            co = CoactionStructure(
                "right", carrier.shape[0], restrict_coaction(CA, carrier)
            )
            from hayd.ayd import TwoSidedStructure

            Z = TwoSidedStructure(H, action, co)
            assert check_yd(Z).passed, name
            if CA.P.is_commutative():
                assert name in commutative
                f = H.field
                expected = {}
                for (i,), c in H.counit.entries.items():
                    for a in range(carrier.shape[0]):
                        expected[(i, a, a)] = c
                assert action.tensor == Tensor(
                    f, (H.dim, carrier.shape[0], carrier.shape[0]), expected
                ), name


def test_criterion_8_product_space_and_double(builtins):
    with budget("8 product-space-double", 120.0):
        squares_to_id = {"group-c2", "group-c3", "group-s3", "fun-c2", "fun-s3"}
        for name, H in builtins.items():
            A = build_ah(H)  # construction runs the exhaustive checks
            assert A.dim == H.dim**2
            D = build_double(H)
            same = A.mult == D.mult
            assert same == (name in squares_to_id), name
            lam = ah_double_coaction(H)
            r = check_comodule_algebra(A, build_double_hopf(H), lam)
            assert r.passed, name
        # round trips on structure constants, both directions
        G = symmetric(3)
        H = builtins["group-s3"]
        M = graded_structure(H, G, list(range(6)), "lr")
        V = ayd_to_ah_module(H, M)
        M2 = ah_module_to_ayd(H, V)
        assert M2.action.tensor == M.action.tensor
        assert M2.coaction.tensor == M.coaction.tensor
        assert ayd_to_ah_module(H, M2).action == V.action
        H2 = builtins["group-c2"]
        A2 = build_ah(H2)
        reg = AlgebraModule(A2, A2.mult)
        Mreg = ah_module_to_ayd(H2, reg)
        assert ayd_to_ah_module(H2, Mreg).action == reg.action
        # taft(3): dim 81 product space was verified exhaustively during build
        assert build_ah(builtins["taft-3-f7"]).dim == 81


def test_criterion_9_cli_suite_and_corruption(tmp_path, capsys):
    import copy
    from fractions import Fraction

    from hayd import schema
    from hayd.hopf import verify_hopf_axioms

    with budget("9 cli-suite-corruption", 180.0):
        assert main(["suite", "--builtin", "all"]) == 0
        capsys.readouterr()
        for name in BUILTINS:
            path = tmp_path / f"{name}.json"
            assert main(["export-builtin", name, "-o", str(path)]) == 0
            doc = json.loads(path.read_text())
            prime = doc["field"]["kind"] == "prime-field"
            p = doc["field"].get("characteristic")

            def corrupt(key, pos):
                bad = copy.deepcopy(doc)
                entry = bad[key][pos]
                if prime:
                    entry["c"] = (entry["c"] * 2) % p or 1
                else:
                    entry["c"] = str(Fraction(entry["c"]) * 2)
                return bad

            # every single structure constant, through the library route
            for key in ("mult", "unit", "comult", "counit", "antipode"):
                for pos in range(len(doc[key])):
                    bad = corrupt(key, pos)
                    H2 = schema.doc_to_hopf(
                        schema.parse_document(schema.dumps(bad))
                    )
                    report = verify_hopf_axioms(H2)
                    assert not report.passed, (name, key, pos)
                    assert report.witness is not None, (name, key, pos)
                # and end-to-end through the CLI for one entry per tensor
                bad_path = tmp_path / f"{name}.{key}.bad.json"
                bad_path.write_text(json.dumps(corrupt(key, 0)))
                rc = main(["verify", str(bad_path)])
                out = capsys.readouterr().out
                assert rc == 1, (name, key)
                assert "FAIL at (" in out, (name, key)
