import json
import sys
import time
from fractions import Fraction

import pytest

from hayd import schema
from hayd.ayd import one_dim_module
from hayd.cli import main
from hayd.errors import InputError, SchemaError
from hayd.fields import prime_field, rationals
from hayd.groups import cyclic
from hayd.hopf import group_algebra, sweedler
from hayd.suite import BUILTINS

Q = rationals()


def test_parse_serialize_round_trip_on_all_builtins():
    for name, factory in BUILTINS.items():
        H = factory()
        doc = schema.hopf_to_doc(H)
        text = schema.dumps(doc)
        parsed = schema.parse_document(text)
        H2 = schema.doc_to_hopf(parsed)
        assert H2.mult == H.mult and H2.comult == H.comult, name
        assert H2.unit == H.unit and H2.counit == H.counit, name
        assert H2.antipode == H.antipode, name
        assert schema.dumps(schema.hopf_to_doc(H2)) == text, name


def test_two_sided_round_trip():
    H = sweedler()
    M = one_dim_module(H, H.counit, H.basis_vector(2), "rr")
    doc = schema.two_sided_to_doc(M)
    M2 = schema.doc_to_two_sided(schema.parse_document(schema.dumps(doc)), H)
    assert M2.action.tensor == M.action.tensor
    assert M2.coaction.tensor == M.coaction.tensor


def test_action_coaction_round_trip():
    from hayd.reps import comult_coaction, regular_action

    H = sweedler()
    A = regular_action(H, "left")
    doc = schema.parse_document(schema.dumps(schema.action_to_doc(A, H.dim)))
    assert schema.doc_to_action(doc, H).tensor == A.tensor
    C = comult_coaction(H, "right")
    doc = schema.parse_document(schema.dumps(schema.coaction_to_doc(C, H.dim)))
    assert schema.doc_to_coaction(doc, H).tensor == C.tensor


def test_comodule_algebra_round_trip():
    from hayd.galois import comodule_algebra_from_hopf

    H = sweedler()
    CA = comodule_algebra_from_hopf(H)
    doc = schema.parse_document(schema.dumps(schema.comodule_algebra_to_doc(CA)))
    CA2 = schema.doc_to_comodule_algebra(doc, H)
    assert CA2.P.mult == CA.P.mult
    assert CA2.coaction.tensor == CA.coaction.tensor



def test_algebra_round_trip():
    from hayd.double import build_ah

    A = build_ah(sweedler())
    text = schema.dumps(schema.algebra_to_doc(A))
    A2 = schema.doc_to_algebra(schema.parse_document(text))
    assert (A2.mult, A2.unit, A2.basis_names) == (A.mult, A.unit, A.basis_names)
    assert schema.dumps(schema.algebra_to_doc(A2)) == text


@pytest.mark.parametrize("action", ["missing", [], "left"])
def test_two_sided_part_that_is_not_an_object(action):
    H = sweedler()
    doc = schema.two_sided_to_doc(one_dim_module(H, H.counit, H.unit, "rr"))
    if action == "missing":
        del doc["action"]
    else:
        doc["action"] = action
    with pytest.raises(SchemaError) as err:
        schema.parse_document(json.dumps(doc))
    assert err.value.violations == [("/action", "missing or not an object")]

def test_cli_verify_comodule_algebra_failure_is_exit_one(tmp_path, capsys):
    from hayd.galois import comodule_algebra_from_hopf

    H = sweedler()
    doc = schema.comodule_algebra_to_doc(comodule_algebra_from_hopf(H))
    # retag one coaction entry so the coaction is no longer an algebra map
    doc["coaction"][1]["k"] = (doc["coaction"][1]["k"] + 1) % 4
    path = tmp_path / "ca.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--hopf", "sweedler-2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def _valid_hopf_doc():
    return schema.hopf_to_doc(group_algebra(cyclic(2)))


def _expect_violation(doc, pointer_fragment):
    with pytest.raises(SchemaError) as err:
        schema.parse_document(json.dumps(doc))
    assert any(pointer_fragment in ptr for ptr, _ in err.value.violations), err.value.violations


def test_schema_rejects_index_out_of_range():
    doc = _valid_hopf_doc()
    doc["mult"][0]["i"] = 7
    _expect_violation(doc, "/mult/0/i")


def test_schema_rejects_non_prime_characteristic():
    doc = schema.hopf_to_doc(group_algebra(cyclic(2), prime_field(3)))
    doc["field"]["characteristic"] = 6
    _expect_violation(doc, "/field/characteristic")


def test_schema_rejects_a_characteristic_of_64_bits_or_more_at_once():
    doc = schema.hopf_to_doc(group_algebra(cyclic(2), prime_field(2**64 - 59)))
    schema.parse_document(json.dumps(doc))
    for p in (2**64, 10**29 + 7):
        doc["field"]["characteristic"] = p
        start = time.monotonic()
        with pytest.raises(SchemaError) as err:
            schema.parse_document(json.dumps(doc))
        assert time.monotonic() - start < 1
        assert err.value.violations == [("/field/characteristic", f"{p} is not below 2**64")]


@pytest.mark.parametrize("field, pointer", [
    ({"kind": "rationals", "characteristic": 5}, "/field/characteristic"),
    ({"kind": "rationals", "characteristic": None}, "/field/characteristic"),
    ({"kind": "rationals", "degree": 1}, "/field/degree"),
    ({"kind": "prime-field", "characteristic": 3, "modulus": 3}, "/field/modulus"),
    ({"kind": "rationals", "a/b~c": 1}, "/field/a~1b~0c"),
])
def test_schema_rejects_contradictory_and_unknown_field_keys(tmp_path, capsys, field, pointer):
    doc = schema.hopf_to_doc(group_algebra(cyclic(2), prime_field(3)))
    doc["field"] = field
    with pytest.raises(SchemaError) as err:
        schema.parse_document(json.dumps(doc))
    assert [ptr for ptr, _ in err.value.violations] == [pointer]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--json"]) == 2
    assert f"schema error at {pointer}" in capsys.readouterr().err


def test_schema_rejects_unknown_top_level_keys(tmp_path, capsys):
    # a misspelled key is an error, not a key quietly dropped
    doc = schema.hopf_to_doc(sweedler())
    doc["antipod"] = []
    doc["extra"] = 1
    doc["a/b~c"] = 0
    with pytest.raises(SchemaError) as err:
        schema.parse_document(json.dumps(doc))
    assert [ptr for ptr, _ in err.value.violations] == ["/a~1b~0c", "/antipod", "/extra"]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--json"]) == 2
    assert "schema error at /a~1b~0c" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key", [
    ("algebra", "comult"),
    ("action", "coaction"),
    ("coaction", "basis"),
    ("comodule_algebra", "antipode"),
    ("two_sided", "tensor"),
])
def test_schema_rejects_keys_of_another_kind(kind, key):
    from hayd.galois import comodule_algebra_from_hopf
    from hayd.reps import comult_coaction, regular_action

    H = sweedler()
    docs = {
        "algebra": schema.algebra_to_doc(H),
        "action": schema.action_to_doc(regular_action(H, "left"), H.dim),
        "coaction": schema.coaction_to_doc(comult_coaction(H, "right"), H.dim),
        "comodule_algebra": schema.comodule_algebra_to_doc(comodule_algebra_from_hopf(H)),
        "two_sided": schema.two_sided_to_doc(one_dim_module(H, H.counit, H.unit, "rr")),
    }
    doc = docs[kind]
    schema.parse_document(json.dumps(doc))
    doc[key] = []
    with pytest.raises(SchemaError) as err:
        schema.parse_document(json.dumps(doc))
    assert [ptr for ptr, _ in err.value.violations] == [f"/{key}"]


def test_schema_rejects_unknown_keys_inside_a_two_sided_part():
    H = sweedler()
    doc = schema.two_sided_to_doc(one_dim_module(H, H.counit, H.unit, "rr"))
    doc["coaction"]["sid"] = "left"
    with pytest.raises(SchemaError) as err:
        schema.parse_document(json.dumps(doc))
    assert [ptr for ptr, _ in err.value.violations] == ["/coaction/sid"]


def test_schema_reports_the_violations_of_every_part_in_document_order():
    H = sweedler()
    doc = schema.two_sided_to_doc(one_dim_module(H, H.counit, H.unit, "rr"))
    doc["extra"] = 1
    doc["action"]["tensor"][0]["c"] = 0
    doc["coaction"]["side"] = "up"
    with pytest.raises(SchemaError) as err:
        schema.parse_document(json.dumps(doc))
    assert err.value.violations == [
        ("/extra", "unknown key"),
        ("/action/tensor/0/c", "stored entries must be nonzero"),
        ("/coaction/side", "expected 'left' or 'right', got 'up'"),
    ]


@pytest.mark.parametrize("argv", [
    *(["export-builtin", name] for name in sorted(BUILTINS)),
    *(["build", what, "--hopf", name]
      for what in ("ah", "double", "sayd-prop5") for name in sorted(BUILTINS)),
])
def test_every_document_the_cli_writes_parses(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("HAYD_MAX_DIM", "81")  # A_H and the double of taft-3-f7
    path = tmp_path / "out.json"
    assert main([*argv, "-o", str(path)]) == 0
    schema.parse_document(path.read_text())


def test_cli_verify_names_the_document_kind_that_needs_a_hopf(tmp_path, capsys):
    from hayd.reps import regular_action

    H = sweedler()
    path = tmp_path / "act.json"
    path.write_text(schema.dumps(schema.action_to_doc(regular_action(H, "left"), H.dim)))
    assert main(["verify", str(path)]) == 2
    assert "verifying an action document needs --hopf" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["hopf", "algebra"])
def test_cli_verify_rejects_a_hopf_context_it_never_reads(tmp_path, capsys, kind):
    from hayd.double import build_ah

    H = sweedler()
    path = tmp_path / f"{kind}.json"
    doc = schema.hopf_to_doc(H) if kind == "hopf" else schema.algebra_to_doc(build_ah(H))
    path.write_text(schema.dumps(doc))
    assert main(["verify", str(path), "--hopf", str(tmp_path / "nonexistent.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    article = "an" if kind == "algebra" else "a"
    assert f"input error: verifying {article} {kind} document does not take --hopf" in captured.err
    assert main(["verify", str(path), "--json"]) == 0


def test_schema_rejects_zero_entries_and_duplicates():
    doc = _valid_hopf_doc()
    doc["mult"][0]["c"] = "0"
    _expect_violation(doc, "/mult/0/c")
    doc = _valid_hopf_doc()
    doc["mult"].append(dict(doc["mult"][0]))
    _expect_violation(doc, "/mult")


def test_schema_rejects_bad_scalars():
    doc = _valid_hopf_doc()
    doc["unit"][0]["c"] = "1/0"
    _expect_violation(doc, "/unit/0/c")
    doc = schema.hopf_to_doc(group_algebra(cyclic(2), prime_field(5)))
    doc["unit"][0]["c"] = "2"  # prime-field scalars must be plain integers
    _expect_violation(doc, "/unit/0/c")
    doc = schema.hopf_to_doc(group_algebra(cyclic(2), prime_field(5)))
    doc["unit"][0]["c"] = 7  # out of residue range
    _expect_violation(doc, "/unit/0/c")


def test_schema_rejects_booleans_as_indices_and_dimensions():
    doc = _valid_hopf_doc()
    assert doc["unit"] == [{"i": 0, "c": "1"}]
    doc["unit"][0]["i"] = False  # equal to 0, but not an index
    _expect_violation(doc, "/unit/0/i")
    doc = schema.hopf_to_doc(group_algebra(cyclic(1)))
    doc["dim"] = True  # equal to 1, but not a dimension
    _expect_violation(doc, "/dim")


def test_schema_rejects_decimal_rationals():
    doc = _valid_hopf_doc()
    doc["unit"][0]["c"] = "1.0"  # only integers and 'a/b' strings are rationals
    _expect_violation(doc, "/unit/0/c")


def test_schema_rejects_unknown_kind_and_bad_json():
    _expect_violation({"kind": "nonsense"}, "/kind")
    with pytest.raises(SchemaError) as err:
        schema.parse_document("{not json")
    assert "line 1" in err.value.violations[0][1]


def test_dimension_cap_respects_environment(monkeypatch):
    doc = _valid_hopf_doc()
    monkeypatch.setenv("HAYD_MAX_DIM", "1")
    _expect_violation(doc, "/dim")
    monkeypatch.setenv("HAYD_MAX_DIM", "64")
    schema.parse_document(json.dumps(doc))


@pytest.mark.parametrize("raw", ["abc", "-5", "0", "2.5", " 81", "8_1", "+81", "\u0668\u0661"])
def test_malformed_dimension_cap_is_an_input_error(monkeypatch, tmp_path, capsys, raw):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(_valid_hopf_doc()))
    monkeypatch.setenv("HAYD_MAX_DIM", raw)
    with pytest.raises(InputError, match="HAYD_MAX_DIM"):
        schema.load_document(path)
    assert main(["verify", str(path)]) == 2
    assert f"HAYD_MAX_DIM={raw!r}" in capsys.readouterr().err


# -- CLI ------------------------------------------------------------------------


def _write_builtin(tmp_path, name):
    path = tmp_path / f"{name}.json"
    rc = main(["export-builtin", name, "-o", str(path)])
    assert rc == 0
    return path


def test_cli_verify_builtin_export(tmp_path, capsys):
    path = _write_builtin(tmp_path, "sweedler-2")
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_cli_verify_corrupted_export_exits_one(tmp_path, capsys):
    path = _write_builtin(tmp_path, "group-c2")
    doc = json.loads(path.read_text())
    doc["antipode"][0]["j"] = 1 - doc["antipode"][0]["j"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_verify_missing_file_exits_two(capsys):
    assert main(["verify", "/nonexistent/nope.json"]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_check_hopf_axioms_failure_is_exit_one(tmp_path, capsys):
    path = _write_builtin(tmp_path, "sweedler-2")
    doc = json.loads(path.read_text())
    doc["antipode"] = [{"i": i, "j": i, "c": "1"} for i in range(4)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", "hopf_axioms", "--hopf", str(bad)]) == 1
    # but using the same broken structure as context for another check is
    # an input error
    capsys.readouterr()
    assert main(["check", "ayd", "--hopf", str(bad), "--module", str(bad)]) == 2


@pytest.mark.parametrize("argv, message", [
    (["check", "ayd"], "check ayd needs --module"),
    (["build", "tensor"], "build tensor needs --left, --right and --case"),
])
def test_cli_reports_a_missing_option_before_it_verifies_the_hopf_context(
        tmp_path, capsys, argv, message):
    # sweedler-2 with the identity antipode fails the Hopf axioms; the usage
    # error comes first
    path = _write_builtin(tmp_path, "sweedler-2")
    doc = json.loads(path.read_text())
    doc["antipode"] = [{"i": i, "j": i, "c": "1"} for i in range(4)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([*argv, "--hopf", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_a_rational_literal_is_parsed_to_its_normal_form():
    doc = _q_hopf_doc()
    doc["unit"][0]["c"] = "4/2"
    doc["mult"][0]["c"] = "-3/6"
    parsed = schema.parse_document(json.dumps(doc))
    c = parsed["unit"].entries[(doc["unit"][0]["i"],)]
    assert type(c) is int and c == 2
    idx = tuple(doc["mult"][0][k] for k in "ijk")
    c = parsed["mult"].entries[idx]
    assert type(c) is Fraction and c == Fraction(-1, 2)


def test_cli_schema_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "hopf", "field": {"kind": "prime-field", "characteristic": 4}}')
    assert main(["verify", str(bad)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_cli_an_integer_beyond_the_int_string_limit_is_a_schema_error(tmp_path, capsys):
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "hopf", "dim": ' + "1" * 5000 + "}")
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("schema error at /: JSON parse error")


def test_cli_check_ayd_on_module_file(tmp_path, capsys):
    H = sweedler()
    good = one_dim_module(H, H.counit, H.basis_vector(2), "rr")
    path = tmp_path / "m.json"
    path.write_text(schema.dumps(schema.two_sided_to_doc(good)))
    assert main(["check", "ayd", "--hopf", "sweedler-2", "--module", str(path)]) == 0
    assert main(["check", "yd", "--hopf", "sweedler-2", "--module", str(path)]) == 1
    capsys.readouterr()
    assert main(["check", "stability", "--hopf", "sweedler-2", "--module", str(path)]) == 0
    assert main(
        ["check", "entwined_ayd", "--hopf", "sweedler-2", "--module", str(path)]
    ) == 0
    assert main(
        ["check", "entwined_yd", "--hopf", "sweedler-2", "--module", str(path)]
    ) == 1
    capsys.readouterr()
    # case mismatch is a usage error
    assert main(
        ["check", "ayd", "--hopf", "sweedler-2", "--module", str(path), "--case", "ll"]
    ) == 2


def test_cli_build_ah_and_verify(tmp_path, capsys):
    out = tmp_path / "ah.json"
    assert main(["build", "ah", "--hopf", "group-c2", "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "algebra" and doc["dim"] == 4


def test_cli_build_sayd_prop5(tmp_path, capsys):
    out = tmp_path / "sayd.json"
    assert main(["build", "sayd-prop5", "--hopf", "sweedler-2", "-o", str(out)]) == 0
    doc = schema.parse_document(out.read_text())
    H = sweedler()
    M = schema.doc_to_two_sided(doc, H)
    from hayd.ayd import check_ayd, check_stability

    assert check_ayd(M).passed and check_stability(M).passed


def test_cli_build_sayd_prop5_from_comodule_algebra_file(tmp_path, capsys):
    from hayd.galois import comodule_algebra_from_hopf

    H = sweedler()
    CA = comodule_algebra_from_hopf(H)
    ca_path = tmp_path / "ca.json"
    ca_path.write_text(schema.dumps(schema.comodule_algebra_to_doc(CA)))
    out = tmp_path / "sayd.json"
    rc = main(
        ["build", "sayd-prop5", "--hopf", "sweedler-2", "--module", str(ca_path), "-o", str(out)]
    )
    assert rc == 0
    assert schema.parse_document(out.read_text())["dim"] == 4


def test_cli_check_action_and_comodule_algebra_documents(tmp_path, capsys):
    from hayd.galois import comodule_algebra_from_hopf
    from hayd.reps import regular_action

    H = sweedler()
    a_path = tmp_path / "act.json"
    a_path.write_text(schema.dumps(schema.action_to_doc(regular_action(H, "left"), H.dim)))
    assert main(["check", "action", "--hopf", "sweedler-2", "--module", str(a_path)]) == 0
    ca_path = tmp_path / "ca.json"
    ca_path.write_text(
        schema.dumps(schema.comodule_algebra_to_doc(comodule_algebra_from_hopf(H)))
    )
    assert main(
        ["check", "comodule_algebra", "--hopf", "sweedler-2", "--module", str(ca_path)]
    ) == 0
    capsys.readouterr()


def _comodule_algebra_file(tmp_path, corrupt_unit_product=False):
    from hayd.galois import comodule_algebra_from_hopf

    doc = schema.comodule_algebra_to_doc(comodule_algebra_from_hopf(sweedler()))
    if corrupt_unit_product:
        assert doc["mult"][3] == {"i": 0, "j": 3, "k": 3, "c": "1"}
        doc["mult"][3]["c"] = "2"  # e0 e3 = 2 e3: P is no longer associative
    path = tmp_path / "ca.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_check_comodule_algebra_reports_a_non_associative_algebra(tmp_path, capsys):
    path = _comodule_algebra_file(tmp_path, corrupt_unit_product=True)
    assert main(["check", "comodule_algebra", "--hopf", "sweedler-2", "--module", path]) == 1
    assert "associativity" in capsys.readouterr().out
    assert main(
        ["check", "comodule_algebra", "--hopf", "sweedler-2", "--module", path, "--json"]
    ) == 1
    item = capsys.readouterr().out
    assert main(["verify", path, "--hopf", "sweedler-2", "--json"]) == 1
    assert capsys.readouterr().out == item
    payload = json.loads(item)
    assert payload["check"] == "associativity" and payload["witness"] == [0, 0, 3]


def test_cli_build_sayd_prop5_reports_a_non_associative_module(tmp_path, capsys):
    path = _comodule_algebra_file(tmp_path, corrupt_unit_product=True)
    out = tmp_path / "sayd.json"
    argv = ["build", "sayd-prop5", "--hopf", "sweedler-2", "--module", path, "-o", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"associativity                    {path}: FAIL at (0, 0, 3)" in captured.out
    assert captured.err == ""
    assert main(argv + ["--json"]) == 1
    item = json.loads(capsys.readouterr().out)
    assert (item["check"], item["target"], item["witness"]) == ("associativity", path, [0, 0, 3])
    assert not out.exists()


def test_cli_check_labels_the_report_with_the_input_it_checked(tmp_path, capsys):
    from hayd.reps import regular_action

    assert main(["check", "hopf_axioms", "--hopf", "sweedler-2"]) == 0
    assert " sweedler-2: pass " in capsys.readouterr().out
    assert main(["check", "hopf_axioms", "--hopf", "sweedler-2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == "sweedler-2"
    H = sweedler()
    path = tmp_path / "act.json"
    path.write_text(schema.dumps(schema.action_to_doc(regular_action(H, "left"), H.dim)))
    assert main(["check", "action", "--hopf", "sweedler-2", "--module", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == str(path)


@pytest.mark.parametrize("argv, flag", [
    (["check", "hopf_axioms", "--hopf", "sweedler-2", "--module", "/nonexistent.json"], "--module"),
    (["check", "hopf_axioms", "--hopf", "sweedler-2", "--case", "ll"], "--case"),
    (["check", "action", "--hopf", "sweedler-2", "--module", "/nonexistent.json", "--case", "ll"],
     "--case"),
    (["check", "comodule_algebra", "--hopf", "sweedler-2", "--module", "/nonexistent.json",
      "--case", "rr"], "--case"),
])
def test_cli_check_rejects_an_option_the_check_does_not_use(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: check {argv[1]} does not take {flag}" in captured.err


def test_cli_verify_comodule_algebra_scans_the_algebra_once(tmp_path, monkeypatch, capsys):
    from hayd.algebra import FinAlgebra

    calls = []
    real = FinAlgebra.verify  # a FinHopfAlgebra verifies through its own method
    monkeypatch.setattr(FinAlgebra, "verify", lambda self: calls.append(self) or real(self))
    path = _comodule_algebra_file(tmp_path)
    assert main(["verify", path, "--hopf", "sweedler-2"]) == 0
    assert len(calls) == 1
    assert main(["check", "comodule_algebra", "--hopf", "sweedler-2", "--module", path]) == 0
    assert len(calls) == 2


def test_cli_check_action_rejects_a_hopf_document(tmp_path, capsys):
    path = _write_builtin(tmp_path, "sweedler-2")
    assert main(["check", "action", "--hopf", "sweedler-2", "--module", str(path)]) == 2
    assert "check action expects a document of kind 'action', got 'hopf'" in (
        capsys.readouterr().err
    )


def test_cli_check_coaction_rejects_an_action_document(tmp_path, capsys):
    from hayd.reps import regular_action

    H = sweedler()
    path = tmp_path / "act.json"
    path.write_text(schema.dumps(schema.action_to_doc(regular_action(H, "left"), H.dim)))
    assert main(["check", "coaction", "--hopf", "sweedler-2", "--module", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "check coaction expects a document of kind 'coaction', got 'action'" in captured.err


def _gate_scans(monkeypatch) -> list:
    """The Hopf algebras that ``FinHopfAlgebra.require_verified`` scans from
    now on; the scans that builtin factories and builders make to prove their
    own output are not counted."""
    from hayd import hopf

    scanned, real = [], hopf.verify_hopf_axioms

    def counting(H):
        if sys._getframe(1).f_code.co_name == "require_verified":
            scanned.append(H)
        return real(H)

    monkeypatch.setattr(hopf, "verify_hopf_axioms", counting)
    return scanned


def test_cli_verifies_a_hopf_context_only_when_it_is_not_a_builtin(tmp_path, monkeypatch, capsys):
    from hayd.reps import regular_action

    calls = _gate_scans(monkeypatch)
    H = sweedler()
    act = tmp_path / "act.json"
    act.write_text(schema.dumps(schema.action_to_doc(regular_action(H, "left"), H.dim)))
    assert main(["check", "action", "--hopf", "sweedler-2", "--module", str(act)]) == 0
    assert main(["verify", str(act), "--hopf", "sweedler-2"]) == 0
    assert main(["build", "ah", "--hopf", "group-c2", "-o", str(tmp_path / "ah.json")]) == 0
    assert calls == []  # the builtin factories verified these already
    hopf_path = _write_builtin(tmp_path, "sweedler-2")
    assert main(["check", "action", "--hopf", str(hopf_path), "--module", str(act)]) == 0
    assert len(calls) == 1
    doc = json.loads(hopf_path.read_text())
    doc["counit"][0]["c"] = "2"
    hopf_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", "action", "--hopf", str(hopf_path), "--module", str(act)]) == 2
    assert f"input error: {hopf_path} fails 'counit'" in capsys.readouterr().err


def test_cli_build_tensor(tmp_path, capsys):
    H = sweedler()
    n_path = tmp_path / "n.json"
    m_path = tmp_path / "m.json"
    n_path.write_text(
        schema.dumps(schema.two_sided_to_doc(one_dim_module(H, H.counit, H.unit, "rr")))
    )
    m_path.write_text(
        schema.dumps(
            schema.two_sided_to_doc(one_dim_module(H, H.counit, H.basis_vector(2), "rr"))
        )
    )
    out = tmp_path / "t.json"
    rc = main(
        [
            "build", "tensor", "--hopf", "sweedler-2",
            "--left", str(n_path), "--right", str(m_path),
            "--case", "rr", "-o", str(out),
        ]
    )
    assert rc == 0
    doc = schema.parse_document(out.read_text())
    assert doc["dim"] == 1
    # swapping the factors hands the twisted structure to the plain slot
    rc = main(
        [
            "build", "tensor", "--hopf", "sweedler-2",
            "--left", str(m_path), "--right", str(n_path),
            "--case", "rr", "-o", str(out),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("name", [[1, 2], 5, None, {"n": "H"}])
def test_non_string_document_name_is_a_schema_error(tmp_path, capsys, name):
    path = _write_builtin(tmp_path, "sweedler-2")
    doc = json.loads(path.read_text())
    doc["name"] = name
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        schema.load_document(path)
    assert [pointer for pointer, _ in exc.value.violations] == ["/name"]
    capsys.readouterr()
    assert main(["suite", "--targets", str(path)]) == 2
    assert "schema error at /name: expected a string" in capsys.readouterr().err


@pytest.mark.parametrize("what, given, option", [
    ("ah", ["--module", "missing.json"], "--module"),
    ("ah", ["--left", "missing.json"], "--left"),
    ("ah", ["--case", "rr"], "--case"),
    ("double", ["--right", "missing.json"], "--right"),
    ("double", ["--json"], "--json"),
    ("sayd-prop5", ["--left", "missing.json"], "--left"),
    ("sayd-prop5", ["--case", "ll"], "--case"),
    ("tensor", ["--module", "m.json", "--left", "l.json", "--right", "r.json", "--case", "rr"],
     "--module"),
])
def test_cli_build_rejects_an_option_its_target_never_reads(tmp_path, capsys, what, given, option):
    out = tmp_path / "out.json"
    given = [str(tmp_path / a) if a.endswith(".json") else a for a in given]
    assert main(["build", what, "--hopf", "sweedler-2", *given, "-o", str(out)]) == 2
    assert f"input error: build {what} does not take {option}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_suite_json_is_byte_deterministic(capsys):
    assert main(["suite", "--builtin", "group-c2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["suite", "--builtin", "group-c2", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert all(item["millis"] == 0 for item in payload["results"])
    targets = [item["target"] for item in payload["results"]]
    assert targets == sorted(targets)


def test_cli_suite_on_exported_file_target(tmp_path, capsys):
    path = _write_builtin(tmp_path, "group-c3")
    assert main(["suite", "--targets", str(path), "--checks", "hopf-axioms,dual-reflexive"]) == 0


def test_cli_suite_rejects_corrupt_target_before_running(tmp_path, capsys):
    path = _write_builtin(tmp_path, "group-c2")
    doc = json.loads(path.read_text())
    doc["counit"][0]["c"] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["suite", "--targets", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        assert name in out


def test_run_suite_runs_each_named_check_once(capsys):
    from hayd.suite import resolve_targets, run_suite

    result = run_suite(resolve_targets(["group-c2", "group-c2"]),
                       checks=["hopf-axioms", "hopf-axioms"])
    assert [(it.target, it.check) for it in result.items] == [("group-c2", "hopf-axioms")]
    assert main(["suite", "--builtin", "group-c2", "--checks", "hopf-axioms,hopf-axioms"]) == 0
    assert capsys.readouterr().out.endswith("1/1 checks passed\n")


@pytest.mark.parametrize("check, module, patched", [
    ("entwining-axioms", "ayd", "check_entwining"),
    ("sayd-prop5", "galois", "check_ayd"),
])
def test_suite_item_carries_the_failure_its_builder_asserts(monkeypatch, check, module, patched):
    import importlib

    from hayd import suite
    from hayd.errors import CheckFailedError
    from hayd.report import Report

    H = sweedler()
    lhs, rhs = H.basis_vector(1), H.basis_vector(2)
    bad = Report.fail("planted-axiom", (1, 2), lhs, rhs)
    monkeypatch.setattr(importlib.import_module(f"hayd.{module}"), patched, lambda *a: bad)
    with pytest.raises(CheckFailedError) as exc:
        suite.SUITE_CHECKS[check](H)
    assert exc.value.report is bad
    (item,) = suite.run_suite({"H": H}, checks=[check]).items
    assert not item.report.passed
    assert (item.report.witness, item.report.lhs, item.report.rhs) == ((1, 2), lhs, rhs)


def test_galois_checks_share_one_canonical_map_per_target(monkeypatch):
    from hayd import galois, suite

    calls = []
    real = galois.canonical_map
    for mod in (galois, suite):  # wherever the name is bound
        if hasattr(mod, "canonical_map"):
            monkeypatch.setattr(mod, "canonical_map", lambda CA: calls.append(CA.H) or real(CA))
    H = sweedler()
    result = suite.run_suite({"H": H}, checks=["galois-baseline", "sayd-prop5"])
    assert result.passed and calls == [H]
    assert "galois" not in H._cache  # it refers back to H; the run drops it


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_rr_test_modules_are_distinct_and_keep_their_names(name):
    from hayd.suite import rr_test_modules, screened_group_likes

    H = BUILTINS[name]()
    mods = rr_test_modules(H)
    # the one-dimensional modules differ (the two adjoints agree when S^2 = id)
    tensors = [(M.action.tensor, M.coaction.tensor) for _, M in mods[:-2]]
    assert all(tensors.index(t) == k for k, t in enumerate(tensors))
    sigmas = screened_group_likes(H)
    assert sigmas[0] == H.unit
    assert [n for n, _ in mods] == ["trivial", *(f"one-dim-{k}" for k in range(1, len(sigmas))),
                                     "adjoint", "adjoint-twisted"]


def test_run_suite_verifies_only_unverified_targets(monkeypatch):
    from hayd import suite

    verified = _gate_scans(monkeypatch)
    built = sweedler()  # verified by its factory
    loaded = schema.doc_to_hopf(schema.parse_document(schema.dumps(_valid_hopf_doc())))
    result = suite.run_suite({"built": built, "loaded": loaded}, checks=["antipode-inverse"])
    assert result.passed and verified == [loaded]


def test_cli_verify_json_failure_carries_machine_schema(tmp_path, capsys):
    path = _write_builtin(tmp_path, "group-c2")
    doc = json.loads(path.read_text())
    doc["counit"][0]["c"] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"check", "target", "passed", "witness", "lhs", "rhs", "millis"}
    assert payload["passed"] is False
    assert isinstance(payload["witness"], list)
    assert payload["millis"] == 0  # machine mode stays deterministic


# -- rejection paths: each names its pointer or message and exits 2 ------------------


def _rejected(tmp_path, capsys, text, *argv) -> str:
    """The stderr of ``hayd verify`` on a document with this text; it must
    exit 2 and print nothing to stdout."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["verify", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def _q_hopf_doc():
    doc = _valid_hopf_doc()
    assert doc["field"] == {"kind": "rationals"} and doc["dim"] == 2
    return doc


def _without(doc, key):
    del doc[key]
    return doc


@pytest.mark.parametrize("edit, pointer, message", [
    (lambda d: _without(d, "field"), "/field", "missing or not an object"),
    (lambda d: d.update(field="rationals"), "/field", "missing or not an object"),
    (lambda d: d.update(field={"kind": "reals"}), "/field/kind",
     "expected 'rationals' or 'prime-field', got 'reals'"),
    (lambda d: d.update(field={}), "/field/kind",
     "expected 'rationals' or 'prime-field', got None"),
    (lambda d: d["unit"][0].update(c=1.0), "/unit/0/c",
     "rational scalar must be int or 'a/b' string, got 1.0"),
    (lambda d: d.update(mult={"i": 0, "j": 0, "k": 0, "c": "1"}), "/mult",
     "missing or not a list of entries"),
    (lambda d: _without(d, "counit"), "/counit", "missing or not a list of entries"),
    (lambda d: d["mult"].__setitem__(0, [0, 0, 0, "1"]), "/mult/0", "entry is not an object"),
    (lambda d: d["unit"][0].update(x=0), "/unit/0", "unexpected keys ['x']"),
    (lambda d: d.update(basis=["e0"]), "/basis", "expected a list of 2 strings"),
    (lambda d: d.update(basis="e0 e1"), "/basis", "expected a list of 2 strings"),
    (lambda d: d.update(basis=["e0", 1]), "/basis", "expected a list of 2 strings"),
    (lambda d: d.update(basis=None), "/basis", "expected a list of 2 strings"),
])
def test_schema_rejects_a_malformed_part_at_its_pointer(tmp_path, capsys, edit, pointer, message):
    doc = _q_hopf_doc()
    edit(doc)
    with pytest.raises(SchemaError) as err:
        schema.parse_document(json.dumps(doc))
    assert err.value.violations == [(pointer, message)]
    assert _rejected(tmp_path, capsys, json.dumps(doc)) == f"schema error at {pointer}: {message}\n"


@pytest.mark.parametrize("text", ["[1, 2]", '"hopf"', "3", "null"])
def test_schema_rejects_a_document_that_is_not_an_object(tmp_path, capsys, text):
    with pytest.raises(SchemaError) as err:
        schema.parse_document(text)
    assert err.value.violations == [("", "document must be a JSON object")]
    assert _rejected(tmp_path, capsys, text) == "schema error at /: document must be a JSON object\n"


def test_load_hopf_rejects_an_algebra_document(tmp_path, capsys):
    path = tmp_path / "ah.json"
    assert main(["build", "ah", "--hopf", "group-c2", "-o", str(path)]) == 0
    with pytest.raises(InputError) as err:
        schema.load_hopf(path)
    assert str(err.value) == f"{path}: expected a hopf document, got 'algebra'"
    assert main(["check", "hopf_axioms", "--hopf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}: expected a hopf document, got 'algebra'\n"


def _parsed(doc):
    return schema.parse_document(schema.dumps(doc))


def _structure_docs():
    """A parsed action, coaction, two_sided and comodule_algebra document
    over sweedler-2, and a parsed hopf and algebra document."""
    from hayd.galois import comodule_algebra_from_hopf
    from hayd.reps import comult_coaction, regular_action

    H = sweedler()
    return H, {
        "action": _parsed(schema.action_to_doc(regular_action(H, "left"), H.dim)),
        "coaction": _parsed(schema.coaction_to_doc(comult_coaction(H, "right"), H.dim)),
        "two_sided": _parsed(schema.two_sided_to_doc(one_dim_module(H, H.counit, H.unit, "rr"))),
        "comodule_algebra": _parsed(
            schema.comodule_algebra_to_doc(comodule_algebra_from_hopf(H))),
        "hopf": _parsed(schema.hopf_to_doc(H)),
        "algebra": _parsed(schema.algebra_to_doc(group_algebra(cyclic(2)))),
    }


_OVER_H = {"action": schema.doc_to_action, "coaction": schema.doc_to_coaction,
           "two_sided": schema.doc_to_two_sided,
           "comodule_algebra": schema.doc_to_comodule_algebra}


@pytest.mark.parametrize("kind", sorted(_OVER_H))
def test_doc_to_structure_rejects_a_hopf_algebra_it_does_not_match(kind):
    H, docs = _structure_docs()
    convert = _OVER_H[kind]
    assert convert(docs[kind], H) is not None
    with pytest.raises(InputError) as err:
        convert(docs[kind], group_algebra(cyclic(4), prime_field(5)))
    assert str(err.value) == "document field does not match the Hopf algebra field"
    with pytest.raises(InputError) as err:
        convert(docs[kind], group_algebra(cyclic(2)))
    assert str(err.value) == "document hopf_dim 4 does not match the Hopf algebra (2)"
    other = "hopf" if kind == "action" else "action"
    article = "an" if kind[0] in "aeiou" else "a"
    with pytest.raises(InputError) as err:
        convert(docs[other], H)
    assert str(err.value) == f"expected {article} {kind} document, got kind {other!r}"


def test_doc_to_hopf_and_algebra_reject_another_kind():
    _, docs = _structure_docs()
    with pytest.raises(InputError) as err:
        schema.doc_to_hopf(docs["algebra"])
    assert str(err.value) == "expected a hopf document, got kind 'algebra'"
    with pytest.raises(InputError) as err:
        schema.doc_to_algebra(docs["hopf"])
    assert str(err.value) == "expected an algebra document, got kind 'hopf'"


def test_cli_rejects_a_document_over_another_hopf_algebra(tmp_path, capsys):
    from hayd.reps import regular_action

    for H, message in (
            (group_algebra(cyclic(4), prime_field(5)),
             "document field does not match the Hopf algebra field"),
            (group_algebra(cyclic(2)), "document hopf_dim 2 does not match the Hopf algebra (4)")):
        text = schema.dumps(schema.action_to_doc(regular_action(H, "left"), H.dim))
        assert _rejected(tmp_path, capsys, text, "--hopf", "sweedler-2") == (
            f"input error: {message}\n")


def test_cli_build_rejects_a_document_of_another_kind(tmp_path, capsys):
    hopf = _write_builtin(tmp_path, "sweedler-2")
    argvs = {
        "comodule_algebra": ["build", "sayd-prop5", "--hopf", "sweedler-2", "--module", str(hopf)],
        "two_sided": ["build", "tensor", "--hopf", "sweedler-2", "--left", str(hopf),
                      "--right", str(hopf), "--case", "rr"],
    }
    for kind, argv in argvs.items():
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: expected a {kind} document, got kind 'hopf'\n"


def test_cli_verify_and_check_coaction_report_what_verify_coaction_reports(tmp_path, capsys):
    from hayd.cli import _result_json
    from hayd.reps import comult_coaction, verify_coaction

    H = sweedler()
    good = schema.coaction_to_doc(comult_coaction(H, "right"), H.dim)
    bad = json.loads(json.dumps(good))
    bad["tensor"][0]["c"] = "2"  # doubles one entry: the counit law fails
    want = verify_coaction(H, schema.doc_to_coaction(_parsed(bad), H))
    assert not want.passed
    for doc, code in ((good, 0), (bad, 1)):
        path = tmp_path / "co.json"
        path.write_text(schema.dumps(doc))
        items = []
        for argv in (["verify", str(path), "--hopf", "sweedler-2", "--json"],
                     ["check", "coaction", "--hopf", "sweedler-2", "--module", str(path), "--json"]):
            assert main(argv) == code
            items.append(json.loads(capsys.readouterr().out))
        assert items[0] == items[1]
        if code:
            assert items[0] == _result_json(want.axiom, str(path), want, 0)
        else:
            assert (items[0]["check"], items[0]["passed"]) == ("coaction-right", True)


def test_cli_check_ayd_needs_a_module(capsys):
    assert main(["check", "ayd", "--hopf", "sweedler-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: check ayd needs --module\n"


@pytest.mark.parametrize("missing", ["--left", "--right", "--case"])
def test_cli_build_tensor_needs_left_right_and_case(tmp_path, capsys, missing):
    H = sweedler()
    path = tmp_path / "m.json"
    path.write_text(schema.dumps(schema.two_sided_to_doc(one_dim_module(H, H.counit, H.unit, "rr"))))
    given = {"--left": str(path), "--right": str(path), "--case": "rr"}
    del given[missing]
    argv = ["build", "tensor", "--hopf", "sweedler-2"]
    for flag, value in given.items():
        argv += [flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: build tensor needs --left, --right and --case\n"


def _trivial_fun_c2_doc():
    """k^C2 coacting on itself trivially, p -> p (x) 1, over fun-c2: the
    coinvariants are all of P, so the canonical map is not bijective."""
    from hayd.galois import ComoduleAlgebra
    from hayd.reps import CoactionStructure
    from hayd.tensor import Tensor

    H = BUILTINS["fun-c2"]()
    co = Tensor(H.field, (2, 2, 2), {(a, a, i): c for a in range(2)
                                     for (i,), c in H.unit.entries.items()})
    return H, schema.comodule_algebra_to_doc(
        ComoduleAlgebra(H, H, CoactionStructure("right", 2, co)))


def test_make_sayd_prop5_rejects_a_comodule_algebra_that_is_not_galois(tmp_path, capsys):
    from hayd.errors import NotGaloisError
    from hayd.galois import canonical_map, make_sayd_prop5

    H, doc = _trivial_fun_c2_doc()
    CA = schema.doc_to_comodule_algebra(_parsed(doc), H)
    assert not canonical_map(CA).bijective
    with pytest.raises(NotGaloisError) as err:
        make_sayd_prop5(CA)
    assert str(err.value) == "the canonical map is not bijective"
    path = tmp_path / "ca.json"
    path.write_text(schema.dumps(doc))
    out = tmp_path / "sayd.json"
    assert main(["build", "sayd-prop5", "--hopf", "fun-c2", "--module", str(path),
                 "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: the canonical map is not bijective\n"
    assert not out.exists()
