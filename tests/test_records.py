"""The result records: immutable, with their derived properties and
methods, and equal (and equally hashed) when their fields are equal."""

import pytest

from cyc3.codes import build_code, min_weight_leq3_search
from cyc3.conditions import family_instances, verify_optimal
from cyc3.cosets import coset, coset_size_law_check
from cyc3.field import Field
from cyc3.gf3poly import factor, parse_poly
from cyc3.identities import run_all

F4 = Field(4)


def one_of_each():
    checks = run_all()
    return {
        "Coset": coset(10, 3, 4),
        "CosetSizeReport": coset_size_law_check(3, 4),
        "CodeSpec": build_code(F4, 14),
        "WeightWitness": min_weight_leq3_search(F4, 4),
        "ConditionReport": verify_optimal(F4, 14),
        "FamilyInstance": family_instances("open-problem", [4])[0],
        "Factorization": factor(parse_poly("x^4-1")),
        "IdentityCheck": checks[0],
    }


@pytest.mark.parametrize("name", sorted(one_of_each()))
def test_fields_cannot_be_assigned(name):
    record = one_of_each()[name]
    assert type(record).__name__ == name
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))


def test_coset_size_and_equality():
    c = coset(10, 3, 4)
    assert (c.leader, c.members, c.size) == (10, (10, 30), 2)
    again = coset(30, 3, 4)
    assert again == c and hash(again) == hash(c)
    assert coset(2, 3, 4) != c
    # a record is a tuple of its fields
    assert c == (3, 4, 10, (10, 30))


def test_weight_witness_weight():
    found = min_weight_leq3_search(F4, 4)
    assert (found.verdict, found.positions, found.weight) == ("found", (0, 10, 30), 3)
    clean = min_weight_leq3_search(F4, 14)
    assert (clean.verdict, clean.positions, clean.weight) == ("no_word_below_4", None, None)


def test_factorization_expand():
    poly = parse_poly("2x^5+x^3+2")
    fac = factor(poly)
    assert fac.unit == 2
    assert fac.expand() == poly


def test_identity_check_passed():
    checks = run_all()
    assert all(c.passed for c in checks)
    failed = checks[0]._replace(status="fail")
    assert not failed.passed and checks[0].passed


def test_condition_report_json_dict():
    assert verify_optimal(F4, 14).to_json_dict(F4) == {
        "m": 4, "e": 14, "h": 2, "c1": True, "cosetOk": True, "gcd": 2,
        "c2Solutions": ["0,0,0,0"], "c3Solutions": ["1,0,0,0"],
        "verdict": "optimal", "parameters": {"n": 80, "k": 72, "d": 4},
        "modulus": "x^4+x^3-1",
    }
    not_optimal = verify_optimal(F4, 10).to_json_dict(F4)
    assert (not_optimal["verdict"], not_optimal["parameters"]) == ("not_optimal", None)


def test_defaults():
    assert family_instances("open-problem", [4])[0].reading is None
    assert run_all()[0].detail == ""
