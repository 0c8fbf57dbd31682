"""lang.record, the one helper that makes the package's immutable classes:
what a frozen dataclass gave them, without generating code."""

import dataclasses

import pytest

from viewshift import evaluator, lang, parse, reference, resolver, script
from viewshift.lang import App, IntLit, ModuleDef, PCon, PVar, PWild, Var, replace

RECORDS = [
    cls for mod in (lang, evaluator, resolver, script, parse, reference)
    for cls in vars(mod).values()
    if isinstance(cls, type) and cls.__module__ == mod.__name__ and "__match_args__" in cls.__dict__
]
VALUES = (Var("x"), None, "s", (1, PWild()), True)


def test_every_immutable_class_of_the_package_is_a_record():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == 44
    assert {"Var", "PWild", "ModuleDef", "Project", "VCon", "_Fun", "DefRef", "DeclReads", "Tok", "Script",
            "_Env"} <= names


def test_equal_and_hashed_by_class_and_fields():
    assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
    assert Var("x") != Var("x", "M") and Var("x") != Var("y")
    assert Var("x") != PVar("x") and PVar("x") != Var("x")
    assert PWild() == PWild() and PWild() != PVar("_")
    assert len({Var("x"), Var("x"), PVar("x")}) == 2


def test_assignment_and_deletion_raise():
    v = Var("x")
    with pytest.raises(AttributeError):
        v.name = "y"
    with pytest.raises(AttributeError):
        del v.qualifier
    with pytest.raises(AttributeError):
        v.other = 1
    assert v == Var("x")


def test_memos_live_in_the_instance_dict_and_leave_equality_alone():
    mod = ModuleDef("M", None, (), ())
    mod.__dict__["_memo"] = {}
    assert mod == ModuleDef("M", None, (), ()) and hash(mod) == hash(ModuleDef("M", None, (), ()))


def test_keyword_construction_and_defaults():
    assert Var(name="x", qualifier="M") == Var("x", "M") == Var("x", qualifier="M")
    assert Var("x").qualifier is None and PCon("K").args == () and PCon("K").tupled is False
    with pytest.raises(TypeError):
        Var(nam="x")
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        Var("x", "M", "extra")


def test_positional_match():
    match App(Var("f", "M"), IntLit(1)):
        case App(Var(name, qualifier), IntLit(value)):
            assert (name, qualifier, value) == ("f", "M", 1)
        case _:
            pytest.fail("no match")
    assert PCon.__match_args__ == ("name", "args", "tupled") and PWild.__match_args__ == ()


def test_replace_changes_only_the_named_fields():
    v = Var("x", "M")
    assert replace(v, qualifier=None) == Var("x") and v == Var("x", "M")
    assert replace(v) == v
    with pytest.raises(TypeError):
        replace(v, nam="y")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_and_hash_are_the_frozen_dataclass_ones(cls):
    fields = cls.__match_args__
    twin = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)
    values = VALUES[:len(fields)]
    assert repr(cls(*values)) == repr(twin(*values))
    assert hash(cls(*values)) == hash(twin(*values))
