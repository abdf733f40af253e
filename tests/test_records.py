"""``spec.Record``, the one record base of the package: the constructor,
equality, hash and repr of a frozen dataclass, no assignment, and
``replace``, which checks the new record as the constructor does."""

import copy
import pickle

import pytest

from gpaley.applications import waring_number
from gpaley.graphs import build_graph
from gpaley.spec import FieldParams, GraphSpec, Record
from gpaley.spectra import Spectrum, spectrum


def test_equality_and_hash_are_those_of_the_values():
    # as a frozen dataclass: equal values are equal records, and the hash is
    # the hash of the tuple of values, the default included
    spec = GraphSpec(2, 1, 4, 1)
    assert spec == GraphSpec(2, 1, 4, 1, False) == GraphSpec(p=2, s=1, m=4, ell=1)
    assert hash(spec) == hash(GraphSpec(2, 1, 4, 1, complemented=False)) == hash((2, 1, 4, 1, False))
    assert spec != GraphSpec(2, 1, 4, 1, True)
    assert len({spec, GraphSpec(2, 1, 4, 1), spec.complement()}) == 2
    sp = spectrum(GraphSpec(3, 1, 4, 1))
    assert hash(sp) == hash((sp.pairs,)) and sp == Spectrum(sp.pairs)


def test_equality_holds_only_within_a_class():
    # a GraphSpec extends FieldParams, but is never equal to one, nor to a
    # tuple of the same values
    assert FieldParams(2, 1, 4) != GraphSpec(2, 1, 4, 1)
    assert GraphSpec(2, 1, 4, 1) != FieldParams(2, 1, 4)
    assert FieldParams(2, 1, 4) != (2, 1, 4)
    assert FieldParams(2, 1, 4) == GraphSpec(2, 1, 4, 1).field_params()


def test_the_repr_is_the_dataclass_text():
    assert repr(GraphSpec(2, 1, 4, 1)) == "GraphSpec(p=2, s=1, m=4, ell=1, complemented=False)"
    assert repr(FieldParams(3, 2, 2)) == "FieldParams(p=3, s=2, m=2)"
    assert repr(Spectrum(((1, 1), (-1, 1)))) == "Spectrum(pairs=((1, 1), (-1, 1)))"


def test_assignment_and_deletion_raise():
    spec = GraphSpec(2, 1, 4, 1)
    with pytest.raises(AttributeError):
        spec.ell = 2
    with pytest.raises(AttributeError):
        spec.label = "a new attribute"
    with pytest.raises(AttributeError):
        del spec.p
    assert spec == GraphSpec(2, 1, 4, 1)


@pytest.mark.parametrize("args, kwargs", [
    ((2, 1, 4, 1, False, 0), {}),  # too many
    ((2, 1, 4), {}),  # ell missing
    ((2, 1, 4, 1), {"p": 2}),  # p given twice
    ((2, 1, 4, 1), {"colour": "red"}),  # no such field
])
def test_a_bad_call_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        GraphSpec(*args, **kwargs)


def test_replace_builds_and_checks_a_new_record():
    spec = GraphSpec(2, 1, 4, 1)
    assert spec.replace(complemented=True) == spec.complement() == GraphSpec(2, 1, 4, 1, True)
    assert spec.replace() == spec and spec.replace() is not spec
    with pytest.raises(ValueError, match="need 0 <= ell < m"):
        spec.replace(ell=99)
    with pytest.raises(TypeError):
        spec.replace(colour="red")
    cert = waring_number(GraphSpec(2, 1, 4, 1))
    assert cert.replace(witnesses={0: (0, 0)}).witnesses == {0: (0, 0)}
    assert cert.witnesses is None


def test_replace_carries_nothing_cached():
    # a cached_property lives in the instance __dict__, which replace does
    # not copy: the new graph computes its own
    g = build_graph(GraphSpec(2, 1, 4, 1))
    assert g.eigenvalues[0] == g.k
    copied = g.replace()
    assert "eigenvalues" in vars(g) and "eigenvalues" not in vars(copied)
    assert copied.spec is g.spec and copied.connection is g.connection


def test_copies_and_pickles_are_equal_records():
    spec = GraphSpec(3, 1, 4, 1, True)
    assert copy.deepcopy(spec) == copy.copy(spec) == pickle.loads(pickle.dumps(spec)) == spec


class Point(Record):
    x: int
    y: int = 0


class Labelled(Point):
    label: str = ""


class Vector(Record):
    x: int
    y: int = 0


def test_fields_come_from_the_annotations_base_first():
    # a subclass's fields follow its base's, and a class attribute is a default
    assert repr(Labelled(1, label="a")) == "Labelled(x=1, y=0, label='a')"
    assert Labelled(1, 2, "a") == Labelled(x=1, y=2, label="a") != Point(1, 2)
    with pytest.raises(TypeError):
        Point()
    # the same fields and values in another class are not equal
    assert Point(1, 2) != Vector(1, 2) and hash(Point(1, 2)) == hash(Vector(1, 2))
