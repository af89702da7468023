"""The small value classes: construction, defaults, equality, immutability
and validation.  Each of these holds for plain classes and dataclasses
alike, so the tests pin behaviour rather than implementation."""

import copy
import pickle

import pytest

from poset_forge import ColouredPoset, QuasiOrder, canonical, make_poset
from poset_forge.classify import ClassReport, ClassSpec, PrefixReport
from poset_forge.composition import CompositionSequence
from poset_forge.core import EmbeddingMap
from poset_forge.errors import Malformed, NotAnInterval
from poset_forge.interval import Interval, IntervalChain
from poset_forge.textio import PosetRecord, QuasiRecord
from poset_forge.wqo import Family

CH3 = canonical("chain", 3)  # a < b < c
PAIRS = (("a", "x"), ("b", "y"))

# per immutable class: a builder (each call gives a new, equal instance)
# and one of its fields; the builders named "from ..." pass an iterator, a
# list or a set, which the record must not keep
FROZEN = {
    "EmbeddingMap": (lambda: EmbeddingMap(PAIRS), "kind"),
    "EmbeddingMap from an iterator": (lambda: EmbeddingMap(zip("ab", "xy")), "mapping"),
    "EmbeddingMap from a list": (lambda: EmbeddingMap(list(PAIRS)), "mapping"),
    "Interval": (lambda: Interval(CH3, frozenset("ab")), "members"),
    "Interval from a set": (lambda: Interval(CH3, {"a", "b"}), "members"),
    "IntervalChain": (
        lambda: IntervalChain(
            CH3, (frozenset("abc"), frozenset("ab"), frozenset("a"))
        ),
        "members",
    ),
    "IntervalChain from a list of sets": (
        lambda: IntervalChain(CH3, [set("abc"), set("ab"), {"a"}]),
        "members",
    ),
    "ClassSpec": (lambda: ClassSpec(max_size=3), "max_size"),
    "ClassSpec allowing a list": (lambda: ClassSpec(allowed=[CH3]), "allowed"),
    "CompositionSequence": (lambda: CompositionSequence(((CH3, "c"),)), "entries"),
    "CompositionSequence from a list": (
        lambda: CompositionSequence([(CH3, "c")]),
        "entries",
    ),
    "Family": (
        lambda: Family((ColouredPoset.uniform(canonical("chain", 2)),), ("C2",)),
        "names",
    ),
    "Family from lists": (
        lambda: Family([ColouredPoset.uniform(canonical("chain", 2))], ["C2"]),
        "names",
    ),
}
# a Family holds ColouredPosets, which are unhashable
HASHABLE = sorted(name for name in FROZEN if not name.startswith("Family"))


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_refuses_assignment(name):
    build, field = FROZEN[name]
    obj = build()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_equal_by_value(name):
    build, _ = FROZEN[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    # a "from ..." builder gives the value of its plain one
    assert a == FROZEN[name.split(" from ")[0]][0]()


@pytest.mark.parametrize("name", HASHABLE)
def test_frozen_hash_by_value(name):
    build, _ = FROZEN[name]
    a, b = build(), build()
    assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_copy_and_pickle(name):
    obj = FROZEN[name][0]()
    assert copy.copy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


SLOTTED = {
    "Poset": lambda: canonical("N", 0),
    "ColouredPoset": lambda: ColouredPoset(
        CH3, {"a": "0", "b": "1", "c": "0"}, QuasiOrder(["0", "1"], [("0", "1")])
    ),
}


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_slotted_copy_and_pickle(name):
    obj = SLOTTED[name]()
    assert not hasattr(obj, "__dict__")
    for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert twin is not obj and twin == obj
        assert twin.elements == obj.elements


def test_unequal_values():
    assert EmbeddingMap(PAIRS) != EmbeddingMap(PAIRS, "coloured")
    assert EmbeddingMap(PAIRS) != EmbeddingMap(PAIRS[:1])
    assert Interval(CH3, frozenset("ab")) != Interval(CH3, frozenset("bc"))
    assert Interval(CH3, frozenset("ab")) != Interval(canonical("chain", 4), frozenset("ab"))
    assert ClassSpec(max_size=3) != ClassSpec(max_size=4)
    assert ClassSpec(max_size=3) != ClassSpec(allowed=(CH3,))
    assert EmbeddingMap(PAIRS) != PAIRS


def test_embedding_maps_key_a_dict():
    seen = {EmbeddingMap(PAIRS): 1}
    seen[EmbeddingMap(tuple(PAIRS))] += 1
    seen[EmbeddingMap(PAIRS, "coloured")] = 1
    assert seen == {EmbeddingMap(PAIRS): 2, EmbeddingMap(PAIRS, "coloured"): 1}


def test_repr_names_the_fields():
    assert repr(EmbeddingMap(PAIRS)) == (
        "EmbeddingMap(mapping=(('a', 'x'), ('b', 'y')), kind='poset')"
    )
    assert repr(ClassSpec(max_size=2)) == (
        "ClassSpec(allowed=None, max_size=2)"
    )


class TestDefaultsAndKeywords:
    def test_embedding_map(self):
        assert EmbeddingMap(PAIRS).kind == "poset"
        m = EmbeddingMap(mapping=PAIRS, kind="coloured")
        assert (m.mapping, m.kind) == (PAIRS, "coloured")
        assert m.as_dict() == {"a": "x", "b": "y"} and m["b"] == "y" and len(m) == 2
        m = EmbeddingMap(zip("ab", "xy"))
        assert m.as_dict() == {"a": "x", "b": "y"} and m["b"] == "y" and len(m) == 2

    def test_class_spec(self):
        spec = ClassSpec(max_size=3)
        assert (spec.allowed, spec.max_size) == (None, 3)
        spec = ClassSpec(allowed=(CH3,))
        assert (spec.allowed, spec.max_size) == ((CH3,), None)
        assert ClassSpec(allowed=[CH3]).allowed == (CH3,)
        assert ClassSpec(None, 5).max_size == 5

    def test_class_report(self):
        report = ClassReport(CH3)
        assert report.carrier is CH3 and report.violations == [] and report.passed
        given = [frozenset("ab")]
        report = ClassReport(carrier=CH3, violations=given)
        assert report.violations is given and not report.passed

    def test_class_reports_never_share_violations(self):
        a, b = ClassReport(CH3), ClassReport(CH3)
        assert a.violations is not b.violations
        a.violations.append(frozenset("a"))
        assert b.violations == [] and ClassReport(CH3).violations == []

    def test_prefix_report(self):
        report = PrefixReport(2)
        assert (report.depth, report.tree, report.reversed_tree, report.perp) == (
            2, None, None, None
        )
        assert report.found() == []
        w = EmbeddingMap(PAIRS)
        report = PrefixReport(depth=1, perp=w)
        assert report.perp is w and report.found() == ["perp_prefix"]

    def test_reports_and_records_are_mutable(self):
        report = PrefixReport(2)
        report.tree = EmbeddingMap(PAIRS)
        assert report.found() == ["binary_tree_prefix"]
        rec = PosetRecord(name="p", poset=CH3, colouring=None)
        rec.name = "q"
        assert (rec.name, rec.poset, rec.colouring) == ("q", CH3, None)

    def test_records(self):
        palette = QuasiOrder(["0", "1"], [("0", "1")])
        rec = QuasiRecord(name="q", quasi=palette)
        assert (rec.name, rec.quasi) == ("q", palette)
        rec = PosetRecord("p", CH3, {"a": "0"})
        assert rec.colouring == {"a": "0"}

    def test_interval_and_chain(self):
        iv = Interval(carrier=CH3, members=frozenset("bc"))
        assert len(iv) == 2 and "b" in iv and "a" not in iv
        chain = IntervalChain(carrier=CH3, members=(frozenset("abc"), frozenset("c")))
        assert len(chain) == 2 and list(chain) == [frozenset("abc"), frozenset("c")]
        assert chain.intervals == (
            Interval(CH3, frozenset("abc")),
            Interval(CH3, frozenset("c")),
        )

    def test_sequence_and_family(self):
        seq = CompositionSequence(entries=((CH3, "c"),))
        assert len(seq) == 1 and seq.head(0) == seq
        member = ColouredPoset.uniform(CH3)
        fam = Family(members=(member,), names=("C3",))
        assert len(fam) == 1 and fam.names == ("C3",)


class TestValidation:
    def test_embedding_map_is_injective(self):
        with pytest.raises(ValueError, match="injective"):
            EmbeddingMap((("a", "x"), ("b", "x")))
        with pytest.raises(ValueError, match="injective"):
            EmbeddingMap((("a", "x"), ("a", "y")), kind="coloured")

    def test_interval(self):
        with pytest.raises(NotAnInterval):
            Interval(CH3, frozenset("ac"))

    def test_interval_chain(self):
        with pytest.raises(NotAnInterval):
            IntervalChain(CH3, (frozenset("ab"), frozenset("ab")))
        with pytest.raises(NotAnInterval):
            IntervalChain(CH3, (frozenset("abc"), frozenset("ac")))

    def test_class_spec(self):
        for kwargs in (
            {},
            {"allowed": (CH3,), "max_size": 2},
            {"max_size": 0},
        ):
            with pytest.raises(ValueError):
                ClassSpec(**kwargs)
        with pytest.raises(TypeError):
            ClassSpec(max_size=2, prefix_depth=3)

    def test_composition_sequence(self):
        for entries in (
            (),
            ((make_poset([], []), "a"),),
            ((CH3, "z"),),
        ):
            with pytest.raises(Malformed):
                CompositionSequence(entries)

    def test_family(self):
        plain = ColouredPoset.uniform(CH3)
        other = ColouredPoset(
            canonical("chain", 1), {"a": "1"}, QuasiOrder(["0", "1"], [])
        )
        for members, names in (
            ((), ()),
            ((plain, other), ("A", "B")),
            ((plain,), ("A", "B")),
        ):
            with pytest.raises(ValueError):
                Family(members, names)
