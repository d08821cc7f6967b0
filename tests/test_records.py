"""Every `Record` class against its `dataclasses.make_dataclass` twin: the
frozen dataclass with the same fields that it replaced.

Each class is checked for equal eq, hash, repr, constructor signature and
constructor TypeErrors, pickle and `copy` round trips, FrozenInstanceError on
assignment and deletion, keyword construction and defaults, and slots
without `__dict__`.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from linematch.certify import (
    CertificateEntry,
    ExchangeCertificate,
    FactorProof,
    GeneralProof,
    LinearForm,
    QuadraticForm,
    SuffixSumProof,
)
from linematch.core import (
    ArityError,
    KTuple,
    Record,
    ScoredItem,
    ValidationError,
    WeightKind,
    items_from_pairs,
)
from linematch.heuristics import EuclideanPoint, HierarchicalTriples
from linematch.matching import BalancedPartition, match_line
from linematch.multipartite import LmWitness, Matching, MultipartiteInstance

A, B, C = items_from_pairs([("a", 1), ("b", 2.5), ("c", 2.5)])
P, Q = EuclideanPoint((0.0, 1.0), "p0"), EuclideanPoint((2.0, -1.5), "p1")
PART = match_line([A, B, C, ScoredItem("d", 4, 3)], 2, WeightKind.SQ)

# two argument tuples per class, unequal in one field at least
SAMPLES = {
    ScoredItem: (("a", 1.5, 0), ("a", 1.5, 1)),
    KTuple: (((A, B),), ((A, C),)),
    LinearForm: (((1, -1, 0),), ((1, -1),)),
    QuadraticForm: ((((0, 1), (1, 0)),), (((0, -1), (-1, 0)),)),
    SuffixSumProof: (((0, 1, 1),), ((0, 1, 2),)),
    FactorProof: ((LinearForm((1, 0)), LinearForm((0, 1)), 2),
                  (LinearForm((1, 0)), LinearForm((0, 1)), 3)),
    CertificateEntry: (((1, 2), (3, 4), LinearForm((1, -1, 1, -1)),
                        SuffixSumProof((0, 1, 0, 1)), True, ""),
                       ((1, 3), (2, 4), QuadraticForm(((0,),)), None, False, "no")),
    ExchangeCertificate: ((2, WeightKind.ABS, 3, True, (), ()),
                          (2, WeightKind.SQ, 3, True, (), ())),
    GeneralProof: (((("claim", True),), True), ((("claim", False),), False)),
    EuclideanPoint: (((0.0, 1.0), "p0"), ((0.0, 1.0), "p1")),
    HierarchicalTriples: ((((P, Q, P),), 1.5, (True,)), (((P, Q, P),), 1.5, (False,))),
    BalancedPartition: ((PART, ((0, 1), (1, 0)), (2.0, 3.5)),
                        (PART, ((1, 0), (0, 1)), (2.5, 3.0))),
    MultipartiteInstance: ((((A, B), (C, A)), WeightKind.ABS),
                           (((A, B), (C, A)), WeightKind.SQ)),
    Matching: ((((0, 0), (1, 1)), 2), (((0, 1), (1, 0)), 2)),
    LmWitness: (((1, 2), (2, 1), 3.0, 1.0, (1, 0)), ((1, 2), (2, 1), 3.0, 1.0, (0, 1))),
}
DEFAULTS = {FactorProof: {"scale": 2}, CertificateEntry: {"reason": ""}}
CLASSES = list(SAMPLES)


def twin_of(cls):
    """The frozen dataclass with the record's fields, annotations and
    defaults."""
    defaults, types = DEFAULTS.get(cls, {}), cls.__annotations__
    fields = [(name, types[name], dataclasses.field(default=defaults[name]))
              if name in defaults else (name, types[name])
              for name in cls.__match_args__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "returns", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the outcome is the subject
        return type(exc).__name__, str(exc)


def test_every_record_class_is_sampled():
    assert {cls.__name__ for cls in CLASSES} == {
        cls.__name__ for cls in Record.__subclasses__()}
    assert len(CLASSES) == 15


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_eq_hash_repr_as_the_dataclass(self, cls):
        twin = twin_of(cls)
        first, second = SAMPLES[cls]
        assert cls.__match_args__ == twin.__match_args__
        for a in (first, second):
            assert repr(cls(*a)) == repr(twin(*a))
            assert outcome(hash, cls(*a)) == outcome(hash, twin(*a))
            for b in (first, second):
                assert (cls(*a) == cls(*b)) == (twin(*a) == twin(*b))
                assert (cls(*a) != cls(*b)) == (twin(*a) != twin(*b))
        assert cls(*first) != twin(*first)
        assert cls(*first) != first

    def test_signature_as_the_dataclass(self, cls):
        assert inspect.signature(cls) == inspect.signature(twin_of(cls))

    def test_constructor_type_errors_as_the_dataclass(self, cls):
        twin = twin_of(cls)
        args = SAMPLES[cls][0]
        first = cls.__match_args__[0]
        required = len(args) - len(DEFAULTS.get(cls, {}))
        for call_args, call_kwargs in [
            ((), {}),
            (args[:required - 1], {}),
            (args[1:required], {}),
            ((*args, None), {}),
            (args, {"no_such_field": 1}),
            (args, {first: args[0]}),
        ]:
            got = outcome(cls, *call_args, **call_kwargs)
            assert got[0] == "TypeError"
            assert got == outcome(twin, *call_args, **call_kwargs)

    def test_keywords_and_defaults(self, cls):
        args = SAMPLES[cls][0]
        record = cls(*args)
        assert cls(**dict(zip(cls.__match_args__, args))) == record
        assert cls(*args[:1], **dict(zip(cls.__match_args__[1:], args[1:]))) == record
        defaults = DEFAULTS.get(cls, {})
        if defaults:
            required = args[:len(args) - len(defaults)]
            assert cls(*required) == cls(*required, *defaults.values())
            assert [getattr(cls(*required), f) for f in defaults] == list(
                defaults.values())

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, protocol):
        args = SAMPLES[cls][0]
        record = cls(*args)
        back = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert type(back) is cls and back == record and repr(back) == repr(record)

    def test_copy_and_deepcopy(self, cls):
        record = cls(*SAMPLES[cls][0])
        for back in (copy.copy(record), copy.deepcopy(record)):
            assert type(back) is cls and back == record and repr(back) == repr(record)

    def test_frozen(self, cls):
        record = cls(*SAMPLES[cls][0])
        for name in (*cls.__match_args__, "no_such_field"):
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert record == cls(*SAMPLES[cls][0])

    def test_slots_only(self, cls):
        record = cls(*SAMPLES[cls][0])
        assert not hasattr(record, "__dict__")
        assert cls.__slots__ == cls.__match_args__


@pytest.mark.parametrize("keywords", [False, True])
def test_validation_runs_after_the_fields_are_set(keywords):
    def build(cls, *args):
        if keywords:
            return cls(**dict(zip(cls.__match_args__, args)))
        return cls(*args)

    with pytest.raises(ValidationError, match="point 'p' has non-finite"):
        build(EuclideanPoint, (0.0, math.nan), "p")
    with pytest.raises(ValidationError, match="point 'q' has non-finite"):
        build(EuclideanPoint, (), "q")
    with pytest.raises(ArityError, match="need 2 or 3 parts, got 1"):
        build(MultipartiteInstance, ((A,),), WeightKind.ABS)
    with pytest.raises(ValidationError, match=r"unequal sizes \[1, 2\]"):
        build(MultipartiteInstance, ((A,), (B, C)), WeightKind.ABS)


def test_a_record_body_defines_no_init():
    with pytest.raises(TypeError, match="WithInit defines __init__"):
        class WithInit(Record):
            a: int

            def __init__(self, a):
                pass
