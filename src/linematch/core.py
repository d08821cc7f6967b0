"""Domain types and the within-group cost kernel for score matching.

Items carry one real-valued score (age, a propensity scale, ...).  Groups of
k items are costed by the sum over all member pairs of either the absolute
difference of scores or the squared difference.  One kernel,
`within_columns`, computes that cost for many sorted groups at once; every
group cost in the package comes from it (`within_distance` is its one-row
view).  A partition computes its group costs once and sums its total once,
on first read, from those stored group costs.  The frozen value classes
derive from `Record`, which makes their annotated fields slots and gives
each class one constructor, a def generated when the class is created.
Everything else is a pure function; integer scores stay in exact integer
arithmetic.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from itertools import combinations, repeat
from operator import add, attrgetter, mul, sub
from typing import Iterable, Sequence


class ValidationError(ValueError):
    """Malformed input: non-finite score, duplicate id, bad group structure."""


class SizeError(ValueError):
    """Item count incompatible with the requested group size."""


class ArityError(ValueError):
    """Operation needs a bipartite instance but got tripartite, or vice versa."""


class EnumerationBudgetError(RuntimeError):
    """Exhaustive enumeration would exceed the configured budget."""


class WeightKind(Enum):
    """Pairwise distance used inside a group: |x-y| or (x-y)**2."""

    ABS = "abs"
    SQ = "sq"


# Default cap on what one exhaustive search may enumerate: partitions,
# subsets, permutations, certificate splits or certificate states.
DEFAULT_BUDGET = 10_000_000


class _RecordType(type):
    """A `Record` class body's annotated names, in order, are its fields,
    `__slots__` and `__match_args__`; a body value is a field's default.
    The body defines no `__init__`; validation goes in `__post_init__`."""

    def __new__(mcs, name, bases, ns):
        if "__init__" in ns:
            raise TypeError(f"{name} defines __init__: a Record's is generated")
        annotations = ns.get("__annotations__", {})
        fields = tuple(annotations)
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = ns["__match_args__"] = fields
        cls = super().__new__(mcs, name, bases, ns)
        if fields:
            get = attrgetter(*fields)
            cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))
            cls.__init__ = _record_init(cls, annotations, defaults, "__post_init__" in ns)
        return cls


def _record_init(cls, annotations: dict, defaults: dict, post: bool):
    """The class's one constructor, compiled once from source as dataclasses
    and namedtuple compile theirs: `def __init__(self, <fields>)`, which
    stores each argument through its slot descriptor and then calls
    `__post_init__` if `post`.  A field without a default after one with a
    default fails to compile, as a def with that signature would."""
    env = {"__name__": cls.__module__}
    params, body = [], []
    for f in annotations:
        env[f"__store_{f}"] = getattr(cls, f).__set__
        if f in defaults:
            env[f"__default_{f}"] = defaults[f]
            params.append(f"{f}=__default_{f}")
        else:
            params.append(f)
        body.append(f"__store_{f}(self, {f})")
    if post:
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**annotations, "return": None}
    return init


class Record(metaclass=_RecordType):
    """Base of the frozen value classes: one generated `__init__` over the
    fields (`_record_init`), equality within a class on the field tuple, its
    hash and `Name(field=value, ...)` repr, pickle and `copy` via the
    constructor; setting or deleting raises `FrozenInstanceError`."""

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values == other._values if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        pairs = map("{}={!r}".format, self.__match_args__, self._values)
        return f"{self.__class__.__qualname__}({', '.join(pairs)})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ScoredItem(Record):
    """One subject: opaque id, real score, and its 0-based input position."""

    id: str
    score: float
    input_rank: int

    def sort_key(self) -> tuple[float, int]:
        return (self.score, self.input_rank)


_id_of = attrgetter("id")
_score_of = attrgetter("score")
_rank_of = attrgetter("input_rank")


class Cohort:
    """Scored subjects as an id column and a score column, in input order:
    a subject's input rank is its position.  Adopts the lists; the caller
    must not mutate them afterwards."""

    __slots__ = ("ids", "scores")

    def __init__(self, ids: list[str], scores: list[float]) -> None:
        if len(ids) != len(scores):
            raise ValidationError(f"{len(ids)} ids for {len(scores)} scores")
        self.ids = ids
        self.scores = scores

    def __len__(self) -> int:
        return len(self.ids)


def items_from_pairs(pairs: Iterable[tuple[str, float]]) -> list[ScoredItem]:
    """Build ScoredItems from (id, score) pairs, ranks taken from input order.

    Rejects duplicate ids and non-finite scores.
    """
    items = []
    seen = set()
    for rank, (item_id, score) in enumerate(pairs):
        if item_id in seen:
            raise ValidationError(f"duplicate item id {item_id!r}")
        if not math.isfinite(score):
            raise ValidationError(f"non-finite score {score!r} for id {item_id!r}")
        seen.add(item_id)
        items.append(ScoredItem(item_id, score, rank))
    return items


def check_finite(items: Sequence[ScoredItem]) -> None:
    """Raise ValidationError naming the first item with a non-finite score."""
    if not all(map(math.isfinite, map(_score_of, items))):
        for it in items:
            if not math.isfinite(it.score):
                raise ValidationError(f"non-finite score {it.score!r} for id {it.id!r}")


def sort_items(items: Sequence[ScoredItem]) -> list[ScoredItem]:
    """Return items in nondecreasing score order, ties broken by input_rank.

    The tie-break makes the whole pipeline deterministic: equal scores keep
    their input order, so repeated runs produce identical groupings.  Two
    stable sorts on plain keys give exactly that order, whatever the order
    of `items`; the first is linear on input already in rank order.
    """
    check_finite(items)
    return sorted(sorted(items, key=_rank_of), key=_score_of)


class KTuple(Record):
    """A group of k >= 2 items, members sorted by (score, input_rank).

    The constructor trusts its input for speed; use :meth:`of` to sort and
    validate arbitrary member lists.
    """

    members: tuple[ScoredItem, ...]

    @classmethod
    def of(cls, members: Iterable[ScoredItem]) -> "KTuple":
        ordered = tuple(sorted(members, key=attrgetter("score", "input_rank")))
        if len(ordered) < 2:
            raise ValidationError("a group needs at least 2 members")
        return cls(ordered)

    @property
    def k(self) -> int:
        return len(self.members)

    def scores(self) -> tuple[float, ...]:
        return tuple(m.score for m in self.members)

    def check_sorted(self) -> None:
        keys = [m.sort_key() for m in self.members]
        if len(keys) < 2:
            raise ValidationError("a group needs at least 2 members")
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise ValidationError("group members are not in sorted order")


def within_columns(cols: Sequence[Sequence[float]], weight: WeightKind) -> list[float]:
    """Within-distance of each row (cols[0][r], ..., cols[k-1][r]) of k
    nondecreasing score columns: the one place a group's cost is computed.

    abs uses the gap form sum(i * (k - i) * (x_i - x_{i-1}), i=1..k-1), which
    equals the O(k^2) pairwise definition on sorted input: the gap between
    neighbours i-1 and i lies between i(k - i) member pairs (the sum of the
    top i weights 2j - k + 1 of the linear form, as `certify_general`
    checks).  Every term is nonnegative, so finite scores cost a finite
    value or +inf, never a negative value or NaN, and a float cost stays
    within about k units in the last place of the exact one at any offset.
    sq adds the squared differences one column pair at a time, pairs in
    lexicographic order.  Each row is one left fold from int 0, one step
    per gap or pair, so -0.0 maps to 0.0 and integers stay exact.  Any
    other weight raises ValidationError."""
    k = len(cols)
    totals = [0] * len(cols[0])
    if weight is WeightKind.ABS:
        for i in range(1, k):
            gaps = map(sub, cols[i], cols[i - 1])
            w = i * (k - i)
            totals = list(map(add, totals, gaps if w == 1 else map(mul, repeat(w), gaps)))
    elif weight is WeightKind.SQ:
        for i, j in combinations(range(k), 2):
            d = list(map(sub, cols[j], cols[i]))
            totals = list(map(add, totals, map(mul, d, d)))
    else:
        raise ValidationError(f"unknown weight {weight!r}")
    return totals


def within_distance(group: KTuple, weight: WeightKind) -> float:
    """Within-distance of one sorted group: a one-row `within_columns`."""
    return within_columns([(x,) for x in group.scores()], weight)[0]


class KPartition:
    """A cover of k*n items by n disjoint k-groups plus the total cost.

    Stored as id, score and input-rank columns, group after group, each
    group in sorted order.  A partition built from items keeps its item
    list and derives the columns from it once, on first read; one built
    from columns builds `ScoredItem` and `KTuple` views only on demand
    (`items()`, `tuples`).  `group_within` holds each group's cost,
    computed once on first use.  `total_within` is the total given to the
    constructor or, when that is None, summed once, on first read, from the
    stored group costs.
    """

    __slots__ = ("k", "weight", "_total", "_tuples", "_flat", "_columns", "_within")

    def __init__(
        self,
        k: int,
        tuples: Sequence[KTuple],
        total_within: float | None,
        weight: WeightKind,
    ):
        flat = []
        for t in tuples:
            if t.k != k:
                raise ValidationError(f"group of size {t.k} in a {k}-partition")
            flat.extend(t.members)
        self.k = k
        self.weight = weight
        self._total = total_within
        self._flat = flat
        self._columns = None
        self._tuples = None
        self._within = None

    @classmethod
    def from_sorted_items(
        cls,
        k: int,
        flat_sorted: list[ScoredItem],
        total_within: float | None,
        weight: WeightKind,
    ) -> "KPartition":
        """Chunked view over an already-sorted item list, groups built on
        demand.  Adopts the list; the caller must not mutate it afterwards.
        A None total is summed from the group costs on first read."""
        part = cls(k, (), total_within, weight)
        part._flat = flat_sorted
        return part

    @classmethod
    def from_columns(cls, k: int, ids: list[str], scores: list[float],
                     ranks: list[int], total_within: float | None,
                     weight: WeightKind) -> "KPartition":
        """Chunked view over id, score and input-rank columns already in
        (score, input_rank) order.  Adopts the lists, as `from_sorted_items`
        adopts its list."""
        part = cls(k, (), total_within, weight)
        part._flat = None
        part._columns = (ids, scores, ranks)
        return part

    def columns(self) -> tuple[list[str], list[float], list[int]]:
        """The id, score and input-rank columns, group after group, each
        group in sorted order.  The caller must not mutate them."""
        if self._columns is None:
            flat = self._flat
            self._columns = (list(map(_id_of, flat)), list(map(_score_of, flat)),
                             list(map(_rank_of, flat)))
        return self._columns

    @property
    def tuples(self) -> list[KTuple]:
        if self._tuples is None:
            flat, k = self.items(), self.k
            self._tuples = [
                KTuple(tuple(flat[i : i + k])) for i in range(0, len(flat), k)
            ]
        return self._tuples

    @property
    def n(self) -> int:
        flat = self._flat
        return len(self._columns[0] if flat is None else flat) // self.k

    def items(self) -> list[ScoredItem]:
        """All members, group after group, each group in sorted order."""
        if self._flat is None:
            return list(map(ScoredItem, *self._columns))
        return list(self._flat)

    @property
    def total_within(self) -> float:
        """The summed within-distance: as given, or the group costs added
        left to right from int 0, once."""
        if self._total is None:
            self._total = reduce(add, self.group_within, 0)
        return self._total

    @property
    def group_within(self) -> tuple[float, ...]:
        """Within-distance of each group, in group order; equal to
        `within_distance(self.tuples[i], self.weight)`, computed once."""
        if self._within is None:
            k = self.k
            scores = self.columns()[1]
            self._within = tuple(within_columns(
                [scores[i::k] for i in range(k)], self.weight))
        return self._within

    def check(self, items: Sequence[ScoredItem] | None = None) -> None:
        """Validate structure: sorted groups, exact cover, consistent total."""
        for t in self.tuples:
            t.check_sorted()
        members = self.items()
        if items is not None:
            if sorted(m.input_rank for m in members) != sorted(
                it.input_rank for it in items
            ):
                raise ValidationError("partition does not cover the input exactly")
        elif len({m.input_rank for m in members}) != len(members):
            raise ValidationError("an item appears in more than one group")
        total = reduce(add, (within_distance(t, self.weight) for t in self.tuples), 0)
        if isinstance(total, int) and isinstance(self.total_within, int):
            ok = total == self.total_within
        else:
            ok = math.isclose(total, self.total_within, rel_tol=1e-9, abs_tol=1e-9)
        if not ok:
            raise ValidationError(
                f"stored total {self.total_within!r} != recomputed {total!r}"
            )

    def __reduce__(self) -> tuple:
        # through the columns: slots without __getstate__ do not pickle at
        # protocols 0 and 1
        return KPartition.from_columns, (
            self.k, *self.columns(), self._total, self.weight)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KPartition):
            return NotImplemented
        return (
            self.k == other.k
            and self.weight == other.weight
            and self.columns() == other.columns()
        )

    def __repr__(self) -> str:
        return (
            f"KPartition(k={self.k}, n={self.n}, weight={self.weight.value},"
            f" total_within={self.total_within})"
        )


def variance_identity_check(values: Sequence[float]) -> tuple[float, float]:
    """Evaluate both sides of the pairwise-squares / variance identity.

    Returns (lhs, rhs) where lhs is the full double sum over ordered pairs of
    (x_j - x_i)**2 and rhs is 2*N times the sum of squared deviations from the
    mean, each computed independently.  The two agree exactly on integer
    input (rhs goes through rational arithmetic) and to ~1e-9 relative error
    on floats.
    """
    n = len(values)
    if n <= 1:
        raise ValidationError("need at least 2 values")
    lhs = 0
    for i in range(n):
        xi = values[i]
        for j in range(n):
            d = values[j] - xi
            lhs += d * d
    if all(isinstance(v, int) for v in values):
        from fractions import Fraction

        mean = Fraction(sum(values), n)
        rhs_frac = 2 * n * sum((Fraction(v) - mean) ** 2 for v in values)
        rhs = int(rhs_frac) if rhs_frac.denominator == 1 else rhs_frac
    else:
        mean = math.fsum(values) / n
        rhs = 2 * n * math.fsum((v - mean) ** 2 for v in values)
    return lhs, rhs


def check_certified_k(k: int) -> None:
    """Raise ValidationError for k < 2; every k >= 2 is proven optimal."""
    if k < 2:
        raise ValidationError(f"group size must be at least 2, got {k}")
