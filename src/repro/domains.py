"""Field domains: every config field's valid values, declared once.

Each config dataclass pairs with one table that maps *every* field name
to a :class:`Domain`, plus a short tuple of cross-field :class:`Rule`\\ s.
:func:`checked` binds both to the class and checks, at import, that the
table's keys are exactly the dataclass's fields, so a field added
without a domain fails the first import.  The class sets
``__post_init__ = check_fields``, which loops over the table and then
the rules, and raises :class:`ValueError` naming the field.

Checks only validate; they never coerce.  ``"false"`` is not a bool,
``2.0`` is not an int, ``True`` is not a number and a list is not a
tuple.  A check that only an owning constructor can make (a protocol
config's keyword arguments, a loss model's parameters) delegates to
that constructor instead of restating it.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Domain",
    "Real",
    "Integer",
    "OneOf",
    "Maybe",
    "FixedTuple",
    "TupleOf",
    "InstanceOf",
    "Builds",
    "Number",
    "Rule",
    "positive",
    "non_negative",
    "checked",
    "check_fields",
]


class Domain:
    """A set of valid values for one field.

    ``text`` completes "<field> must be ..."; :meth:`error` returns that
    sentence's tail for a value outside the domain and ``None`` inside.
    """

    text: str = ""

    def accepts(self, value: object) -> bool:
        return self.error(value) is None

    def error(self, value: object) -> Optional[str]:
        if self.accepts(value):
            return None
        return f"must be {self.text}, got {reprlib.repr(value)}"


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Real(Domain):
    """A finite int or float in ``[low, high]``; either end may be open."""

    text: str
    low: float = -math.inf
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False

    def accepts(self, value: Any) -> bool:
        if not (_is_number(value) and math.isfinite(value)):
            return False
        above = self.low < value if self.low_open else self.low <= value
        below = value < self.high if self.high_open else value <= self.high
        return above and below


@dataclass(frozen=True)
class Number(Domain):
    """Any int or float (not a bool), NaN and infinities included: the
    shape of a field whose range a cross-field rule checks."""

    text = "a number"

    def accepts(self, value: object) -> bool:
        return _is_number(value)


@dataclass(frozen=True)
class Integer(Domain):
    """An int (not a bool, not a float) of at least ``low``."""

    low: int

    @property
    def text(self) -> str:  # type: ignore[override]
        return f">= {self.low} (an int)"

    def accepts(self, value: object) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= self.low


@dataclass(frozen=True)
class OneOf(Domain):
    """One of a fixed tuple of choices."""

    choices: Tuple[object, ...]

    @property
    def text(self) -> str:  # type: ignore[override]
        return f"one of {self.choices!r}"

    def accepts(self, value: object) -> bool:
        return value in self.choices


@dataclass(frozen=True)
class Maybe(Domain):
    """``None``, or a value of ``inner``."""

    inner: Domain

    def error(self, value: object) -> Optional[str]:
        return None if value is None else self.inner.error(value)


@dataclass(frozen=True)
class FixedTuple(Domain):
    """A tuple with one value of ``items[i]`` at each position ``i``."""

    items: Tuple[Domain, ...]

    @property
    def text(self) -> str:  # type: ignore[override]
        return f"a {len(self.items)}-tuple"

    def error(self, value: object) -> Optional[str]:
        if not (isinstance(value, tuple) and len(value) == len(self.items)):
            return f"must be {self.text}, got {reprlib.repr(value)}"
        for index, (item, domain) in enumerate(zip(value, self.items)):
            error = domain.error(item)
            if error is not None:
                return f"{error} at item {index}"
        return None


@dataclass(frozen=True)
class TupleOf(Domain):
    """A tuple of any length whose every entry is a value of ``item``."""

    item: Domain
    text = "a tuple"

    def error(self, value: object) -> Optional[str]:
        if not isinstance(value, tuple):
            return f"must be {self.text}, got {reprlib.repr(value)}"
        for index, entry in enumerate(value):
            error = self.item.error(entry)
            if error is not None:
                return f"{error} in entry {index}"
        return None


@dataclass(frozen=True)
class InstanceOf(Domain):
    """An instance of ``cls``: ``InstanceOf(bool)`` for a flag, where a
    campaign value such as ``"false"`` would be truthy."""

    cls: type

    @property
    def text(self) -> str:  # type: ignore[override]
        return f"a {self.cls.__name__}"

    def accepts(self, value: object) -> bool:
        return isinstance(value, self.cls)


@dataclass(frozen=True)
class Builds(Domain):
    """A dict of keyword arguments that ``cls`` constructs from.

    The owning constructor is the check: ``cls`` is itself table-checked,
    so its domains are not restated here.  ``exclude`` names arguments
    the caller supplies itself, which would collide.
    """

    cls: type
    exclude: Tuple[str, ...]

    @property
    def text(self) -> str:  # type: ignore[override]
        return f"keyword arguments of {self.cls.__name__} other than {', '.join(self.exclude)}"

    def error(self, value: object) -> Optional[str]:
        if not isinstance(value, dict) or any(k in value for k in self.exclude):
            return f"must be {self.text}, got {reprlib.repr(value)}"
        try:
            self.cls(**value)
        except (TypeError, ValueError) as exc:
            return f"must be {self.text}: {exc}"
        return None


def positive(text: str = "positive and finite") -> Real:
    return Real(text, low=0.0, low_open=True)


def non_negative(text: str = "non-negative and finite") -> Real:
    return Real(text, low=0.0)


@dataclass(frozen=True)
class Rule:
    """A constraint across ``fields``: ``holds(config)`` must be true.

    ``holds`` may instead raise :class:`ValueError` itself, when it
    delegates to a constructor that owns the check and its message.
    It runs only after every field passed its own domain.
    """

    fields: Tuple[str, ...]
    text: str
    holds: Callable[[Any], bool]

    def message(self, config: object) -> str:
        got = ", ".join(f"{name}={reprlib.repr(getattr(config, name))}" for name in self.fields)
        return f"{self.text}; got {got}"


def checked(domains: Mapping[str, Domain], rules: Sequence[Rule] = ()):
    """Class decorator (above ``@dataclass``): bind the domain table and
    the cross-field rules, after checking that the table covers exactly
    the dataclass's fields."""

    def bind(cls):
        names = [f.name for f in fields(cls)]
        missing = sorted(set(names) - set(domains))
        extra = sorted(set(domains) - set(names))
        if missing or extra:
            raise TypeError(
                f"{cls.__name__}'s domain table must list exactly its fields: "
                f"missing {missing}, unknown {extra}"
            )
        unknown = sorted({name for rule in rules for name in rule.fields} - set(names))
        if unknown:
            raise TypeError(f"{cls.__name__}'s rules name unknown fields {unknown}")
        cls.DOMAINS = dict(domains)
        cls.RULES = tuple(rules)
        return cls

    return bind


def check_fields(config: Any) -> None:
    """``__post_init__`` of a :func:`checked` dataclass: every field
    against its domain, then every cross-field rule."""
    cls = type(config)
    for name, domain in cls.DOMAINS.items():
        error = domain.error(getattr(config, name))
        if error is not None:
            raise ValueError(f"{name} {error}")
    for rule in cls.RULES:
        if not rule.holds(config):
            raise ValueError(rule.message(config))
