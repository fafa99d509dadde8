"""Privacy-loss accounting for a release plan.

Epsilons are carried as decimal.Decimal so published totals are exact:
two charges of 0.1 report as exactly 0.2, never as float dust. Query
plans are trees. Leaves carry a query label and an epsilon; internal
nodes combine children either sequentially (costs add) or in parallel
over disjoint slices of the data (cost is the worst child).

Whether parallel branches really touch disjoint data is a property of
the data, not of the plan, so it cannot be verified here. The validator
enforces the structural declaration only: the leaf labels reachable from
distinct children of a parallel node must not overlap.

This module imports no numpy, so it also holds the value rules the numpy
layers share with the command line's flag parsing: is_int, check_seed and
its ParameterError. A `budget` read, a `--version` and a refused flag
then start without numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Context, Decimal, Inexact, InvalidOperation
from functools import reduce
from pathlib import Path
from typing import Iterable, Union

_U64_MAX = (1 << 64) - 1


def is_int(value: object) -> bool:
    """An int that is not a bool: bool is an int subclass, but True is no count or seed."""
    return isinstance(value, int) and not isinstance(value, bool)


class ParameterError(ValueError):
    """A noise parameter is outside its domain."""


def check_seed(base_seed: int) -> None:
    """Refuse a master seed that is not an unsigned 64-bit integer."""
    if not (is_int(base_seed) and 0 <= base_seed <= _U64_MAX):
        raise ParameterError(f"base_seed must be an unsigned 64-bit integer, got {base_seed!r}")


class PlanError(ValueError):
    """A query plan or epsilon value is malformed."""


class BudgetExceededError(RuntimeError):
    """A charge would push spent privacy loss past the budget, or a journal already spends more."""

    def __init__(self, message: str, requested: Decimal | None = None, remaining: Decimal | None = None) -> None:
        self.requested = requested
        self.remaining = remaining
        super().__init__(message)


# Decimal's default 28 digits, with every result that would round refused
# rather than rounded: a published total or a budget check is exact or absent.
_EXACT = Context(traps=[Inexact])


def _add(a: Decimal, b: Decimal) -> Decimal:
    try:
        return _EXACT.add(a, b)
    except Inexact:
        raise PlanError(f"{a} + {b} cannot be computed exactly in {_EXACT.prec} digits") from None


EpsilonLike = Union[Decimal, str, int, float]


def as_epsilon(value: EpsilonLike) -> Decimal:
    """Exact positive decimal epsilon.

    Floats are converted through repr, so the float 0.1 means the decimal
    0.1 rather than its binary expansion.
    """
    try:
        if isinstance(value, Decimal):
            eps = value
        elif isinstance(value, float):
            eps = Decimal(repr(value))
        elif isinstance(value, str) or is_int(value):
            eps = Decimal(value)
        else:
            raise PlanError(f"cannot interpret {value!r} as an epsilon")
    except InvalidOperation as exc:
        raise PlanError(f"cannot interpret {value!r} as an epsilon") from exc
    if not eps.is_finite() or eps <= 0:
        raise PlanError(f"epsilon must be a positive finite decimal, got {value!r}")
    return eps


@dataclass(frozen=True)
class Query:
    """Leaf of a plan: one differentially private query and its cost."""

    label: str
    epsilon: Decimal

    def __post_init__(self) -> None:
        if not self.label:
            raise PlanError("query label must be a non-empty string")
        object.__setattr__(self, "epsilon", as_epsilon(self.epsilon))


@dataclass(frozen=True)
class Sequential:
    """Children run against the same data: privacy costs add."""

    children: tuple["QueryPlan", ...]


@dataclass(frozen=True)
class Parallel:
    """Children run against disjoint data slices: cost is the maximum."""

    children: tuple["QueryPlan", ...]


QueryPlan = Union[Query, Sequential, Parallel]


def seq(*children: QueryPlan) -> Sequential:
    return Sequential(tuple(children))


def par(*children: QueryPlan) -> Parallel:
    return Parallel(tuple(children))


def _labels(plan: QueryPlan) -> set[str]:
    """The leaf labels of a valid plan; PlanError names the first fault, in depth-first order."""
    if isinstance(plan, Query):
        return {plan.label}
    if not isinstance(plan, (Sequential, Parallel)):
        raise PlanError(f"not a query plan node: {plan!r}")
    if not plan.children:
        raise PlanError("composite plan nodes need at least one child")
    seen: set[str] = set()
    for child in plan.children:
        labels = _labels(child)
        overlap = seen & labels
        if overlap and isinstance(plan, Parallel):
            raise PlanError(
                f"parallel branches must cover disjoint data; label(s) {sorted(overlap)} appear in more than one branch"
            )
        seen |= labels
    return seen


def validate_plan(plan: QueryPlan) -> None:
    """Reject empty composite nodes and overlapping parallel branches."""
    _labels(plan)


def sequential_compose(epsilons: Iterable[EpsilonLike]) -> Decimal:
    """Total cost of queries over the same data: the sum."""
    values = [as_epsilon(e) for e in epsilons]
    if not values:
        raise PlanError("sequential composition of an empty list is undefined")
    return reduce(_add, values, Decimal(0))


def parallel_compose(epsilons: Iterable[EpsilonLike]) -> Decimal:
    """Total cost of queries over disjoint data: the maximum."""
    values = [as_epsilon(e) for e in epsilons]
    if not values:
        raise PlanError("parallel composition of an empty list is undefined")
    return max(values)


def total_epsilon(plan: QueryPlan) -> Decimal:
    """Fold a plan tree into its exact total privacy cost; an invalid plan is refused first."""
    validate_plan(plan)
    return _fold(plan)


def _fold(plan: QueryPlan) -> Decimal:
    if isinstance(plan, Query):
        return plan.epsilon
    compose = sequential_compose if isinstance(plan, Sequential) else parallel_compose
    return compose(_fold(child) for child in plan.children)


def describe_plan(plan: QueryPlan) -> str:
    """Compact one-line rendering, e.g. SEQ(PAR(a:0.1,b:0.1),c:0.05)."""
    if isinstance(plan, Query):
        return f"{plan.label}:{plan.epsilon}"
    tag = "SEQ" if isinstance(plan, Sequential) else "PAR"
    return f"{tag}({','.join(describe_plan(c) for c in plan.children)})"


@dataclass(frozen=True)
class LedgerEntry:
    """One accepted charge: when, what for, and how much epsilon."""

    timestamp: str
    description: str
    epsilon: Decimal

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_epsilon(self.epsilon))
        for field_name in ("timestamp", "description"):
            value = getattr(self, field_name)
            if "\t" in value or "\n" in value or "\r" in value:
                raise PlanError(f"ledger {field_name} must not contain tabs or newlines: {value!r}")


class BudgetLedger:
    """Append-only record of privacy charges against a fixed budget.

    spent is always the exact decimal sum over entries (PlanError where it
    would round), and a charge that would exceed the budget is rejected
    without touching the ledger.
    Single-writer: callers serialize concurrent charges to one journal
    (the release command holds an exclusive flock on the journal's
    directory from load to append, so only an accepted charge creates it).
    """

    def __init__(self, budget: EpsilonLike, entries: Iterable[LedgerEntry] = ()) -> None:
        self.budget = as_epsilon(budget)
        self.entries: list[LedgerEntry] = list(entries)
        if self.spent > self.budget:
            raise BudgetExceededError(f"the journal already spends {self.spent}, more than the budget {self.budget}")

    @property
    def spent(self) -> Decimal:
        return reduce(_add, (entry.epsilon for entry in self.entries), Decimal(0))

    @property
    def remaining(self) -> Decimal:
        return _add(self.budget, -self.spent)

    def charge(
        self,
        plan: QueryPlan,
        *,
        description: str | None = None,
        timestamp: str | None = None,
    ) -> LedgerEntry:
        """Charge a plan's total cost; atomic, rejects instead of overspending."""
        cost = total_epsilon(plan)
        if _add(self.spent, cost) > self.budget:
            remaining = self.remaining
            raise BudgetExceededError(f"charge of {cost} exceeds remaining budget {remaining}", cost, remaining)
        entry = LedgerEntry(
            timestamp=timestamp if timestamp is not None else datetime.now(timezone.utc).isoformat(),
            description=description if description is not None else describe_plan(plan),
            epsilon=cost,
        )
        self.entries.append(entry)
        return entry


def append_journal(path: str | Path, entry: LedgerEntry) -> None:
    """Append one charge to a plain-text journal: timestamp TAB description TAB epsilon.

    The line and the journal's directory entry are on disk (fsync of the
    file, then of its directory) before this returns, so a charge survives a
    crash of the release that follows it, even in a journal it created.
    """
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{entry.timestamp}\t{entry.description}\t{entry.epsilon}\n")
        handle.flush()
        os.fsync(handle.fileno())
    sync_directory(path)


def sync_directory(path: str | Path) -> None:
    """fsync the directory holding path, so that path's directory entry survives a crash."""
    directory = os.open(Path(path).parent, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def load_journal(path: str | Path) -> list[LedgerEntry]:
    """Parse a journal written by append_journal; malformed lines name their line number.

    A journal that is not UTF-8 text is refused naming no line: the decoder
    reads in chunks, so the line it fails in is not known.
    """
    entries: list[LedgerEntry] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise PlanError(f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
                timestamp, description, eps_text = parts
                try:
                    entries.append(LedgerEntry(timestamp, description, as_epsilon(eps_text)))
                except PlanError as exc:
                    raise PlanError(f"{path}: line {lineno}: {exc}") from exc
    except UnicodeDecodeError:
        raise PlanError(f"{path}: not UTF-8 text") from None
    return entries


def load_ledger(path: str | Path, budget: EpsilonLike) -> BudgetLedger:
    """Rebuild a ledger from its journal, enforcing spent <= budget.

    A missing journal is an empty one.
    """
    try:
        entries = load_journal(path)
    except FileNotFoundError:
        entries = []
    try:
        return BudgetLedger(budget, entries)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{path}: {exc}") from None
