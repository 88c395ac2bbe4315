"""Reply/quote cascades: construction, time-order cutting, and row aggregation.

A cascade is a rooted tree of tweets. Members are kept in a canonical
(created_at, depth, id) order; because a child can never be created before
its parent, every prefix of that order is ancestor-closed, which makes
cutting to the n oldest tweets a simple prefix operation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import AGGREGATIONS
from .corpus import write_jsonl
from .errors import ConfigInvalidError, CycleDetectedError, EmptyInputError, RaggedRowsError


@dataclass(frozen=True)
class CascadeMember:
    """One tweet of a cascade and the member it replies to or quotes (None for the root)."""

    tweet_id: str
    parent_id: str | None
    created_at: int


@dataclass(frozen=True)
class Cascade:
    """A rooted reply/quote tree; members are kept in (created_at, depth, id) order."""

    root_id: str
    members: tuple[CascadeMember, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a cascade needs at least one member")
        by_id = {m.tweet_id: m for m in self.members}
        if len(by_id) != len(self.members):
            raise ValueError("duplicate tweet ids within a cascade")
        roots = [m for m in self.members if m.parent_id is None]
        if len(roots) != 1 or roots[0].tweet_id != self.root_id:
            raise ValueError("exactly one parentless member, the root, is required")
        for m in self.members:
            if m.parent_id is None:
                continue
            parent = by_id.get(m.parent_id)
            if parent is None:
                raise ValueError(f"member {m.tweet_id!r} references a parent outside the cascade")
            if m.created_at < parent.created_at:
                raise ValueError(f"member {m.tweet_id!r} predates its parent")
        # Normalize member order to (created_at, depth, id).
        depth = _depths(self.members)
        ordered = tuple(
            sorted(self.members, key=lambda m: (m.created_at, depth[m.tweet_id], m.tweet_id))
        )
        object.__setattr__(self, "members", ordered)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(m.tweet_id for m in self.members)

    @property
    def edges(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for m in self.members:
            if m.parent_id is not None:
                out.setdefault(m.parent_id, []).append(m.tweet_id)
        return out


def _depths(members) -> dict[str, int]:
    parent = {m.tweet_id: m.parent_id for m in members}
    depth: dict[str, int] = {}

    def resolve(tid: str) -> int:
        if tid in depth:
            return depth[tid]
        chain = []
        cur = tid
        while cur is not None and cur not in depth:
            chain.append(cur)
            cur = parent.get(cur)
        base = depth[cur] if cur is not None else -1
        for node in reversed(chain):
            base += 1
            depth[node] = base
        return depth[tid]

    for m in members:
        resolve(m.tweet_id)
    return depth


def build_cascades(docs) -> list[Cascade]:
    """Group tweets into cascades by their reply/quote parentage.

    Tweets whose parent is missing from the corpus are promoted to roots of
    their own (partial) cascades, each with a warning (warnings.warn). A
    parent loop among the inputs raises CycleDetectedError, and a tweet
    created before its parent ConfigInvalidError.
    """
    tweets = list(docs)
    for doc in tweets:
        if doc.kind != "tweet":
            raise ValueError(f"build_cascades expects tweets, got {doc.kind!r} ({doc.id!r})")
    by_id = {doc.id: doc for doc in tweets}

    roots = []
    children: dict[str, list[str]] = {}
    for doc in tweets:
        if doc.parent_id is None:
            roots.append(doc.id)
        elif doc.parent_id not in by_id:
            warnings.warn(
                f"tweet {doc.id} has missing parent {doc.parent_id}; promoted to root",
                stacklevel=2,
            )
            roots.append(doc.id)
        else:
            children.setdefault(doc.parent_id, []).append(doc.id)

    cascades = []
    seen: set[str] = set()
    for root_id in sorted(roots, key=lambda tid: (by_id[tid].created_at, tid)):
        members = []
        stack = [root_id]
        while stack:
            tid = stack.pop()
            seen.add(tid)
            doc = by_id[tid]
            parent = doc.parent_id if tid != root_id else None
            if parent is not None and doc.created_at < by_id[parent].created_at:
                raise ConfigInvalidError(f"tweet {tid!r} was created before its parent {parent!r}")
            members.append(CascadeMember(tweet_id=tid, parent_id=parent, created_at=doc.created_at))
            stack.extend(children.get(tid, ()))
        cascades.append(Cascade(root_id=root_id, members=tuple(members)))

    unreachable = set(by_id) - seen
    if unreachable:
        raise CycleDetectedError(sorted(unreachable))
    return cascades


def cut(cascade: Cascade, n: int) -> Cascade:
    """Restrict to the n oldest tweets (the cascade as it looked earlier in time)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= cascade.size:
        return cascade
    return Cascade(root_id=cascade.root_id, members=cascade.members[:n])


def aggregate(rows, fn: str) -> np.ndarray:
    """Element-wise mean / median / max across per-tweet similarity rows.

    `rows` is an iterable of equal-length rows or a 2-D array; either is
    reduced as one C-ordered float64 block, so an array gives the same bits
    as its list of rows, and is copied only when it is not that already.
    """
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2):
        rows = list(rows)
        lengths = {len(row) for row in rows}
        if len(lengths) > 1:
            raise RaggedRowsError(f"rows have mixed lengths: {sorted(lengths)}")
    if len(rows) == 0:
        raise EmptyInputError("aggregate needs at least one row")
    stacked = np.ascontiguousarray(rows, dtype=np.float64)
    if fn == "mean":
        return stacked.mean(axis=0)
    if fn == "median":
        return np.median(stacked, axis=0)
    if fn == "max":
        return stacked.max(axis=0)
    raise ValueError(f"unknown aggregation {fn!r}; expected one of {AGGREGATIONS}")


def write_cascades_jsonl(cascades, path) -> None:
    write_jsonl(({"root_id": c.root_id, "member_ids": list(c.member_ids)} for c in cascades), path)
