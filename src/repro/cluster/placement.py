"""Session placement: rendezvous hashing plus an explicit override map.

Rendezvous (highest-random-weight) hashing gives every ``(session,
shard)`` pair a deterministic score; a session lives on the
highest-scoring shard.  Adding or removing one shard reassigns only the
sessions whose top score involved that shard -- about ``1/n`` of them --
which is the minimal-disruption property that makes the scheme fit for
cost-oblivious reallocation: the *default* placement churns as little
as possible, and every deliberate deviation from it is an explicit
override recorded in the :class:`PlacementMap`.

The map is a plain JSON document (``placement.json`` in the cluster
directory) so routers, the rebalancer and the CLI all share one source
of truth; ``epoch`` increments on every change, letting a reader detect
staleness cheaply.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.service.journal import write_json_durable

PLACEMENT_FILE = "placement.json"


def _score(shard: str, session: str) -> int:
    """Deterministic 64-bit rendezvous score for one (shard, session)."""
    digest = hashlib.blake2b(
        f"{shard}\x00{session}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_owner(session: str, shards: Sequence[str]) -> str:
    """The shard owning ``session`` under pure rendezvous hashing."""
    if not shards:
        raise ValueError("rendezvous_owner: no shards")
    return max(shards, key=lambda s: (_score(s, session), s))


class PlacementMap:
    """Where every session lives: rendezvous default + overrides.

    Overrides are the durable record of deliberate reallocations (a
    migrated session must keep routing to its new shard even though the
    hash still points at the old one).  An override matching the hash
    owner is dropped rather than stored -- the map stays minimal.
    """

    def __init__(
        self,
        shards: Iterable[str],
        *,
        overrides: Optional[Mapping[str, str]] = None,
        epoch: int = 0,
        members: Iterable[str] = (),
    ) -> None:
        self.shards: tuple[str, ...] = tuple(shards)
        if not self.shards:
            raise ValueError("PlacementMap needs at least one shard")
        if len(set(self.shards)) != len(self.shards):
            raise ValueError("duplicate shard names")
        #: Assignable targets beyond the hash ring: promoted replicas
        #: own sessions by override without participating in rendezvous
        #: (new sessions keep hashing over the configured primaries).
        self.members: set[str] = set(members) - set(self.shards)
        self.epoch = epoch
        self.overrides: dict[str, str] = {}
        for sid, shard in (overrides or {}).items():
            if shard not in self.shards and shard not in self.members:
                raise ValueError(f"override to unknown shard {shard!r}")
            self.overrides[sid] = shard

    def owner(self, session: str) -> str:
        over = self.overrides.get(session)
        if over is not None:
            return over
        return rendezvous_owner(session, self.shards)

    def add_member(self, shard: str) -> None:
        """Make ``shard`` an assignable override target (promotion)."""
        if shard not in self.shards:
            self.members.add(shard)

    def assign(self, session: str, shard: str) -> None:
        """Record that ``session`` now lives on ``shard``."""
        if shard not in self.shards and shard not in self.members:
            raise ValueError(f"unknown shard {shard!r}")
        if rendezvous_owner(session, self.shards) == shard:
            self.overrides.pop(session, None)
        else:
            self.overrides[session] = shard
        self.epoch += 1

    def clear(self, session: str) -> None:
        """Drop any override; the session reverts to its hash owner."""
        if self.overrides.pop(session, None) is not None:
            self.epoch += 1

    def sessions_on(self, shard: str, sessions: Iterable[str]) -> list[str]:
        """Filter ``sessions`` down to the ones this map routes to ``shard``."""
        return [s for s in sessions if self.owner(s) == shard]

    # -- persistence -----------------------------------------------------

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "version": 1,
            "shards": list(self.shards),
            "overrides": dict(sorted(self.overrides.items())),
            "epoch": self.epoch,
        }
        if self.members:
            doc["members"] = sorted(self.members)
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "PlacementMap":
        shards = doc.get("shards")
        overrides = doc.get("overrides", {})
        epoch = doc.get("epoch", 0)
        members = doc.get("members", [])
        if (
            not isinstance(shards, list)
            or not all(isinstance(s, str) for s in shards)
            or not isinstance(overrides, dict)
            or not isinstance(epoch, int)
            or not isinstance(members, list)
            or not all(isinstance(m, str) for m in members)
        ):
            raise ValueError("malformed placement document")
        return cls(shards, overrides=overrides, epoch=epoch, members=members)

    def save(self, path: str) -> None:
        write_json_durable(path, self.to_doc())

    @classmethod
    def load(cls, path: str) -> "PlacementMap":
        with open(path, encoding="utf-8") as fh:
            return cls.from_doc(json.load(fh))
