"""Content-addressed result store with atomic write-then-rename.

Layout: ``<root>/<digest[:2]>/<digest>.json`` — one JSON record per
completed point, fanned over 256 prefix directories so a million-point
campaign never piles one directory high.

Durability contract:

* :meth:`ResultStore.put` writes to a same-directory temp file, flushes
  and fsyncs it, then ``os.replace``\\ s onto the final name.  A reader
  therefore sees either nothing or a complete record — never a torn
  write — and a SIGINT/SIGKILL at any instant loses at most the points
  still in flight.
* Writes are idempotent and race-free across processes: concurrent
  workers computing the same key replace with byte-identical content
  (records are pure functions of the config), so last-writer-wins is
  indistinguishable from first-writer-wins.
* :meth:`digests` enumerates in sorted order (filesystem order is
  machine-dependent — the DET-012 rule class).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List, Optional

__all__ = ["ResultStore"]

_RECORD_SUFFIX = ".json"


class ResultStore:
    """A directory of content-addressed campaign point records."""

    def __init__(self, root: object) -> None:
        self.root = pathlib.Path(root)  # type: ignore[arg-type]

    def path_for(self, digest: str) -> pathlib.Path:
        if len(digest) < 3 or not all(c in "0123456789abcdef" for c in digest):
            raise ValueError(f"not a content digest: {digest!r}")
        return self.root / digest[:2] / f"{digest}{_RECORD_SUFFIX}"

    def has(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """The stored record, or ``None`` when the point has not run.

        Raises :class:`ValueError` ("corrupt record ...") for a file that
        is not a point record: unparsable, without a ``metrics`` object,
        or carrying a ``digest`` other than ``digest``."""
        path = self.path_for(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            # Atomic replace means this should be impossible; if it
            # happens (manual tampering, disk fault), fail loudly rather
            # than silently recompute against a poisoned store.
            raise ValueError(f"corrupt record {path}: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"corrupt record {path}: not a JSON object")
        if not isinstance(record.get("metrics"), dict):
            raise ValueError(f"corrupt record {path}: no 'metrics' object")
        if record.get("digest", digest) != digest:
            raise ValueError(
                f"corrupt record {path}: its digest field {record['digest']!r} "
                "differs from the key it was read under"
            )
        return record

    def put(self, digest: str, record: Dict[str, object]) -> pathlib.Path:
        """Persist ``record`` under ``digest`` atomically; returns the path."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            record, sort_keys=True, indent=1, allow_nan=False
        ) + "\n"
        # getpid keeps concurrent writers of the same digest on distinct
        # temp files; it names scratch storage only and never reaches a
        # record (records are pure functions of the config).
        tmp = path.parent / f".{digest}.tmp.{os.getpid()}"  # repro: noqa[DET-014]
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            # Only on a failure path: replace() consumed the temp file.
            if tmp.exists():  # pragma: no cover - error cleanup
                tmp.unlink()
        return path

    def digests(self) -> List[str]:
        """Every stored digest, in sorted (machine-independent) order."""
        if not self.root.exists():
            return []
        return sorted(
            p.stem
            for p in self.root.glob(f"??/*{_RECORD_SUFFIX}")
            if not p.name.startswith(".")
        )

    def __len__(self) -> int:
        return len(self.digests())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"
