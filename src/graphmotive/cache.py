"""Append-only on-disk cache for computed counts.

One JSONL file per cache directory; every line is a self-contained record
{"version", "kind", "input", "params", "q", "value"}.  Records are only ever
appended (under an advisory file lock), so concurrent writers interleave
whole lines and a reader can always replay the file from the top.  Lookup is
by exact key equality; a stale or corrupt line is skipped, never trusted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import ParseError

CACHE_VERSION = 1
_ENV_VAR = "GRAPHMOTIVE_CACHE"
_DEFAULT_DIR = ".gm-cache"
_FILE_NAME = "counts.jsonl"


def cache_dir() -> str:
    return os.environ.get(_ENV_VAR, _DEFAULT_DIR)


def _key(kind: str, input_text: str, params: dict, q: int) -> tuple:
    return (kind, input_text, tuple(sorted(params.items())), q)


@dataclass
class CountCache:
    """Loads the whole JSONL once; get() is a dict probe, put() appends its
    new records' lines with one write under an exclusive advisory lock and
    updates the in-memory view."""

    path: str
    entries: dict

    hits: int = 0
    misses: int = 0

    @staticmethod
    def open(directory: str | None = None) -> "CountCache":
        directory = directory if directory is not None else cache_dir()
        path = os.path.join(directory, _FILE_NAME)
        entries: dict = {}
        if not os.path.exists(path):
            return CountCache(path=path, entries=entries)
        try:
            # an undecodable byte becomes U+FFFD, which json.dumps never
            # writes unescaped, so its line is skipped as damaged
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or "\ufffd" in line:
                        continue
                    try:
                        rec = json.loads(line)
                        if not isinstance(rec, dict):
                            continue
                        if rec.get("version") != CACHE_VERSION:
                            continue
                        q, value = rec["q"], rec["value"]
                        # a float or bool would coerce to a wrong count
                        if type(q) is not int or type(value) is not int:
                            continue
                        key = _key(
                            rec["kind"], rec["input"], dict(rec["params"]), q
                        )
                        entries[key] = value
                    except (ValueError, KeyError, TypeError):
                        continue  # skip damaged lines, never fail the run
        except OSError as exc:
            raise ParseError(f"cannot read cache {path!r}: {exc}") from exc
        return CountCache(path=path, entries=entries)

    def get(self, kind: str, input_text: str, params: dict, q: int):
        key = _key(kind, input_text, params, q)
        if key in self.entries:
            self.hits += 1
            return self.entries[key]
        self.misses += 1
        return None

    def put(self, records):
        """Appends the records (kind, input_text, params, q, value) that are
        not already cached as they stand, with one locked write."""
        lines, new = [], {}
        for kind, input_text, params, q, value in records:
            key = _key(kind, input_text, params, q)
            if self.entries.get(key) == value:
                continue
            rec = {
                "version": CACHE_VERSION,
                "kind": kind,
                "input": input_text,
                "params": dict(sorted(params.items())),
                "q": q,
                "value": value,
            }
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
            new[key] = value
        if not lines:
            return
        text = "".join(lines)
        try:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                try:
                    import fcntl

                    fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                    fh.write(text)
                    fh.flush()
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
                except ImportError:  # non-POSIX: best effort append
                    fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write cache {self.path!r}: {exc}") from exc
        self.entries.update(new)
