"""JSONL checkpoints: an interrupted campaign resumes where it stopped.

A campaign is a deterministic schedule of independent **shards** (see
:mod:`repro.reliability.campaign`), so its durable state is simply the
set of completed shard results.  The checkpoint is a JSON-Lines file:

* line 1 — a ``header`` record carrying the schema version and a
  digest of everything that shapes the shard schedule (seed, model
  parameters, shard size, schemes).  Resuming under a *different*
  configuration would splice incompatible trials together, so a digest
  mismatch is a hard error, not a warning.
* every further line — one ``shard`` record: scheme, shard index, and
  its outcome counts.

Records are appended and flushed as each shard completes, so the file
is valid after a SIGINT at any point; a torn final line (the process
died mid-write) is detected and ignored on load.  Resume correctness —
the property the tests pin — is that *interrupt + resume* produces the
bit-identical aggregate of an uninterrupted run: shard seeds depend
only on (seed, scheme, index), completed shards are skipped by index,
and aggregation is an order-independent sum.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.reliability.model import DOMAIN_ORDER, TrialOutcome

#: Version 2: the per-trial random stream changed when payloads moved
#: from the trial stream to the pre-encoded line pool (PR 4) — a v1
#: checkpoint's shards would splice a different trial population into a
#: resumed campaign, so resuming one is refused rather than corrupted.
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """The checkpoint file cannot be used with this campaign."""


_DOMAIN_NAMES = frozenset(domain.value for domain in DOMAIN_ORDER)
_OUTCOME_NAMES = frozenset(outcome.value for outcome in TrialOutcome)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _shard_problem(record: Dict[str, Any]) -> Optional[str]:
    """Why a ``shard`` record cannot be resumed from, or ``None``."""
    if not isinstance(record.get("scheme"), str):
        return "shard 'scheme' must be a string"
    for key in ("index", "trials", "seed"):
        if not _is_int(record.get(key)):
            return f"shard {key!r} must be an integer"
    if record["index"] < 0:
        return "shard 'index' must be non-negative"
    if record["trials"] < 1:
        return "shard 'trials' must be positive"
    outcomes = record.get("outcomes")
    if not isinstance(outcomes, dict):
        return "shard 'outcomes' must be an object"
    counted = 0
    for domain, per in outcomes.items():
        if domain not in _DOMAIN_NAMES:
            return f"unknown fault domain {domain!r} in shard 'outcomes'"
        if not isinstance(per, dict):
            return f"shard outcomes[{domain!r}] must be an object"
        for name, count in per.items():
            if name not in _OUTCOME_NAMES:
                return f"unknown outcome {name!r} in shard 'outcomes'"
            if not _is_int(count) or count < 0:
                return (
                    f"shard outcome count {domain}/{name} must be a "
                    "non-negative integer"
                )
            counted += count
    if counted != record["trials"]:
        # The campaign's round boundaries and half-widths read 'trials'
        # while its estimates read the counts: they must agree.
        return (
            f"shard outcome counts sum to {counted}, not its "
            f"'trials' ({record['trials']})"
        )
    return None


def config_digest(payload: Dict[str, Any]) -> str:
    """Digest of the canonical campaign description (sorted JSON)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class CampaignCheckpoint:
    """Append-only JSONL store of completed shard results."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self._fh = None

    # -- reading -----------------------------------------------------------

    def load(
        self, expected_digest: str
    ) -> Dict[Tuple[str, int], Dict[str, Any]]:
        """Completed shard records keyed by (scheme, shard index).

        Returns ``{}`` when the file does not exist yet.  Raises
        :class:`CheckpointError` on a version or configuration-digest
        mismatch.  A torn trailing line is skipped; any other malformed
        line — bad JSON, a record of the wrong shape, or a shard that
        cannot be resumed from (negative index, no trials, outcome
        counts that do not sum to its trials) — is an error naming the
        line (the file is not ours to guess about).
        """
        if not self.path.exists():
            return {}
        lines = self.path.read_text(encoding="utf-8").splitlines()
        records = []
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn final line: the shard never completed
                raise CheckpointError(
                    f"{self.path}: malformed checkpoint line {i + 1}"
                ) from None
            if not isinstance(record, dict):
                raise CheckpointError(
                    f"{self.path}: malformed checkpoint line {i + 1}: "
                    "a record must be a JSON object"
                )
            records.append((i + 1, record))
        if not records:
            return {}
        header = records[0][1]
        if header.get("type") != "header":
            raise CheckpointError(f"{self.path}: missing header record")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{self.path}: checkpoint version "
                f"{header.get('version')!r} != {CHECKPOINT_VERSION}"
            )
        if header.get("digest") != expected_digest:
            raise CheckpointError(
                f"{self.path}: campaign configuration changed since this "
                "checkpoint was written; delete it or restore the "
                "original flags to resume"
            )
        done: Dict[Tuple[str, int], Dict[str, Any]] = {}
        for lineno, record in records[1:]:
            if record.get("type") == "header":
                # Two fabric replicas sharing one checkpoint file can
                # race write_header's exists() check; an identical
                # duplicate header is harmless, a differing one is not.
                if (
                    record.get("version") == header.get("version")
                    and record.get("digest") == header.get("digest")
                ):
                    continue
                raise CheckpointError(
                    f"{self.path}: conflicting duplicate header record"
                )
            if record.get("type") != "shard":
                raise CheckpointError(
                    f"{self.path}: unexpected record type "
                    f"{record.get('type')!r}"
                )
            problem = _shard_problem(record)
            if problem is not None:
                raise CheckpointError(
                    f"{self.path}: malformed checkpoint line {lineno}: "
                    f"{problem}"
                )
            done[(record["scheme"], record["index"])] = record
        return done

    # -- writing -----------------------------------------------------------

    def _open(self) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")

    def write_header(self, digest: str, describe: Dict[str, Any]) -> None:
        """Write the header once (no-op if the file already has content)."""
        if self.path.exists() and self.path.stat().st_size > 0:
            return
        self._append(
            {
                "type": "header",
                "version": CHECKPOINT_VERSION,
                "digest": digest,
                "config": describe,
            }
        )

    def append_shard(self, record: Dict[str, Any]) -> None:
        self._append(dict(record, type="shard"))

    def _append(self, record: Dict[str, Any]) -> None:
        self._open()
        assert self._fh is not None
        self._fh.write(json.dumps(record, sort_keys=True))
        self._fh.write("\n")
        # Flush through to the OS so a SIGKILL right now loses at most
        # the (torn, skippable) line being written — never a prior one.
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None


__all__ = [
    "CHECKPOINT_VERSION",
    "CampaignCheckpoint",
    "CheckpointError",
    "config_digest",
]
