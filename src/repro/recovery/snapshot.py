"""A checkpoint is the pickled quiescent run.

At a due epoch boundary no repair is in flight and every queued event
is a bound daemon timer, so the whole run pickles.  The run key carries
:func:`source_fingerprint`, so a pickle written by other code is never found.
"""

import functools
import hashlib
import pickle
from pathlib import Path

__all__ = ["SnapshotError", "snapshot", "source_fingerprint"]


class SnapshotError(RuntimeError):
    """The run cannot be pickled in its current state."""


def snapshot(payload: object) -> bytes:
    """Pickle ``payload``, naming whatever refuses to pickle."""
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise SnapshotError(
            f"cannot snapshot the run: {exc}; snapshots are only taken at "
            "quiescent boundaries, where no repair is in flight"
        ) from exc


@functools.cache
def source_fingerprint() -> str:
    """sha256 over the path and bytes of every ``repro`` ``.py`` file."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix().encode()
        digest.update(name + b"\0" + path.read_bytes())
    return digest.hexdigest()
