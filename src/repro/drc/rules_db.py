"""Database rules (DB-*): integrity of the component checkpoint store.

These run only when a :class:`~repro.rapidwright.ComponentDatabase` is
supplied.  They cross-check each record against the integrity metadata
the database stamps into each checkpoint image when it is stored (content
fingerprint + locked-object counts), catching stores whose images were
swapped or edited after the fact — the component reuse guarantee of the
pre-implemented flow rests on checkpoints being immutable.
"""

from __future__ import annotations

from .engine import rule


def _integrity(record) -> dict:
    """The integrity record stamped into *record*'s image (``{}`` if none)."""
    component = record.image.metadata().get("component")
    integrity = component.get("integrity") if isinstance(component, dict) else None
    return integrity if isinstance(integrity, dict) else {}


@rule("DB-001", category="database", severity="error", title="stale signature key")
def db_stale_key(ctx, emit) -> None:
    """A record stored under a key that no longer matches its signature —
    the database would never answer ``get()`` for that component again."""
    from ..rapidwright.database import signature_key

    for key, record in ctx.database.records.items():
        expected = signature_key(record.signature)
        if key != expected:
            emit("database", key,
                 f"record {key} has stale signature key (signature now hashes "
                 f"to {expected})", detail=expected)


@rule("DB-002", category="database", severity="error", title="checkpoint hash mismatch")
def db_hash_mismatch(ctx, emit) -> None:
    """A checkpoint image whose content no longer matches the integrity
    fingerprint recorded when it was stored (mutation after ``put``), or
    that carries no fingerprint at all."""
    from ..rapidwright.database import image_integrity

    for key, record in ctx.database.records.items():
        stored = _integrity(record).get("sha1")
        if not stored:
            emit("database", key,
                 f"record {key} carries no integrity fingerprint")
            continue
        actual = image_integrity(record.image)["sha1"]
        if actual != stored:
            emit("database", key,
                 f"record {key} checkpoint hash mismatch: stored "
                 f"{str(stored)[:12]}, payload is {actual[:12]}")


@rule("DB-003", category="database", severity="error", title="locked-cell drift")
def db_locked_drift(ctx, emit) -> None:
    """A checkpoint whose locked cell/net counts drifted from the counts
    recorded at store time — pre-implemented internals were unlocked or
    re-locked behind the database's back."""
    from ..rapidwright.database import image_integrity

    for key, record in ctx.database.records.items():
        integrity = _integrity(record)
        if "locked_cells" not in integrity:
            continue  # DB-002 reports the missing record
        actual = image_integrity(record.image)
        cells, nets = actual["locked_cells"], actual["locked_nets"]
        if cells != integrity["locked_cells"]:
            emit("database", key,
                 f"record {key} locked-cell drift: stored "
                 f"{integrity['locked_cells']}, payload has {cells}")
        if nets != integrity.get("locked_nets", nets):
            emit("database", key,
                 f"record {key} locked-net drift: stored "
                 f"{integrity['locked_nets']}, payload has {nets}")
