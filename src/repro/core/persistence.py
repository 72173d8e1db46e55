"""Model persistence: save/load trained NeuroCard weights.

The paper reports estimator sizes of a few MB and sub-minute (re)build
times; persisting the trained weights lets a DBMS ship the estimator with a
snapshot and reload it without retraining. Only the *model parameters* (the
training form, rebuilt from the served kernel table by
``NeuroCard.training_model``) and the architecture/config metadata are
serialized (``.npz``); join counts and the sampler are cheap to rebuild
from the data (seconds, §7.4) and are reconstructed on load, and the
loaded weights are folded into the kernel table the estimator serves.

Compatibility is checked *before* any model is built or weights are
touched: the artifact records every table's column names and dictionary
domain sizes, so loading against a drifted schema fails with a
:class:`~repro.errors.PersistenceError` naming the offending column instead
of a deep shape error inside weight copying.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.errors import EstimationError, PersistenceError, TrainingError
from repro.nn.compiled import CompiledResMADE
from repro.relational.schema import JoinSchema

#: v1 artifacts lack the per-column ``columns`` map; they still load, with
#: compatibility enforced by the (post-build) layout-domain check only.
#: v3 adds versioned ``snapshot`` metadata (data_version + per-table row
#: counts + training telemetry) so serving layers can judge an artifact's
#: freshness against a live snapshot without loading any weights; v1/v2
#: artifacts still load, with data_version defaulting to 0.
#: v4 adds a CRC32 ``checksum`` over the parameter arrays (verified on
#: load, so a torn or bit-flipped artifact raises PersistenceError instead
#: of loading garbage) and is written via temp-file + fsync + atomic
#: rename; earlier versions still load, without checksum verification.
_FORMAT_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2, 3, 4)


def _schema_columns(schema: JoinSchema) -> dict:
    """Per-table column name -> dictionary domain size, for compat checks."""
    return {
        name: {
            col: int(table.column(col).domain_size) for col in table.column_names
        }
        for name, table in sorted(schema.tables.items())
    }


def _check_columns(schema: JoinSchema, saved: dict) -> None:
    """Raise :class:`PersistenceError` unless ``schema`` matches ``saved``."""
    current = _schema_columns(schema)
    for table, saved_cols in saved.items():
        cols = current.get(table)
        if cols is None:
            raise PersistenceError(f"schema is missing table {table!r} from the artifact")
        if list(cols) != list(saved_cols):
            raise PersistenceError(
                f"table {table!r} columns changed since the model was saved: "
                f"{list(cols)} != {list(saved_cols)}"
            )
        for col, domain in saved_cols.items():
            if cols[col] != domain:
                raise PersistenceError(
                    f"column {table}.{col} dictionary changed since the model "
                    f"was saved (domain {cols[col]} != {domain}); snapshots "
                    "must share dictionaries"
                )


def _npz_path(path: str | Path) -> Path:
    """Artifact path with the ``.npz`` suffix numpy's loader expects."""
    return Path(path) if str(path).endswith(".npz") else Path(f"{path}.npz")


def _parse_meta(data) -> dict:
    """Decode and version-check the ``__meta__`` blob of an open artifact."""
    meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
    if meta.get("format_version") not in _SUPPORTED_VERSIONS:
        raise PersistenceError(
            f"unsupported model format {meta.get('format_version')!r}"
        )
    return meta


def _params_crc(ordered_arrays) -> int:
    """CRC32 over the parameter arrays' dtype/shape headers + raw bytes.

    The zip container already checksums its compressed members, which
    catches raw bit flips in the file; this content-level CRC additionally
    catches a *valid* archive whose arrays no longer match the metadata
    (rewritten member, stale meta after partial repair) — the torn-write
    shapes an atomic rename alone cannot rule out.
    """
    crc = 0
    for key, array in ordered_arrays:
        array = np.ascontiguousarray(array)
        header = f"{key}:{array.dtype.str}:{array.shape}".encode("utf-8")
        crc = zlib.crc32(header, crc)
        crc = zlib.crc32(array.tobytes(), crc)
    return crc


def _ordered_param_keys(files) -> list:
    return sorted(
        (k for k in files if k.startswith("param::")),
        key=lambda k: int(k.split("::")[1]),
    )


@contextlib.contextmanager
def _open_artifact(path: Path):
    """The ``.npz`` archive at ``path``, with corrupt containers mapped to
    :class:`PersistenceError`.

    Missing files keep raising ``FileNotFoundError`` (absent and corrupt
    are different operator problems); truncated or otherwise unreadable
    archives raise a typed error naming the artifact. The file handle is
    opened here rather than by ``np.load``, which leaks it when the archive
    fails to open, and is closed on every exit path.
    """
    with contextlib.ExitStack() as stack:
        try:
            handle = stack.enter_context(open(path, "rb"))
            archive = np.load(handle)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            stack.enter_context(archive)
        except FileNotFoundError:
            raise
        except (zipfile.BadZipFile, ValueError, EOFError, KeyError, OSError) as exc:
            raise PersistenceError(
                f"artifact {path} is corrupt or unreadable: {type(exc).__name__}: {exc}"
            ) from exc
        yield archive


def save_model(estimator: NeuroCard, path: str | Path) -> Path:
    """Serialize a fitted estimator's weights + config to ``path`` (.npz).

    Crash-safe: the archive is written to a same-directory temp file,
    fsynced, then atomically renamed over ``path`` — a crash mid-save
    leaves either the previous artifact or none, never a torn one. The
    parameter arrays' CRC32 travels in ``__meta__`` and is verified by
    :func:`load_model`.
    """
    if not estimator.is_fitted:
        raise EstimationError("cannot save an unfitted estimator")
    path = Path(path)
    arrays = {
        f"param::{i}::{p.name}": p.value
        for i, p in enumerate(estimator.training_model().parameters())
    }
    config = asdict(estimator.config)
    config["exclude_columns"] = list(config["exclude_columns"])
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": config,
        "domains": estimator.layout.domains,
        "tables": sorted(estimator.schema.tables),
        "columns": _schema_columns(estimator.schema),
        "snapshot": {
            "data_version": int(estimator.data_version),
            "n_rows": {
                name: int(table.n_rows)
                for name, table in sorted(estimator.schema.tables.items())
            },
            "tuples_seen": (
                int(estimator.train_result.tuples_seen)
                if estimator.train_result is not None
                else 0
            ),
        },
        "checksum": {
            "algorithm": "crc32",
            "params": _params_crc(sorted(arrays.items())),
        },
    }
    final = _npz_path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=final.parent or Path("."), prefix=f".{final.name}.", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, __meta__=np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ), **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        from repro.serving import faults  # chaos seam; no-op unless installed

        injector = faults.get_active()
        if injector is not None:
            injector.check("persistence.save")
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return final


def load_model(path: str | Path, schema: JoinSchema) -> NeuroCard:
    """Rebuild a fitted estimator from saved weights and a schema snapshot.

    The schema must be the same logical schema (same tables and column
    dictionaries) the estimator was trained on; join counts, the sampler and
    the inference layout are rebuilt from it. Incompatible schemas and
    configs are rejected with a :class:`PersistenceError` before any model
    is built or weights are read; truncated/corrupt archives and artifacts
    whose parameter CRC32 no longer matches ``__meta__`` (torn or
    bit-flipped writes) also raise :class:`PersistenceError`.
    """
    from repro.serving import faults  # chaos seam; no-op unless installed

    injector = faults.get_active()
    if injector is not None:
        injector.check("persistence.load")
    with _open_artifact(_npz_path(path)) as data:
        meta = _parse_meta(data)
        if sorted(schema.tables) != meta["tables"]:
            raise PersistenceError(
                "schema tables do not match the saved estimator: "
                f"{sorted(schema.tables)} != {meta['tables']}"
            )
        if "columns" in meta:
            _check_columns(schema, meta["columns"])
        config_dict = dict(meta["config"])
        config_dict["exclude_columns"] = tuple(config_dict["exclude_columns"])
        # Artifacts saved while kernel-mode knobs existed carry these keys.
        # They only ever held raw fp32 parameters, so whatever mode they
        # name, they load onto the compiled fp32 engine.
        config_dict.pop("quantization", None)
        config_dict.pop("compiled_inference", None)
        try:
            config = NeuroCardConfig(**config_dict)
            config.validate()
        except (TypeError, ValueError, TrainingError) as exc:
            raise PersistenceError(
                f"saved config is not compatible with this build: {exc}"
            ) from exc
        estimator = NeuroCard(schema, config)
        estimator.prepare()  # counts/sampler/layout, no weights yet
        if estimator.layout.domains != meta["domains"]:
            raise PersistenceError(
                "schema dictionaries do not match the saved estimator "
                "(column domains differ)"
            )
        model = estimator.training_model()  # the seeded skeleton
        params = model.parameters()
        keys = _ordered_param_keys(data.files)
        if len(keys) != len(params):
            raise PersistenceError("saved parameter count mismatch")
        try:
            saved_arrays = [(key, data[key]) for key in keys]
        except (zipfile.BadZipFile, zlib.error, ValueError, OSError) as exc:
            raise PersistenceError(
                f"artifact {path} has corrupt parameter data: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        checksum = meta.get("checksum")
        if checksum is not None and checksum.get("algorithm") == "crc32":
            actual = _params_crc(sorted(saved_arrays))
            if actual != int(checksum["params"]):
                raise PersistenceError(
                    f"artifact {path} failed its checksum (stored crc32 "
                    f"{int(checksum['params'])}, computed {actual}); the "
                    "write was torn or the file was corrupted"
                )
        for (key, saved), param in zip(saved_arrays, params):
            if saved.shape != param.value.shape:
                raise PersistenceError(f"shape mismatch for {param.name}")
            param.value[...] = saved
        estimator.data_version = int(
            meta.get("snapshot", {}).get("data_version", 0)
        )
    # The kernel table is derived state, never written to the artifact:
    # fold it from the loaded weights and serve it alone.
    return estimator.serve(CompiledResMADE.fold(model))


def read_snapshot_metadata(path: str | Path) -> dict:
    """The artifact's ``snapshot`` metadata without loading any weights.

    Returns ``{"data_version": int, "n_rows": {table: int}, "tuples_seen":
    int}`` (all-zero/empty for artifacts predating each field). The
    background refresher uses this to decide whether a saved model is
    already fresh enough for a live snapshot before paying a multi-second
    load.
    """
    with _open_artifact(_npz_path(path)) as data:
        meta = _parse_meta(data)
    snapshot = meta.get("snapshot", {})
    return {
        "data_version": int(snapshot.get("data_version", 0)),
        "n_rows": {k: int(v) for k, v in snapshot.get("n_rows", {}).items()},
        "tuples_seen": int(snapshot.get("tuples_seen", 0)),
    }
