"""Dataset provisioning: turn a ``--dataset`` spec into tables in memory.

One spec grammar shared by the serving tier and the CLI:

* ``tpch-sf<scale>`` — generate the deterministic scaled TPC-H dataset
  (:func:`repro.tpch.datagen.scaled_dataset`), e.g. ``tpch-sf0.01``.
  Generation is seeded per table, so every process that asks for the
  same spec holds byte-identical data — the serving tier's worker shards
  each provision their own copy and stay consistent without shipping
  rows over the wire.
* a directory path — load every ``.csv``/``.parquet`` file in it
  (:func:`repro.data.loader.load_directory`), one table per file.
"""

from __future__ import annotations

import os
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the tables bring numpy; validating a spec needs neither
    from repro.data.tables import Dataset

#: ``tpch-sf0.01`` / ``tpch-sf1`` — the generated-TPC-H spec form.
_TPCH_SPEC = re.compile(r"^tpch-sf(?P<scale>[0-9]*\.?[0-9]+)$")


def validate_dataset_spec(spec: str) -> str:
    """Check *spec*'s shape without provisioning anything (cheap, eager).

    Lets server configs reject a typo at construction time — provisioning
    itself (generation / file loading) stays deferred to the process that
    will actually serve the data.  Returns the normalised spec.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError("dataset spec must be a non-empty string")
    spec = spec.strip()
    match = _TPCH_SPEC.match(spec.lower())
    if match:
        scale = float(match.group("scale"))
        if not 0 < scale <= 1:
            raise ValueError(f"tpch-sf scale must be in (0, 1], got {scale:g}")
        return spec
    if os.path.isdir(spec):
        return spec
    raise ValueError(
        f"unknown dataset spec {spec!r} — use 'tpch-sf<scale>' (e.g. tpch-sf0.01) "
        "or a directory of .csv/.parquet files"
    )


def dataset_from_spec(spec: str) -> Dataset:
    """Resolve *spec* (``tpch-sf<scale>`` or a directory) into a Dataset."""
    spec = validate_dataset_spec(spec)
    match = _TPCH_SPEC.match(spec.lower())
    if match:
        from repro.tpch.datagen import scaled_dataset

        return scaled_dataset(float(match.group("scale")))
    from repro.data.loader import load_directory

    return load_directory(spec)
