"""Data tier: columnar base tables, datasets, and file loading.

The execution tier (:mod:`repro.exec`) consumes these through the
scan-source protocol (``as_batch()`` / ``to_relation()``); the
optimizer consumes them through measured :class:`~repro.sql.catalog.TableStats`.
"""

from repro import lazy_exports

# lazily: a process that only validates a --dataset spec (a serving
# front) must not load the tables, whose columns bring numpy along
__getattr__ = lazy_exports(__name__, {
    "ColumnTable": "repro.data.tables",
    "Dataset": "repro.data.tables",
    "HAVE_PYARROW": "repro.data.loader",
    "dataset_from_spec": "repro.data.provision",
    "load_csv": "repro.data.loader",
    "load_dataset_into": "repro.data.loader",
    "load_directory": "repro.data.loader",
    "load_file": "repro.data.loader",
    "load_parquet": "repro.data.loader",
    "write_csv": "repro.data.loader",
})

__all__ = [
    "ColumnTable",
    "Dataset",
    "HAVE_PYARROW",
    "dataset_from_spec",
    "load_csv",
    "load_dataset_into",
    "load_directory",
    "load_file",
    "load_parquet",
    "write_csv",
]
