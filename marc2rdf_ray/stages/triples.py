"""Rule-driven triple extraction stages (map_batches callables).

Two shapes:

- ``PageToTriples`` -- FUSED html -> triples in one stage.  Avoids shipping
  the nested field structs through the object store between two stages; at
  100 TB the fields column roughly doubles inter-stage bytes, so fusion is
  the default in the flagship pipeline.
- ``FieldsToTriples`` -- fields -> triples for pre-extracted field records
  (debug path, MARC-compat path).

Both are callable CLASSES: the rule set is compiled once per actor/worker in
``__init__`` (the reference re-reads the mapping per record, mapping.rb:8-25
-- deliberately not reproduced; SURVEY.md §2.4 T1).  They are cheap enough to
run as stateless tasks too (Ray serializes the constructed callable); the
flagship pipeline caches its fused stage per worker process so compiled
regexes amortize (pipelines/kg.py ``_STAGE_CACHE``).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import PipelineConfig
from ..model import TRIPLES_SCHEMA, Field, Record
from ..stages.extract import page_to_record


def triples_to_table(rows: list[tuple], srcs: list[str]) -> pa.Table:
    """(subj,pred,obj,kind,lang) tuples + per-row src -> Arrow triples table."""
    return pa.table(
        {
            "subj": pa.array([r[0] for r in rows], pa.string()),
            "pred": pa.array([r[1] for r in rows], pa.string()),
            "obj": pa.array([r[2] for r in rows], pa.string()),
            "obj_kind": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array([r[4] for r in rows], pa.string()),
            "src": pa.array(srcs, pa.string()),
        },
        schema=TRIPLES_SCHEMA,
    )


class PageToTriples:
    """pages batch (url, html, ...) -> triples batch.  Fused extract+convert."""

    def __init__(self, config: PipelineConfig):
        self.engine = config.build_engine()

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        rows: list[tuple] = []
        srcs: list[str] = []
        for url, html in zip(urls, htmls):
            rec, _ = page_to_record(url, html)
            triples = self.engine.convert(rec)
            rows.extend(triples)
            srcs.extend([url] * len(triples))
        return triples_to_table(rows, srcs)


class FieldsToTriples:
    """field-record batch (url, fields) -> triples batch."""

    def __init__(self, config: PipelineConfig):
        self.engine = config.build_engine()

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        fields_col = batch["fields"].to_pylist()
        rows: list[tuple] = []
        srcs: list[str] = []
        for url, fdicts in zip(urls, fields_col):
            rec = Record(
                fields=[Field.from_dict(d) for d in (fdicts or [])],
                record_id=url,
            )
            triples = self.engine.convert(rec)
            rows.extend(triples)
            srcs.extend([url] * len(triples))
        return triples_to_table(rows, srcs)
