"""Incremental (time-windowed) page source.

Analog of the reference's OAI-PMH windowed harvest: ``list_records(from,
until)`` with resumption-token paging and daily cron re-harvest
(/root/reference/lib/oaiclient.rb:28-109, scheduler.rb:212-273, 327-350).

Ray Data reformulation: the pages table is partitioned by crawl time
(``warc_ts``); an incremental run filters the window AT THE READ (parquet
row-group statistics prune untouched files) and flows through the same
pipeline; re-running a window recomputes its output partitions via the
lineage manifests (stages/materialize.py) instead of delete+re-insert
(sparql_update.rb:17-21).
"""

from __future__ import annotations

import datetime as _dt
from typing import Optional

# The smallest pages read block worth its own extraction task (~40 pages of
# ~6.7 KB).  Read -> extract -> write at 4 CPUs, median of 3: 400 pages
# (2.7 MB) take 1.12 s in 1 block, 0.67 s in 4, 0.73 s in 8 and 0.96 s in
# 16 (168 KB each); 40 and 120 pages take the same in 1 to 8 blocks.  A
# smaller block only adds checkpoint files that every later read opens.
MIN_READ_BLOCK_BYTES = 256 << 10


def _to_ts(x) -> Optional[_dt.datetime]:
    if x is None:
        return None
    if isinstance(x, _dt.datetime):
        return x
    if isinstance(x, _dt.date):
        return _dt.datetime(x.year, x.month, x.day)
    return _dt.datetime.fromisoformat(str(x))


def two_blocks_per_cpu(at_least: int = 0) -> tuple[int, int]:
    """``(blocks, cpus)``: two read blocks per cluster CPU, and at least
    ``at_least``.  Two per CPU keeps every CPU busy while a slow block
    finishes; more start extra Ray workers and raise peak memory."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(at_least, 2 * cpus), cpus


def byte_balanced_groups(sizes: list[int], num_groups: int) -> list[list[int]]:
    """Indices of ``sizes`` in ``num_groups`` groups with the lengths of
    ``np.array_split``'s chunks, filled largest first, each into the
    lightest group that has room (ties to the lower index), so the groups'
    byte sums come out about equal.  Deterministic for given sizes."""
    import numpy as np

    caps = [len(c) for c in np.array_split(np.arange(len(sizes)), num_groups)]
    groups: list[list[int]] = [[] for _ in caps]
    loads = [0] * len(caps)
    for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        g = min(
            (g for g in range(len(caps)) if len(groups[g]) < caps[g]),
            key=lambda g: (loads[g], g),
        )
        groups[g].append(i)
        loads[g] += sizes[i]
    return groups


def balanced_read_order(
    fs, files: list[str], num_blocks: int
) -> tuple[list[str], list[int]]:
    """``files`` ordered for ``read_parquet(..., override_num_blocks=
    num_blocks)``, and the bytes each of its read tasks then reads.

    Ray's parquet read splits its file list into ``num_blocks``
    contiguous groups of equal file COUNT, one read task each
    (``np.array_split`` in ``ParquetDatasource.get_read_tasks``, Ray
    2.49).  A checkpoint list of a few large extraction files, then
    tiny pk=1 and sameAs files, would give one task most of the bytes;
    listing :func:`byte_balanced_groups` one group after another gives
    every task about the same bytes instead.  The sizes come from one
    batched stat (``fsio.file_sizes``)."""
    from ..state import fsio

    sizes = fsio.file_sizes(fs, files)
    groups = byte_balanced_groups(sizes, num_blocks)
    order = [files[i] for g in groups for i in g]
    return order, [sum(sizes[i] for i in g) for g in groups if g]


def pages_read_blocks(files: list[str]) -> tuple[int, int]:
    """``(blocks, cpus)`` for reading the pages ``files`` to extract them,
    one task per block: :func:`two_blocks_per_cpu`, at least one per file,
    but no block under ``MIN_READ_BLOCK_BYTES`` of pages parquet, so a
    small input (a merge window) is not fanned out into tiny tasks."""
    from ..state import fsio

    blocks, cpus = two_blocks_per_cpu(len(files))
    by_size = -(-fsio.total_size(files) // MIN_READ_BLOCK_BYTES)
    return max(1, min(blocks, by_size)), cpus


def read_pages_window(
    path: str,
    since=None,
    until=None,
    columns: Optional[list[str]] = None,
):
    """read_parquet with a ``warc_ts`` window pushed into the scan.

    Default window = yesterday -> today when both bounds are None with
    ``default_daily=True`` semantics left to the caller (the reference
    defaults from=yesterday, until=today, oaiclient.rb:29-30).

    Read in :func:`pages_read_blocks` blocks of the whole pages path (the
    window filter prunes row groups, not files), so the flagship extracts
    it in as many tasks as the path itself.
    """
    import pyarrow.compute as pc
    import ray.data as rd

    from ..state.manifest import list_input_files

    since_ts, until_ts = _to_ts(since), _to_ts(until)
    flt = None
    if since_ts is not None:
        flt = pc.field("warc_ts") >= pc.scalar(since_ts)
    if until_ts is not None:
        upper = pc.field("warc_ts") < pc.scalar(until_ts)
        flt = upper if flt is None else (flt & upper)
    kwargs = {}
    if columns:
        kwargs["columns"] = columns
    if flt is not None:
        kwargs["filter"] = flt  # row-group pushdown (prune at the read)
    blocks, _ = pages_read_blocks(list_input_files(path))
    return rd.read_parquet(path, override_num_blocks=blocks, **kwargs)


def daily_window(today=None) -> tuple[_dt.datetime, _dt.datetime]:
    """The reference's default harvest window: yesterday -> today."""
    today = _to_ts(today) or _dt.datetime.now()
    start = _dt.datetime(today.year, today.month, today.day) - _dt.timedelta(days=1)
    return start, start + _dt.timedelta(days=1)
