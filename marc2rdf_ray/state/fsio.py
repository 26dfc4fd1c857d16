"""pyarrow.fs-routed IO for sinks, checkpoints and manifests.

On a multi-node cluster the materialize/resume paths run inside WORKER
tasks: plain ``open()`` / ``os.listdir`` against a driver-local path
silently writes to different machines unless a shared POSIX mount exists
(VERDICT r2 'What's missing #1'; the reference's store was
network-reachable by construction -- Virtuoso over HTTP,
/root/reference/lib/sparql_update.rb:100-110).  Everything here goes
through one ``pyarrow.fs.FileSystem`` interface instead, so the same code
runs against a local directory, an S3/GCS bucket (``s3://...`` URI), or a
``SubTreeFileSystem`` standing in for a remote root in tests.

Atomicity contract:
- local filesystems: temp file + ``move`` (POSIX rename) -- same guarantee
  the engine always had;
- object stores: a direct single write -- an object PUT is already atomic
  at object granularity (no partial objects become visible), so the
  marker-file-written-LAST protocol holds there too.
"""

from __future__ import annotations

import os
import posixpath

from pyarrow import fs as pafs

_PARQUET_SUFFIXES = (".parquet", ".pq")


def resolve_fs(path: str, filesystem=None) -> tuple:
    """-> (FileSystem, normalized path).

    An explicit ``filesystem`` wins (path passed through verbatim); a
    ``scheme://`` URI resolves via ``FileSystem.from_uri``; anything else
    is a local path."""
    if filesystem is not None:
        return filesystem, str(path)
    p = str(path)
    if "://" in p:
        return pafs.FileSystem.from_uri(p)
    return pafs.LocalFileSystem(), os.path.abspath(p)


def is_local(fs) -> bool:
    if isinstance(fs, pafs.SubTreeFileSystem):
        return is_local(fs.base_fs)
    return isinstance(fs, pafs.LocalFileSystem)


def join(*parts: str) -> str:
    return posixpath.join(*parts)


def exists(fs, path: str) -> bool:
    return fs.get_file_info(path).type != pafs.FileType.NotFound


def isdir(fs, path: str) -> bool:
    return fs.get_file_info(path).type == pafs.FileType.Directory


def isfile(fs, path: str) -> bool:
    return fs.get_file_info(path).type == pafs.FileType.File


def listdir(fs, path: str) -> list[str]:
    """Immediate child NAMES (files and dirs), [] if path is absent."""
    sel = pafs.FileSelector(path, recursive=False, allow_not_found=True)
    return sorted(
        posixpath.basename(i.path.rstrip("/")) for i in fs.get_file_info(sel)
    )


def list_files_recursive(
    fs, path: str, suffixes: tuple = _PARQUET_SUFFIXES
) -> list[str]:
    sel = pafs.FileSelector(path, recursive=True, allow_not_found=True)
    return sorted(
        i.path
        for i in fs.get_file_info(sel)
        if i.type == pafs.FileType.File and i.path.endswith(suffixes)
    )


def makedirs(fs, path: str) -> None:
    fs.create_dir(path, recursive=True)


def rmtree(fs, path: str) -> None:
    try:
        fs.delete_dir(path)
    except (FileNotFoundError, OSError):
        pass


def delete_file(fs, path: str) -> None:
    try:
        fs.delete_file(path)
    except (FileNotFoundError, OSError):
        pass


def read_text(fs, path: str):
    """File contents as str, or None if absent/unreadable."""
    try:
        with fs.open_input_stream(path) as f:
            return f.read().decode()
    except (FileNotFoundError, OSError):
        return None


def write_bytes_atomic(fs, path: str, payload: bytes) -> None:
    """See the module docstring's atomicity contract."""
    if is_local(fs):
        tmp = path + ".tmp"
        with fs.open_output_stream(tmp, compression=None) as f:
            f.write(payload)
        fs.move(tmp, path)
    else:  # object store: single PUT is atomic
        with fs.open_output_stream(path, compression=None) as f:
            f.write(payload)


def write_text_atomic(fs, path: str, text: str) -> None:
    write_bytes_atomic(fs, path, text.encode())


def file_sizes(fs, paths: list[str]) -> list[int]:
    """Byte size of each of ``paths`` on ``fs``, in order, from one
    batched ``get_file_info`` call (one round trip on an object store);
    a missing entry counts 0."""
    return [
        i.size if i.type == pafs.FileType.File and i.size is not None else 0
        for i in fs.get_file_info(paths)
    ]


def total_size(paths: list[str], filesystem=None) -> int:
    """Total byte size of the given files (missing/unstattable entries
    count 0) -- the shared input-size estimator for shard sizing
    (stages/materialize.choose_shards callers).  Resolves each path
    independently so mixed local/URI lists work; pass ``filesystem`` to
    stat them all through one FS (object stores: when the FS is already
    resolved, ``sum(file_sizes(fs, paths))`` stats them in one batch)."""
    total = 0
    for p in paths:
        try:
            fs, fp = resolve_fs(p, filesystem)
            info = fs.get_file_info(fp)
            if info.type == pafs.FileType.File and info.size is not None:
                total += info.size
        except OSError:
            pass
    return total
