"""Raw binary snapshot files.

Layout (all little-endian): 4-byte magic b"VPF1"; int32 d; int32 n_x, n_y,
n_z (unused dimensions 1); float64 L_x, L_y, L_z (unused 0); int32 field
count; per field an int32 name length and the UTF-8 name; then the field
payloads as contiguous float64 arrays in C order, one per name.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import ConfigError, SnapshotError

MAGIC = b"VPF1"

# the field names of the velocity components, one per axis
U_NAMES = ("u_x", "u_y", "u_z")

__all__ = ["SnapshotHeader", "write_snapshot", "read_snapshot",
           "write_state", "read_state", "MAGIC"]


@dataclass(frozen=True)
class SnapshotHeader:
    shape: Tuple[int, ...]
    lengths: Tuple[float, ...]


def write_snapshot(path, shape, lengths, fields: Dict[str, np.ndarray]) -> None:
    """Write the fields, each of the grid's shape, to path.  Every field is
    checked before the file is opened, so a bad one (ValueError) leaves
    no file behind and an existing file at path as it was."""
    shape = tuple(int(n) for n in shape)
    lengths = tuple(float(L) for L in lengths)
    d = len(shape)
    if d not in (1, 2, 3) or len(lengths) != d:
        raise ValueError("snapshot supports 1-3 dimensions")
    ns = shape + (1,) * (3 - d)
    Ls = lengths + (0.0,) * (3 - d)
    names = [name.encode("utf-8") for name in fields]
    arrays = [np.ascontiguousarray(np.asarray(data, dtype="<f8"))
              for data in fields.values()]
    for name, arr in zip(fields, arrays):
        if arr.shape != shape:
            raise ValueError(f"field {name!r} shape {arr.shape} != {shape}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<i", d))
        fh.write(struct.pack("<3i", *ns))
        fh.write(struct.pack("<3d", *Ls))
        fh.write(struct.pack("<i", len(fields)))
        for raw in names:
            fh.write(struct.pack("<i", len(raw)))
            fh.write(raw)
        for arr in arrays:
            fh.write(arr.tobytes())


def read_snapshot(path):
    """Returns (SnapshotHeader, {name: array}).  A file that is not VPF1,
    is cut short, holds impossible header values or a field name that is
    not UTF-8 raises SnapshotError."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def read(n):
            # checked before reading, so a corrupt size allocates nothing
            if not 0 <= n <= file_size - fh.tell():
                raise SnapshotError(f"{path}: truncated or corrupt VPF1 "
                                    f"snapshot ({file_size} bytes)")
            return fh.read(n)

        def unpack(fmt):
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        if read(4) != MAGIC:
            raise SnapshotError(f"{path}: not a VPF1 snapshot")
        head = unpack("<4i3di")
        d, ns, Ls, count = head[0], head[1:4], head[4:7], head[7]
        shape = ns[:d]
        if d not in (1, 2, 3) or min(shape) < 1 or count < 0:
            raise SnapshotError(f"{path}: impossible VPF1 header (d={d}, "
                                f"sizes={ns}, field count={count})")
        names = []
        for _ in range(count):
            (ln,) = unpack("<i")
            raw = read(ln)
            try:
                names.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise SnapshotError(f"{path}: field name {raw!r} is not "
                                    "UTF-8") from None
        size = math.prod(shape)
        fields = {name: np.frombuffer(read(8 * size), dtype="<f8")
                  .reshape(shape).copy() for name in names}
    return SnapshotHeader(shape=shape, lengths=Ls[:d]), fields


def write_state(path, state) -> None:
    """One file per state: phi, q, velocity components, p, mu."""
    grid = state.grid
    fields = {"phi": state.phi, "q": state.q}
    fields.update(zip(U_NAMES, state.u))
    fields["p"] = state.p
    fields["mu"] = state.mu
    write_snapshot(path, grid.shape, grid.lengths, fields)


def read_state(path, grid):
    """(phi, q, u) on grid from the snapshot at path, q and u zero where
    it has none.  ConfigError unless its grid has grid's shape and
    lengths; SnapshotError unless it holds phi and, if any velocity
    component, all of them."""
    snap_grid, fields = read_snapshot(path)
    if (snap_grid.shape, snap_grid.lengths) != (grid.shape, grid.lengths):
        raise ConfigError(
            f"{path}: snapshot grid {snap_grid.shape} with lengths "
            f"{snap_grid.lengths} does not match the configured grid "
            f"{grid.shape} with lengths {grid.lengths}")
    u_names = U_NAMES[:grid.d]
    has_u = any(name in fields for name in u_names)
    for name in ("phi",) + (u_names if has_u else ()):
        if name not in fields:
            raise SnapshotError(
                f"{path}: snapshot has no {name!r} field "
                f"(fields: {', '.join(fields) or 'none'})")
    q = fields.get("q", np.zeros(grid.shape))
    u = (np.stack([fields[name] for name in u_names]) if has_u
         else np.zeros((grid.d,) + grid.shape))
    return fields["phi"], q, u
