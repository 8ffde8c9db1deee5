import struct

import numpy as np
import pytest

from viscophase.cli import main
from viscophase.dynamics import SimConfig, build_grid, build_material, make_state
from viscophase.errors import SnapshotError
from viscophase.snapshots import (read_snapshot, read_state, write_snapshot,
                                  write_state)


@pytest.mark.parametrize("shape,lengths", [
    ((8,), (1.0,)),
    ((8, 12), (1.0, 2.0)),
    ((4, 6, 8), (1.0, 1.5, 2.0)),
])
def test_round_trip(tmp_path, shape, lengths):
    rng = np.random.default_rng(0)
    fields = {"phi": rng.standard_normal(shape), "q": rng.standard_normal(shape)}
    path = tmp_path / "snap.vpf"
    write_snapshot(path, shape, lengths, fields)
    header, back = read_snapshot(path)
    assert header.shape == shape
    assert header.lengths == lengths
    for name in fields:
        np.testing.assert_array_equal(back[name], fields[name])


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.vpf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_snapshot(path)


def _valid_snapshot(path):
    write_snapshot(path, (4, 6), (1.0, 1.5),
                   {"phi": np.full((4, 6), 0.1), "q": np.zeros((4, 6))})
    return path.read_bytes()


def test_truncated_file(tmp_path):
    raw = _valid_snapshot(tmp_path / "full.vpf")
    header = 4 + 4 + 12 + 24 + 4
    # empty; inside magic, d, sizes, lengths and count; after the header;
    # inside a name length and a name; at, inside and at the end of the
    # first payload; inside the last payload
    first = header + 4 + 3 + 4 + 1
    for cut in (0, 2, 6, 15, 30, 46, header, header + 2, header + 5,
                header + 9, first, first + 17, first + 8 * 24,
                len(raw) - 100, len(raw) - 1):
        path = tmp_path / f"cut{cut}.vpf"
        path.write_bytes(raw[:cut])
        with pytest.raises(SnapshotError, match=f"cut{cut}.vpf"):
            read_snapshot(path)


@pytest.mark.parametrize("offset,value", [
    (4, 4),             # d outside 1-3
    (4, 0),
    (8, 0),             # n_x = 0
    (12, -3),           # n_y < 0
    (44, -1),           # negative field count
    (48, -2),           # negative name length
    (8, 2**31 - 1),     # a size no file of this length can hold
])
def test_impossible_header(tmp_path, offset, value):
    raw = bytearray(_valid_snapshot(tmp_path / "full.vpf"))
    raw[offset:offset + 4] = struct.pack("<i", value)
    path = tmp_path / "bad.vpf"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="bad.vpf"):
        read_snapshot(path)


def test_truncated_init_snapshot_exit_2(tmp_path):
    raw = _valid_snapshot(tmp_path / "full.vpf")
    path = tmp_path / "cut.vpf"
    path.write_bytes(raw[:len(raw) // 2])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"grid.shape = 4,6\ntime.steps = 1\n"
                   f"init.kind = from-snapshot\ninit.path = {path}\n")
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def _run_from_snapshot(tmp_path, path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"grid.shape = 4,6\ngrid.lengths = 1.0,1.5\n"
                   f"time.steps = 1\ninit.kind = from-snapshot\n"
                   f"init.path = {path}\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


def test_valid_init_snapshot_runs(tmp_path, capsys):
    path = tmp_path / "ok.vpf"
    _valid_snapshot(path)
    assert _run_from_snapshot(tmp_path, path, capsys)[0] == 0


def test_non_utf8_field_name_exit_2(tmp_path, capsys):
    raw = bytearray(_valid_snapshot(tmp_path / "full.vpf"))
    raw[52] = 0xff                          # first byte of the name "phi"
    path = tmp_path / "badname.vpf"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="badname.vpf"):
        read_snapshot(path)
    code, err = _run_from_snapshot(tmp_path, path, capsys)
    assert code == 2 and "badname.vpf" in err
    assert not (tmp_path / "o").exists()


def test_snapshot_without_phi_exit_2(tmp_path, capsys):
    path = tmp_path / "nophi.vpf"
    write_snapshot(path, (4, 6), (1.0, 1.5), {"q": np.zeros((4, 6))})
    code, err = _run_from_snapshot(tmp_path, path, capsys)
    assert code == 2 and "nophi.vpf" in err and "fields: q" in err
    assert not (tmp_path / "o").exists()


def test_snapshot_with_partial_velocity_exit_2(tmp_path, capsys):
    path = tmp_path / "halfu.vpf"
    write_snapshot(path, (4, 6), (1.0, 1.5),
                   {"phi": np.full((4, 6), 0.1), "u_x": np.zeros((4, 6))})
    code, err = _run_from_snapshot(tmp_path, path, capsys)
    assert code == 2 and "halfu.vpf" in err and "'u_y'" in err
    assert not (tmp_path / "o").exists()


def test_restart_continues_source_run(tmp_path):
    # the restart's first diagnostics row is the source's last state: phi,
    # q and u all come from the snapshot
    src, restart = tmp_path / "src", tmp_path / "restart"
    base = ["--override", "grid.shape=16,16", "--override", "run.seed=4"]
    assert main(["run", "--out", str(src), "--override", "time.steps=200"]
                + base) == 0
    snap = src / "snapshots" / "state_000200.vpf"
    assert main(["run", "--out", str(restart), "--override", "time.steps=1",
                 "--override", "init.kind=from-snapshot",
                 "--override", f"init.path={snap}"] + base) == 0
    last = np.genfromtxt(src / "diagnostics.csv", delimiter=",",
                         names=True)[-1]
    first = np.genfromtxt(restart / "diagnostics.csv", delimiter=",",
                          names=True)[0]
    assert last["E_bulk"] > 0.0 and last["E_kin"] > 0.0
    for name in last.dtype.names:
        if name != "t":
            assert first[name] == last[name], name


def test_snapshot_lengths_mismatch_exit_2(tmp_path, capsys):
    path = tmp_path / "long.vpf"
    write_snapshot(path, (4, 6), (3.0, 2.0), {"phi": np.full((4, 6), 0.1)})
    code, err = _run_from_snapshot(tmp_path, path, capsys)
    assert code == 2 and "long.vpf" in err and "(3.0, 2.0)" in err
    assert not (tmp_path / "o").exists()


def test_shape_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "x.vpf", (4, 4), (1.0, 1.0),
                       {"phi": np.zeros((4, 5))})


def test_shape_mismatch_writes_nothing(tmp_path):
    # the bad field comes after a good one, so a check made while writing
    # would already have written the header, the names and phi's payload
    bad = {"phi": np.zeros((4, 4)), "q": np.zeros((3, 4))}
    path = tmp_path / "new.vpf"
    with pytest.raises(ValueError, match="'q'"):
        write_snapshot(path, (4, 4), (1.0, 1.0), bad)
    assert not path.exists()
    path = tmp_path / "good.vpf"
    write_snapshot(path, (4, 4), (1.0, 1.0),
                   {"phi": np.full((4, 4), 0.25), "q": np.ones((4, 4))})
    raw = path.read_bytes()
    with pytest.raises(ValueError, match="'q'"):
        write_snapshot(path, (4, 4), (1.0, 1.0), bad)
    assert path.read_bytes() == raw


def test_write_state(tmp_path):
    cfg = SimConfig(shape=(8, 8), steps=1)
    grid = build_grid(cfg)
    M = build_material(cfg)
    state = make_state(0.0, np.full(grid.shape, 0.3), np.full(grid.shape, 0.0),
                       np.zeros((grid.d,) + grid.shape),
                       np.full(grid.shape, 0.0), M, grid)
    path = tmp_path / "state.vpf"
    write_state(path, state)
    header, fields = read_snapshot(path)
    assert set(fields) == {"phi", "q", "u_x", "u_y", "p", "mu"}
    np.testing.assert_array_equal(fields["phi"], state.phi)
    np.testing.assert_allclose(fields["mu"], state.mu)


def test_read_state_round_trip(tmp_path):
    grid = build_grid(SimConfig(shape=(8, 6), lengths=(1.0, 2.0)))
    rng = np.random.default_rng(1)
    phi, q = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    u = rng.standard_normal((grid.d,) + grid.shape)
    path = tmp_path / "state.vpf"
    write_snapshot(path, grid.shape, grid.lengths,
                   {"phi": phi, "q": q, "u_x": u[0], "u_y": u[1]})
    for got, want in zip(read_state(path, grid), (phi, q, u)):
        np.testing.assert_array_equal(got, want)
    # a snapshot of phi alone starts at rest with no stress
    write_snapshot(path, grid.shape, grid.lengths, {"phi": phi})
    got_phi, got_q, got_u = read_state(path, grid)
    np.testing.assert_array_equal(got_phi, phi)
    assert not got_q.any() and got_u.shape == u.shape and not got_u.any()
