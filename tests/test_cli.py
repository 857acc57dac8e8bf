"""Config parsing, the command verbs, manifests, and run determinism."""

import filecmp
import hashlib
import json
import os

import numpy as np
import pytest

from khatom import cli
from khatom.cli import CliError, load_config, validate_config
from khatom.core import WaveFunction
from khatom.observables import read_series
from khatom.phasespace import REALITY_TOL, read_wigner
from khatom.propagator import read_snapshot, write_snapshot

RECIPES = ("fig1", "fig2ab", "fig2b", "fig3", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8")

MINI_CFG = """\
run.mode = kh_averaged
run.initial = kh_coherent
run.t_final = 30.0
run.absorber = off
run.snapshots = 15, 30
restart.at = 15.0
restart.t_final = 45.0
restart.snapshots = 30, 45
restart.absorber = off
wigner.times = snapshots
portrait.energies = auto
emit.potential = true
emit.eigen = true
"""


@pytest.fixture(scope="module")
def mini_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    path.write_text(MINI_CFG)
    return str(path)


@pytest.fixture(scope="module")
def mini_run(mini_cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_run")
    assert cli.main(["run", mini_cfg_path, "--out", str(out)]) == 0
    return out


def test_config_defaults():
    cfg = load_config()
    assert cfg["grid.n_points"] == 16384
    assert cfg["pulse.intensity_wcm2"] == 5.7e13
    assert cfg["pulse.eps0"] is None
    assert cfg["kh.alpha0"] == 10.23
    assert cfg["run.dt"] == 0.05
    assert cfg["run.cadence"] == 20
    assert cfg["run.mode"] == "lab_full"
    assert cfg["run.snapshots"] == ()
    assert cfg["wigner.times"] == "none"
    validate_config(cfg)


def test_config_file_and_override(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("run.dt = 0.1\nrun.snapshots = 1, 2.5\n# comment\n")
    cfg = load_config(str(path), ["run.dt=0.2"])
    assert cfg["run.dt"] == 0.2  # override wins over the file
    assert cfg["run.snapshots"] == (1.0, 2.5)
    assert "run.dt" in cfg.explicit and "run.cadence" not in cfg.explicit


def test_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("run.dt = 0.05\n# comment\nrun.cadence = 10\nrun.dt = 0.1\n")
    with pytest.raises(CliError, match=r"a.cfg:4: run.dt is already set on line 1"):
        load_config(str(path))


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("grid.points = 12\n")
    with pytest.raises(CliError, match="unknown config key"):
        load_config(str(path))


def test_config_rejects_bad_values():
    with pytest.raises(CliError, match="bad value"):
        load_config(overrides=["run.dt=fast"])
    with pytest.raises(CliError, match="bad value"):
        load_config(overrides=["run.snapshots=1;2"])
    with pytest.raises(CliError, match="bad value"):
        load_config(overrides=["wigner.states=kh_ground,mystery"])
    with pytest.raises(CliError):
        load_config(overrides=["run.mode=adiabatic"])


def test_validate_rejects_bad_combinations():
    with pytest.raises(CliError, match="not both"):
        validate_config(load_config(overrides=["pulse.eps0=0.04", "pulse.intensity_wcm2=5.7e13"]))
    with pytest.raises(CliError, match="snapshot file not found"):
        validate_config(load_config(overrides=["run.initial=/no/such/state.snap"]))
    with pytest.raises(CliError, match="restart.at"):
        validate_config(load_config(overrides=["restart.at=10", "restart.t_final=20"]))
    with pytest.raises(CliError, match="positive"):
        validate_config(load_config(overrides=["run.dt=-0.05"]))


def test_wigner_times_must_name_a_snapshot(tmp_path, capsys):
    with pytest.raises(CliError, match="wigner.times entry 7 matches no"):
        validate_config(load_config(overrides=["run.snapshots=5", "wigner.times=5, 7"]))
    # restart snapshots count only when there is a restart
    restart = ["run.snapshots=5", "restart.snapshots=7", "wigner.times=7"]
    with pytest.raises(CliError, match="wigner.times entry 7"):
        validate_config(load_config(overrides=restart))
    validate_config(load_config(overrides=restart + ["restart.at=5", "restart.t_final=9"]))
    validate_config(load_config(overrides=["run.snapshots=5", "wigner.times=5.0000001"]))
    for keyword in ("none", "snapshots"):
        validate_config(load_config(overrides=[f"wigner.times={keyword}"]))
    # the verb fails before any solve, and before its output directory exists
    out = tmp_path / "out"
    argv = ["propagate", "--override", "run.snapshots=5", "--override", "wigner.times=7"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "khatom: [cli] wigner.times entry 7" in capsys.readouterr().err
    assert not out.exists()


def test_all_recipes_load_and_validate():
    for name in RECIPES:
        cfg = load_config(cli._recipe_path(name))
        validate_config(cfg)


def test_potential_verb(tmp_path):
    assert cli.main(["potential", "--out", str(tmp_path)]) == 0
    bare = np.loadtxt(tmp_path / "potential_bare.dat")
    avg = np.loadtxt(tmp_path / "potential_averaged.dat")
    assert bare.shape == avg.shape and bare.shape[1] == 2
    # dressed well is shallower than the bare one and has an interior barrier
    assert avg[:, 1].min() > bare[:, 1].min()
    mid = np.argmin(np.abs(avg[:, 0]))
    assert avg[mid, 1] > avg[:, 1].min()


def test_field_verb(tmp_path):
    assert cli.main(["field", "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "field.dat")
    assert table.shape[1] == 4
    assert table[0, 0] == 0.0 and abs(table[-1, 0] - 1200.0) < 1.0
    assert abs(table[-1, 2]) < 1e-6 and abs(table[-1, 3]) < 1e-4
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["residuals"]["field_endpoint_a"] < 1e-6


def test_eigen_verb(tmp_path):
    assert cli.main(["eigen", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "eigen_energies.txt").read_text()
    table = dict(line.split(" = ") for line in text.strip().splitlines())
    assert abs(float(table["e_atomic"]) + 0.0277) < 5e-4
    assert abs(float(table["e_kh_0"]) + 0.0110) < 5e-4
    assert float(table["e_kh_1"]) > float(table["e_kh_0"])
    dens = np.loadtxt(tmp_path / "kh_state_0.dat")
    assert abs(np.trapezoid(dens[:, 1], dens[:, 0]) - 1.0) < 1e-3


def test_portrait_verb(tmp_path):
    assert cli.main(["portrait", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "portrait.dat").read_text().splitlines()
    kinds = {ln.split("kind=")[1] for ln in lines if "kind=" in ln}
    assert kinds == {"separatrix", "regular"}
    rows = np.array(
        [[float(v) for v in ln.split()] for ln in lines if ln and not ln.startswith("#")]
    )
    assert np.max(np.abs(rows[:, 0])) <= 60.0
    assert np.max(np.abs(rows[:, 1])) < 0.3


def test_mini_run_outputs(mini_run, grid):
    manifest = json.loads((mini_run / "manifest.json").read_text())
    assert manifest["status"] == "complete" and manifest["error"] is None
    assert manifest["recipe"] == "mini"
    for name, digest in manifest["files"].items():
        path = mini_run / name
        assert path.exists(), name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # restart branch rejoins the primary run exactly at the shared time
    assert manifest["files"]["snapshot_t30.snap"] == manifest["files"]["restart_snapshot_t30.snap"]
    series = read_series(mini_run / "observables.csv")
    assert series["t"][0] == 0.0 and series["t"][-1] == 30.0
    assert np.all(np.isnan(series["P_b"]))  # no atomic reference in this mode
    restarted = read_series(mini_run / "restart_observables.csv")
    assert restarted["t"][0] == 15.0 and restarted["t"][-1] == 45.0
    w = read_wigner(mini_run / "wigner_t15.wig")
    assert w.t == 15.0 and w.frame == "kh"
    snap = read_snapshot(mini_run / "snapshot_t15.snap")
    assert snap.grid == grid and abs(snap.norm() - 1.0) < 1e-9


def test_mini_run_wigner_records(mini_run):
    manifest = json.loads((mini_run / "manifest.json").read_text())
    records = manifest["wigner"]
    assert set(records) == {
        "wigner_t15.wig", "wigner_t30.wig", "restart_wigner_t30.wig", "restart_wigner_t45.wig",
    }
    for rec in records.values():
        assert rec["mass_deficit"] < 1e-3
        assert rec["high_p_fraction"] < 0.03
        assert rec["imag_residue"] < REALITY_TOL
    # per-panel normalization lives only in the text export
    txt = (mini_run / "wigner_t15.txt").read_text().splitlines()
    vals = np.array([float(ln.split()[2]) for ln in txt if ln and not ln.startswith("#")])
    assert np.max(vals) == 1.0
    exact = read_wigner(mini_run / "wigner_t15.wig")
    assert np.max(exact.values) < 1.0 / np.pi + 1e-3


def test_wigner_text_export_bytes(mini_run):
    # the row-wise text export writes the bytes of the per-element format
    w = read_wigner(mini_run / "wigner_t15.wig")
    scale = float(np.max(np.abs(w.values)))
    norm = w.values / scale
    lines = [
        "# normalized Wigner map: x p w/max|w|\n",
        f"# t={float(w.t)!r} frame={w.frame} scale={scale!r}\n",
    ]
    for i, x in enumerate(w.x):
        for j, p in enumerate(w.p):
            lines.append(f"{x:.6f} {p:.6f} {norm[i, j]:.8e}\n")
        lines.append("\n")
    assert "".join(lines).encode("ascii") == (mini_run / "wigner_t15.txt").read_bytes()


def test_run_determinism(mini_cfg_path, mini_run, tmp_path):
    assert cli.main(["run", mini_cfg_path, "--out", str(tmp_path)]) == 0
    names = sorted(os.listdir(mini_run))
    assert names == sorted(os.listdir(tmp_path))
    match, mismatch, errors = filecmp.cmpfiles(mini_run, tmp_path, names, shallow=False)
    assert mismatch == [] and errors == []
    assert set(match) == set(names)


def test_restart_rejects_frame_mismatch(tmp_path, kh_pairs, capsys):
    snap = tmp_path / "lab.snap"
    write_snapshot(snap, WaveFunction(kh_pairs[0].state.grid, kh_pairs[0].state.psi, 625.0, "lab"))
    code = cli.main([
        "restart", str(snap), "--out", str(tmp_path / "out"),
        "--override", "restart.t_final=630",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("khatom: [cli]") and "lab_to_kh" in err


def test_transform_then_restart(tmp_path, kh_pairs):
    snap = tmp_path / "lab.snap"
    write_snapshot(snap, WaveFunction(kh_pairs[0].state.grid, kh_pairs[0].state.psi, 625.0, "lab"))
    assert cli.main(["transform", str(snap), "--out", str(tmp_path)]) == 0
    kh_snap = tmp_path / "lab_kh.snap"
    moved = read_snapshot(kh_snap)
    assert moved.frame == "kh" and moved.t == 625.0
    out = tmp_path / "continued"
    code = cli.main([
        "restart", str(kh_snap), "--out", str(out),
        "--override", "restart.t_final=626", "--override", "restart.absorber=off",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parent"]["t"] == 625.0
    series = read_series(out / "observables.csv")
    assert series["t"][0] == 625.0


def test_wigner_verb_rejects_lab_snapshot(tmp_path, kh_pairs, capsys):
    snap = tmp_path / "lab.snap"
    write_snapshot(snap, WaveFunction(kh_pairs[0].state.grid, kh_pairs[0].state.psi, 0.0, "lab"))
    assert cli.main(["wigner", str(snap), "--out", str(tmp_path / "w")]) == 1
    assert "transform" in capsys.readouterr().err


def test_failing_module_is_named(tmp_path, capsys):
    code = cli.main([
        "propagate", "--out", str(tmp_path),
        "--override", "run.mode=kh_averaged",
        "--override", "run.initial=kh_coherent",
        "--override", "run.t_final=10",
        "--override", "run.snapshots=500",  # beyond the time span
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("khatom: [propagator]")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["error"].startswith("propagator:")


@pytest.mark.parametrize("verb", ["wigner", "restart"])
def test_corrupt_snapshot_is_named(tmp_path, capsys, verb):
    snap = tmp_path / "bad.snap"
    snap.write_bytes(b"KHPS1 64.5 -20.0 20.0 nan kh\n" + b"\x00" * 64)
    args = [verb, str(snap), "--out", str(tmp_path / "out")]
    if verb == "restart":
        args += ["--override", "restart.t_final=30"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("khatom: [propagator]")
