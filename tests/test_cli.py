"""Config parsing, the command verbs, manifests, and run determinism."""

import filecmp
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from khatom import cli, propagator
from khatom.cli import CliError, load_config, validate_config
from khatom.core import SpatialGrid, TimeGrid, WaveFunction
from khatom.eigen import EigenError
from khatom.observables import read_series
from khatom.phasespace import REALITY_TOL, PhaseSpaceError, read_wigner
from khatom.potential import PotentialError
from khatom.propagator import read_snapshot, write_snapshot

RECIPES = ("fig1", "fig2ab", "fig2b", "fig3", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8")

MINI_CFG = """\
run.mode = kh_averaged
run.initial = kh_coherent
run.t_final = 30.0
run.snapshots = 15, 30
restart.at = 15.0
restart.t_final = 45.0
restart.snapshots = 30, 45
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
    assert cfg["kh.alpha0"] == 10.23
    assert cfg["run.dt"] == 0.05
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
    assert cfg["run.mode"] == "lab_full"  # set by neither: the default


def test_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("run.dt = 0.05\n# comment\nrun.mode = lab_full\nrun.dt = 0.1\n")
    with pytest.raises(CliError, match=r"a.cfg:4: run.dt is already set on line 1"):
        load_config(str(path))


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("grid.points = 12\n")
    with pytest.raises(CliError, match="unknown config key"):
        load_config(str(path))
    # keys the run works out itself: the start time of a named state, the
    # peak field from the intensity, the cycle-average node count from kh.alpha0
    for key in ("run.t0=0", "pulse.eps0=0.04", "kh.quadrature_n=256"):
        with pytest.raises(CliError, match=f"unknown config key: {key.split('=')[0]}"):
            load_config(overrides=[key])


def test_config_path_must_be_a_readable_file(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing.cfg"):
        out = str(tmp_path / "out")
        assert cli.main(["wigner", "any.snap", "--config", str(path), "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"khatom: [cli] cannot read config {path}")
        assert cli.main(["run", str(path), "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"khatom: [cli] unknown recipe {str(path)!r} (not a file, not a packaged recipe)\n")
    assert not (tmp_path / "out").exists()


def _run_with(out, *overrides, recipe=()):
    """Runs the recipe, if one is given, or the defaults, with the overrides."""
    argv = ["run", *recipe, "--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    return cli.main(argv)


def test_run_takes_its_config_as_its_argument(tmp_path):
    # run and wigner are the verbs; a run's config is its recipe or file,
    # not a --config flag that it would ignore
    assert set(cli.VERBS) == {"run", "wigner"}
    (tmp_path / "x.cfg").write_text("run.enabled = false\n")
    for argv in (["run", "fig1", "--config", str(tmp_path / "x.cfg")], ["eigen"]):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv + ["--out", str(tmp_path / "out")])
        assert stop.value.code == 2
    assert not (tmp_path / "out").exists()
    # the same keys in a file or as overrides of the defaults write the same
    # files; the manifest names the file as the recipe
    keys = ("grid.n_points=1024", "run.mode=kh_averaged", "run.initial=kh_coherent",
            "run.t_final=5", "run.snapshots=5", "wigner.times=snapshots", "emit.potential=true")
    path = tmp_path / "keys.cfg"
    path.write_text("".join(item.replace("=", " = ") + "\n" for item in keys))
    assert _run_with(tmp_path / "file", recipe=[str(path)]) == 0
    assert _run_with(tmp_path / "overrides", *keys) == 0
    names = _written(tmp_path / "file")
    assert names == _written(tmp_path / "overrides") and "wigner_t5.wig" in names
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "file", tmp_path / "overrides", names,
                                               shallow=False)
    assert mismatch == [] and errors == []
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text())
                 for d in ("file", "overrides")]
    assert [m.pop("recipe") for m in manifests] == ["keys", None]
    assert manifests[0] == manifests[1]


def test_recipe_name_beside_a_directory(tmp_path, monkeypatch):
    # the --out of an earlier run, named like the recipe, used to be opened
    # as its config (IsADirectoryError)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig1").mkdir()
    argv = ["run", "fig1", "--out", "out", "--override", "grid.n_points=1024",
            "--override", "emit.eigen=false"]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["recipe"] == "fig1" and manifest["status"] == "complete"
    assert _written(tmp_path / "out") == {"potential_bare.dat", "potential_averaged.dat"}


def test_non_finite_numbers_fail_at_load(tmp_path, capsys):
    # each used to end in a ValueError traceback, during the plan or after
    # the output directory was made, or (grid.x_max) to pass load_config
    base = ["run", "--override", "run.mode=kh_averaged", "--override",
            "run.initial=kh_ground", "--override", "grid.n_points=4096"]
    for override in ("run.t_final=nan", "run.snapshots=nan,5", "kh.alpha0=nan", "grid.x_max=inf"):
        out = tmp_path / "out"
        assert cli.main(base + ["--override", override, "--out", str(out)]) == 1
        key = override.split("=")[0]
        assert capsys.readouterr().err.startswith(f"khatom: [cli] bad value for {key}: "
                                                  "must be finite")
        assert not out.exists()


def test_config_rejects_bad_values():
    with pytest.raises(CliError, match="bad value"):
        load_config(overrides=["run.dt=fast"])
    with pytest.raises(CliError, match="bad value"):
        load_config(overrides=["run.snapshots=1;2"])
    with pytest.raises(CliError, match="bad value"):
        load_config(overrides=["wigner.states=kh_ground,mystery"])
    with pytest.raises(CliError):
        load_config(overrides=["run.mode=adiabatic"])
    # the range rules sit beside their keys, or in the object the keys build
    rules = [
        ("run.dt=0", "bad value for run.dt: must be positive, got '0'"),
        ("kh.alpha0=0", "bad value for kh.alpha0: must be positive, got '0'"),
        ("grid.x_max=-1500", "bad grid.* values: x_max must exceed x_min"),
        ("pulse.period=0", "bad pulse.* values: period must be positive"),
        ("pulse.total_cycles=0", "bad pulse.* values: need 0 < ramp < flat_end < total"),
        ("pulse.intensity_wcm2=none", "bad value for pulse.intensity_wcm2: expected a number"),
        ("pulse.intensity_wcm2=-5.7e13", "bad pulse.* values: intensity must be finite and at least 0"),
    ]
    for override, message in rules:
        with pytest.raises(CliError, match=re.escape(message)):
            load_config(overrides=["run.mode=kh_averaged", override])


def test_repeated_wigner_state_is_refused(tmp_path, capsys):
    # each name was mapped again and written over its own file, so the
    # manifest listed one map of two
    message = "bad value for wigner.states: kh_ground listed more than once"
    with pytest.raises(CliError, match=message):
        load_config(overrides=["wigner.states=kh_ground, kh_excited, kh_ground"])
    out = tmp_path / "out"
    overrides = ("run.enabled=false", "grid.n_points=1024", "wigner.states=kh_ground,kh_ground")
    assert _run_with(out, *overrides) == 1
    assert capsys.readouterr().err == f"khatom: [cli] {message}\n"
    assert not out.exists()


def test_config_defaults_parse_back():
    # every default, written as the manifest echoes it, passes its own key's rules
    def text(value):
        if value is None:
            return "none"
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    defaults = load_config()
    echoed = json.loads(json.dumps(cli._echo(defaults)))
    assert set(echoed) == set(cli.CONFIG_SPEC)
    for key, value in echoed.items():
        assert load_config(overrides=[f"{key}={text(value)}"])[key] == defaults[key], key


def test_validate_rejects_bad_combinations():
    with pytest.raises(CliError, match="snapshot file not found"):
        validate_config(load_config(overrides=["run.initial=/no/such/state.snap"]))
    with pytest.raises(CliError, match="restart.at"):
        validate_config(load_config(overrides=["restart.at=10", "restart.t_final=20"]))
    with pytest.raises(CliError, match="positive"):
        validate_config(load_config(overrides=["run.dt=-0.05"]))


def test_wigner_times_must_name_a_snapshot(tmp_path, capsys):
    # a run maps all of its snapshots or none, and the wigner verb maps a
    # chosen few with the same bytes: a list of times is refused at load,
    # as are another case of a keyword and an empty value
    for value in ("5", "5, 7", "Snapshots", "NONE", ""):
        message = f"wigner.times: expected one of ('none', 'snapshots'), got {value!r}"
        with pytest.raises(CliError, match=re.escape(f"bad value for {message}")):
            load_config(overrides=[f"wigner.times={value}"])
    # restart snapshots need a restart
    restart = ["run.snapshots=5", "restart.snapshots=7", "wigner.times=snapshots"]
    with pytest.raises(CliError, match="restart.snapshots needs restart.at"):
        validate_config(load_config(overrides=restart))
    validate_config(load_config(overrides=restart + ["restart.at=5", "restart.t_final=9"]))
    for keyword in ("none", "snapshots"):
        validate_config(load_config(overrides=[f"wigner.times={keyword}"]))
    # the verb fails before any solve, and before its output directory exists
    out = tmp_path / "out"
    argv = ["run", "--override", "run.snapshots=5", "--override", "wigner.times=5"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("khatom: [cli] bad value for wigner.times: ")
    assert not out.exists()


def test_snapshot_times_must_lie_in_the_run_span(tmp_path, capsys):
    def check(*overrides):
        validate_config(load_config(overrides=list(overrides)))

    # the primary span ends at run.t_final, or at the pulse end (1200) unset
    check("run.snapshots=0, 600, 1200")
    check("run.t_final=300", "run.snapshots=300")
    with pytest.raises(CliError, match=r"run.snapshots time 1250 lies outside the run span \[0, 1200\]"):
        check("run.snapshots=600, 1250")
    with pytest.raises(CliError, match=r"run.snapshots time 400 lies outside the run span \[0, 300\]"):
        check("run.t_final=300", "run.snapshots=400")
    with pytest.raises(CliError, match="run.snapshots time -5 lies outside"):
        check("run.snapshots=-5")
    # no primary run, no span to check
    check("run.enabled=false", "run.snapshots=5000")
    # the restart span is [restart.at, restart.t_final]
    restart = ["run.snapshots=15, 30", "restart.at=15", "restart.t_final=45"]
    check(*restart, "restart.snapshots=15, 45")
    with pytest.raises(CliError, match=r"restart.snapshots time 10 lies outside the run span \[15, 45\]"):
        check(*restart, "restart.snapshots=10, 30")
    with pytest.raises(CliError, match="restart.snapshots time 50 lies outside"):
        check(*restart, "restart.snapshots=50")
    # the verb fails before any solve, and before its output directory exists
    for extra in (["run.snapshots=1300"], restart + ["restart.snapshots=50"]):
        out = tmp_path / "out"
        argv = ["run", "--out", str(out)]
        for item in extra:
            argv += ["--override", item]
        assert cli.main(argv) == 1
        assert "snapshots time" in capsys.readouterr().err
        assert not out.exists()


def test_off_step_times_fail_before_any_solve(tmp_path, capsys):
    # a time between two steps would be stored at the nearest step: a
    # snapshot asked for at 12.34 was stored at 12.35, and a restart from it
    # failed only after the whole primary run
    base = ["grid.n_points=1024", "run.mode=kh_averaged", "run.initial=kh_coherent",
            "run.t_final=30"]
    restart = ["run.snapshots=15", "restart.at=15", "restart.t_final=30"]
    small = ["grid.x_min=-150", "grid.x_max=150"]
    cases = [
        (["run.snapshots=12.34"],
         "cli", "run.snapshots time 12.34 is not a whole number of run.dt = 0.05 steps from 0"),
        (["run.snapshots=12.34", "restart.at=12.34", "restart.t_final=20"],
         "cli", "restart.at time 12.34 is not a whole number of run.dt = 0.05 steps from 0"),
        (["run.snapshots=15", "restart.at=15", "restart.t_final=30.01"],
         "cli", "restart.t_final time 30.01 is not a whole number of run.dt = 0.05 steps from 15"),
        # a span with no step used to fail after the solves, as did the
        # grid and pulse rules that SpatialGrid and PulseParams own
        (["run.t_final=0"], "cli", "run.t_final 0 leaves no run.dt = 0.05 step after 0"),
        (["run.mode=lab_full", "pulse.ramp_cycles=30"],
         "cli", "bad pulse.* values: need 0 < ramp < flat_end < total cycles"),
        (["grid.n_points=1000"],
         "cli", "bad grid.* values: n_points must be a power of two >= 2, got 1000"),
        # a grid too small for a segment's absorber or for a planned map
        # used to fail after the solves and the propagation; every segment
        # absorbs that is not bound
        (["run.mode=lab_full", "grid.x_min=-500", "grid.x_max=500"],
         "propagator", "absorber inner width reaches the grid edge"),
        (restart + ["run.initial=atomic_ground", "grid.x_min=-500", "grid.x_max=500"],
         "propagator", "absorber inner width reaches the grid edge"),
        (["run.initial=atomic_ground", "grid.x_min=-500"],
         "propagator", "absorber inner width reaches the grid edge"),
        (small + ["run.snapshots=15", "wigner.times=snapshots"],
         "phasespace", "position window plus correlation reach exceeds the grid"),
        (small + ["run.enabled=false", "wigner.states=kh_ground"],
         "phasespace", "position window plus correlation reach exceeds the grid"),
        (["grid.x_min=-150", "run.enabled=false", "wigner.states=kh_ground"],
         "phasespace", "position window plus correlation reach exceeds the grid"),
        # the lag reach ends exactly 180 a.u. from the origin, and x_max is
        # not a sample point: a grid that ends there is one sample short
        (["grid.x_min=-180", "grid.x_max=180", "run.enabled=false", "wigner.states=kh_ground"],
         "phasespace", "position window plus correlation reach exceeds the grid"),
        # every map sample lies on a fine grid of step 0.5/k, which must
        # tile the grid's length; 3000.3 a.u. used to be mapped anyway
        (["grid.x_max=1500.3", "run.snapshots=15", "wigner.times=snapshots"],
         "phasespace", "grid length 3000.3 is not a whole number of the fine step 0.5 "
         "that holds every map position"),
        # a field step (half of run.dt) that does not divide the pulse used
        # to fail after the solves, where the field cache was built
        (["run.mode=lab_full", "run.dt=0.07", "run.t_final=700"],
         "laser", "dt_field must divide the pulse duration"),
        (["emit.field=true", "run.dt=0.07", "run.t_final=700"],
         "laser", "dt_field must divide the pulse duration"),
    ]
    for extra, module, message in cases:
        out = tmp_path / "out"
        argv = ["run", "--out", str(out)]
        for item in base + extra:
            argv += ["--override", item]
        assert cli.main(argv) == 1
        assert f"khatom: [{module}] {message}" in capsys.readouterr().err
        assert not out.exists()
    # a run and a map that move a lab snapshot to the KH frame check the
    # field step before their directory too
    g = SpatialGrid(n_points=1024)
    snap = tmp_path / "lab.snap"
    write_snapshot(snap, WaveFunction(g, np.exp(-g.x**2 / 50.0), 10.0, "lab"))
    moving = [["run", "--override", "run.mode=kh_averaged", "--override",
               f"run.initial={snap}", "--override", "run.t_final=10.7"], ["wigner", str(snap)]]
    for argv in moving:
        argv += ["--out", str(tmp_path / "out")]
        for item in ("grid.n_points=1024", "run.dt=0.07"):
            argv += ["--override", item]
        assert cli.main(argv) == 1
        assert "khatom: [laser] dt_field must divide the pulse duration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    # the same grids pass where nothing needs the absorber or a map (a
    # bound run and its restart), and the same run.dt where nothing needs
    # the field
    validate_config(load_config(overrides=base + ["run.dt=0.07", "run.t_final=700"]))
    validate_config(load_config(overrides=base + small + ["run.snapshots=15"]))
    validate_config(load_config(overrides=base + restart + ["grid.x_min=-500", "grid.x_max=500"]))
    # a time within 1e-6 of a step passes: it is stored at that step
    validate_config(load_config(overrides=base + ["run.snapshots=12.3500001"]))


def test_restart_keys_need_restart_at(tmp_path, capsys):
    # a run refuses them before its directory exists, rather than dropping
    # them; with no run there is no restart to refuse
    base = ["run.mode=kh_averaged", "run.initial=kh_ground", "run.t_final=10"]
    for extra in ("restart.t_final=20", "restart.snapshots=15"):
        out = tmp_path / "out"
        argv = ["run", "--out", str(out)]
        for item in base + [extra]:
            argv += ["--override", item]
        assert cli.main(argv) == 1
        key = extra.partition("=")[0]
        assert capsys.readouterr().err == f"khatom: [cli] {key} needs restart.at\n"
        assert not out.exists()
    validate_config(load_config(overrides=["run.enabled=false", "restart.t_final=20"]))


def test_plan_resolves_times_to_steps():
    # each configured time becomes a step of its segment once, in the plan
    run, restart = validate_config(load_config(overrides=[
        "run.mode=kh_averaged", "run.initial=kh_coherent", "run.t_final=30",
        "run.snapshots=30, 15, 15.0000004", "restart.at=15", "restart.t_final=45",
        "restart.snapshots=45, 30",
    ]))
    assert run.time == TimeGrid(0.0, 0.05, 600) and run.start_step is None
    assert run.snapshot_steps == (300, 600)
    assert restart.time == TimeGrid(15.0, 0.05, 600) and restart.start_step == 300
    assert restart.snapshot_steps == (300, 600)


def test_restart_continues_in_the_averaged_potential():
    # a restart steps kh_averaged after either mode, and is bound when its
    # primary is: a kh_averaged run from a KH state
    base = ["grid.n_points=1024", "run.t_final=10", "run.snapshots=5", "restart.at=5",
            "restart.t_final=10"]
    cases = [("kh_averaged", "kh_coherent", True), ("kh_averaged", "atomic_ground", False),
             ("lab_full", "kh_coherent", False)]
    for mode, initial, bound in cases:
        run, restart = validate_config(load_config(
            overrides=base + [f"run.mode={mode}", f"run.initial={initial}"]))
        assert (run.mode, restart.mode) == (mode, "kh_averaged")
        assert run.bound == restart.bound == bound, (mode, initial)
    with pytest.raises(CliError, match="unknown config key: restart.mode"):
        load_config(overrides=["restart.mode=lab_full"])


def test_alpha0_beyond_the_box_fails_before_any_directory(tmp_path, capsys):
    # kh.alpha0 used to be refused only where the averaged well was built,
    # after potential_bare.dat and an incomplete manifest were written
    overrides = ("run.enabled=false", "kh.alpha0=2000", "grid.n_points=1024")
    for stage in ("emit.potential=true", "emit.eigen=true", "portrait.energies=auto"):
        out = tmp_path / "out"
        assert _run_with(out, *overrides, stage) == 1
        assert capsys.readouterr().err == ("khatom: [potential] alpha0 = 2000.0 must lie in "
                                           "(0, 1500], half the grid's width\n")
        assert not out.exists()
    # stages that build no averaged well leave kh.alpha0 unchecked
    assert _run_with(tmp_path / "field", *overrides, "emit.field=true") == 0
    off = ["run.enabled=false", "kh.alpha0=2000", "grid.n_points=1024"]
    validate_config(load_config(overrides=off + ["wigner.states=atomic_ground"]))
    with pytest.raises(PotentialError, match="alpha0 = 2000.0 must lie in"):
        validate_config(load_config(overrides=off + ["wigner.states=kh_ground"]))


def test_emit_table_bytes_match_repr_loop(tmp_path):
    # one %r template per table writes the bytes of repr(float(v)) joined by spaces
    pipe = cli.Pipeline(load_config(), str(tmp_path))
    columns = (
        np.arange(7),
        np.array([0.1, -0.0, 0.0, 1e-310, 1e300, -2.5, np.pi]),
        np.linspace(-1.0, 1.0, 7, dtype=np.float32),
    )
    pipe._emit_table("t.dat", columns, "i a b")
    lines = ["# i a b\n"]
    for row in zip(*columns):
        lines.append(" ".join(repr(float(v)) for v in row) + "\n")
    assert (tmp_path / "t.dat").read_text() == "".join(lines)


def _python(code, *args, **env_vars):
    """The stdout of `python -c code args...` on this package, with env_vars set."""
    import khatom

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(khatom.__file__)),
               **env_vars)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: scipy adds start-up time and
    # memory to every run, so neither the import nor a run loads it
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import khatom.cli\n"
        "loaded = {'import': scipy_modules()}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert khatom.cli.main(argv) == 0\n"
        "    loaded[argv[1]] = scipy_modules()\n"
        "print(json.dumps(loaded))\n"
    )
    small = ["--override", "grid.n_points=1024"]
    runs = [
        ["run", "fig3", "--out", str(tmp_path / "fig3"), *small],
        ["run", "fig2ab", "--out", str(tmp_path / "fig2ab"), *small,
         "--override", "run.t_final=20", "--override", "run.snapshots=20",
         "--override", "wigner.times=snapshots"],
    ]
    loaded = json.loads(_python(code, json.dumps(runs)))
    assert loaded == {"import": [], "fig3": [], "fig2ab": []}


# BLAS threads showed in the KH solve at the default 16384-point grid: there
# a BLAS-threaded block solve wrote other KH states, energies and maps at 1
# and 2 OpenBLAS threads, while at 1024, 4096 and 8192 points it did not
THREAD_RUNS = (
    ["run", "fig1"],
    ["run", "fig3"],
    ["run", "fig2ab", "--override", "run.t_final=20", "--override", "run.snapshots=20",
     "--override", "wigner.times=snapshots"],
)


def test_run_directories_do_not_depend_on_thread_count(tmp_path):
    # a short lab_full run from the atomic state: records, a snapshot, one map
    code = (
        "import json, sys\n"
        "from khatom import cli\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    assert cli.main([*argv, '--out', f'{sys.argv[1]}/{argv[1]}']) == 0\n"
    )
    for threads in ("1", "2"):
        _python(code, str(tmp_path / threads), json.dumps(THREAD_RUNS),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    for argv in THREAD_RUNS:
        one, two = tmp_path / "1" / argv[1], tmp_path / "2" / argv[1]
        names = sorted(os.listdir(one))
        assert names == sorted(os.listdir(two))
        match, mismatch, errors = filecmp.cmpfiles(one, two, names, shallow=False)
        assert (argv[1], mismatch, errors) == (argv[1], [], [])


# each recipe's plan: the bound flag of each segment, and the record stride
# in steps.  Only the averaged-well beat is bound; the restarts of fig7 and
# fig8 continue lab_full runs, so they absorb
RECIPE_PLANS = {
    "fig1": ((), 20), "fig2ab": ((False,), 20), "fig2b": ((False,), 20), "fig3": ((), 20),
    "fig4a": ((True,), 10), "fig4b": ((False,), 20), "fig5": ((True,), 10),
    "fig6": ((False,), 20), "fig7": ((False, False), 20), "fig8": ((False, False), 20),
}


def test_all_recipes_load_and_validate():
    assert set(RECIPE_PLANS) == set(RECIPES)
    for name in RECIPES:
        cfg = load_config(cli._recipe_path(name))
        plan = validate_config(cfg)
        # one record per a.u.: observables.csv keeps its rows at any run.dt
        stride = cli._record_stride(cfg["run.dt"])
        assert (tuple(seg.bound for seg in plan), stride) == RECIPE_PLANS[name], name


def test_recipe_dt_matches_half_the_step(tmp_path):
    # fig4a's beat at its own run.dt and at half of it agree in every column
    # of observables.csv to the benchmark's pin rule, 1e-5 * max(1, |v|);
    # both values come from the recipe, so a later edit of it is checked
    dt = load_config(cli._recipe_path("fig4a"))["run.dt"]
    series = []
    for label, step in (("recipe", dt), ("half", dt / 2)):
        out = tmp_path / label
        argv = ["run", "fig4a", "--out", str(out)]
        for item in ("grid.n_points=4096", "run.t_final=785", f"run.dt={step!r}"):
            argv += ["--override", item]
        assert cli.main(argv) == 0
        series.append(read_series(out / "observables.csv"))
    coarse, fine = series
    assert len(fine["t"]) == 786
    for name, want in fine.items():
        have = coarse[name]
        assert have.shape == want.shape, name
        assert np.array_equal(np.isnan(have), np.isnan(want)), name
        off = np.abs(have - want) > 1e-5 * np.maximum(1.0, np.abs(want))
        assert not np.any(off), (name, np.nanmax(np.abs(have - want)))


def _written(out) -> set:
    """The files a verb wrote, as its manifest lists them; nothing else is there."""
    files = set(json.loads((out / "manifest.json").read_text())["files"])
    assert set(os.listdir(out)) == files | {"manifest.json"}
    return files


def test_potential_verb(tmp_path):
    # the defaults hold every output off: no run and emit.potential write the two tables alone
    assert _run_with(tmp_path, "run.enabled=false", "emit.potential=true") == 0
    assert _written(tmp_path) == {"potential_bare.dat", "potential_averaged.dat"}
    bare = np.loadtxt(tmp_path / "potential_bare.dat")
    avg = np.loadtxt(tmp_path / "potential_averaged.dat")
    assert bare.shape == avg.shape and bare.shape[1] == 2
    # dressed well is shallower than the bare one and has an interior barrier
    assert avg[:, 1].min() > bare[:, 1].min()
    mid = np.argmin(np.abs(avg[:, 0]))
    assert avg[mid, 1] > avg[:, 1].min()


def test_field_verb(tmp_path):
    assert _run_with(tmp_path, "run.enabled=false", "emit.field=true") == 0
    assert _written(tmp_path) == {"field.dat"}
    table = np.loadtxt(tmp_path / "field.dat")
    assert table.shape[1] == 4
    assert table[0, 0] == 0.0 and abs(table[-1, 0] - 1200.0) < 1.0
    assert abs(table[-1, 2]) < 1e-6 and abs(table[-1, 3]) < 1e-4
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["residuals"]["field_endpoint_a"] < 1e-6


def test_eigen_verb(tmp_path):
    assert _run_with(tmp_path, "run.enabled=false", "emit.eigen=true") == 0
    assert _written(tmp_path) == {
        "atomic_ground.dat", "kh_state_0.dat", "kh_state_1.dat", "eigen_energies.txt",
    }
    text = (tmp_path / "eigen_energies.txt").read_text()
    table = dict(line.split(" = ") for line in text.strip().splitlines())
    assert abs(float(table["e_atomic"]) + 0.0277) < 5e-4
    assert abs(float(table["e_kh_0"]) + 0.0110) < 5e-4
    assert float(table["e_kh_1"]) > float(table["e_kh_0"])
    dens = np.loadtxt(tmp_path / "kh_state_0.dat")
    assert abs(np.trapezoid(dens[:, 1], dens[:, 0]) - 1.0) < 1e-3


def test_portrait_verb(tmp_path):
    assert _run_with(tmp_path, "run.enabled=false", "portrait.energies=auto") == 0
    assert _written(tmp_path) == {"portrait.dat"}
    lines = (tmp_path / "portrait.dat").read_text().splitlines()
    kinds = [ln.split("kind=")[1] for ln in lines if "kind=" in ln]
    assert set(kinds) == {"separatrix", "regular"} and kinds[0] == "separatrix"
    rows = np.array(
        [[float(v) for v in ln.split()] for ln in lines if ln and not ln.startswith("#")]
    )
    assert np.max(np.abs(rows[:, 0])) <= 60.0
    assert np.max(np.abs(rows[:, 1])) < 0.3


def _fails_on_one_bound_state(out, capsys, alpha0: str,
                              stages=("run.enabled=false", "emit.eigen=true")) -> None:
    overrides = (*stages, f"kh.alpha0={alpha0}", "grid.n_points=4096")
    assert _run_with(out, *overrides) == 1
    message = f"the averaged potential at kh.alpha0 = {alpha0} binds 1 state(s)"
    assert capsys.readouterr().err.startswith(f"khatom: [cli] {message}")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete" and manifest["error"].startswith(f"cli: {message}")
    assert manifest["files"] == {}


def test_single_bound_state_fails_with_a_manifest(tmp_path, capsys):
    # at kh.alpha0 = 4.5 the averaged double well binds one state; the run
    # used to end in a ValueError traceback, with no manifest
    _fails_on_one_bound_state(tmp_path, capsys, "4.5")


def test_single_well_fails_on_the_state_count(tmp_path, capsys):
    # at kh.alpha0 = 2 the single well binds one state; the run fails on the
    # count, not on a separatrix that only the portrait reads
    _fails_on_one_bound_state(tmp_path, capsys, "2")


def test_kh_run_fails_before_the_potential_tables(tmp_path, capsys):
    # a run solves the KH pair before any stage writes: a kh_averaged run
    # from a KH state at kh.alpha0 = 4.5 writes no potential tables either
    stages = ("run.mode=kh_averaged", "run.initial=kh_ground", "run.t_final=10",
              "emit.potential=true")
    _fails_on_one_bound_state(tmp_path, capsys, "4.5", stages)


def test_single_well_potential_needs_no_separatrix(tmp_path):
    # kh.alpha0 = 2 gives a single well: no saddle, and no portrait asks for one
    overrides = ("run.enabled=false", "emit.potential=true", "kh.alpha0=2", "grid.n_points=4096")
    assert _run_with(tmp_path, *overrides) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert "e_separatrix" not in manifest["derived"]
    assert _written(tmp_path) == {"potential_bare.dat", "potential_averaged.dat"}


def test_single_well_portrait_of_listed_energies(tmp_path, capsys):
    # the portrait draws the separatrix, which a single well does not have;
    # it takes no list of energies
    overrides = ("run.enabled=false", "portrait.energies=auto", "kh.alpha0=2",
                 "grid.n_points=4096")
    assert _run_with(tmp_path / "auto", *overrides) == 1
    assert "[phasespace] averaged potential has a single well, no saddle" in capsys.readouterr().err
    with pytest.raises(CliError, match="bad value for portrait.energies: expected one of"):
        load_config(overrides=["portrait.energies=-0.01,0.001"])


def test_detected_times_of_a_beat():
    # |c|^2 = cos^2(pi t / T): maxima at multiples of T, minima at odd
    # multiples of T/2, the 0.5 crossings at odd multiples of T/4
    period, dt = 200.0, 0.5
    times = dt * np.arange(2001)
    found = cli._detect_landmarks(times, np.cos(np.pi * times / period) ** 2, 100.0)
    # the smoothing window, one 100 a.u. field period or 201 rows at 0.5 a.u.
    # spacing, is left out at each end
    inner = (times[0] + 201 * dt, times[-1] - 201 * dt)
    for key, first, spacing in (("left_well", 0.0, period), ("right_well", period / 2, period),
                                ("midpoint", period / 4, period / 2)):
        expected = np.arange(first, times[-1], spacing)
        expected = expected[(expected >= inner[0]) & (expected < inner[1])]
        assert len(found[key]) == len(expected) > 0, key
        assert np.max(np.abs(np.array(found[key]) - expected)) <= 3 * dt, key
    # too short a series to smooth gives no landmarks
    assert cli._detect_landmarks(times[:15], np.ones(15), 100.0) == {
        "left_well": [], "right_well": [], "midpoint": []}


def test_landmarks_do_not_depend_on_the_record_spacing():
    # an 800 a.u. beat with a ripple at the 100 a.u. field period, recorded
    # every 1 and every 0.5 a.u.: a window of one period removes the ripple
    # at both spacings (a fixed 101 rows spans half a period at 0.5 a.u.,
    # and the ripple's own extrema show up as landmarks); the 0.5 crossings
    # at 200 and 600 fall on a sample, where the smoothed series is 0.5
    found = []
    for spacing in (1.0, 0.5):
        times = spacing * np.arange(round(1600 / spacing) + 1)
        abs2 = np.cos(np.pi * times / 800.0) ** 2 + 0.05 * np.sin(2 * np.pi * times / 100.0)
        found.append(cli._detect_landmarks(times, abs2, 100.0))
    expected = {"left_well": [800.0], "right_well": [400.0, 1200.0],
                "midpoint": [200.0, 600.0, 1000.0, 1400.0]}
    for key, want in expected.items():
        coarse, fine = (np.array(f[key]) for f in found)
        assert len(coarse) == len(fine) == len(want), key
        assert np.max(np.abs(coarse - fine)) <= 1.0, key
        assert np.max(np.abs(coarse - want)) <= 1.0, key


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


def test_mini_run_energy_drift(mini_run):
    # each bound segment records its relative Rayleigh-energy drift;
    # the mini recipe's two 600-step segments measure 1.1e-12 and 4.5e-13
    residuals = json.loads((mini_run / "manifest.json").read_text())["residuals"]
    for key in ("energy_drift", "restart_energy_drift"):
        assert residuals[key] < 1e-11


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


def test_atomic_ground_maps_of_a_kh_run_take_the_loose_mass_tolerance(tmp_path):
    # the atomic ground state carries continuum into the averaged well, as a
    # lab_full run does; held to the 1e-3 of a KH eigenstate start, this run
    # failed on "Wigner mass 0.877367 disagrees with window norm 0.874906"
    argv = ["run", "--out", str(tmp_path)]
    for item in ("run.mode=kh_averaged", "run.initial=atomic_ground", "grid.n_points=4096",
                 "run.t_final=300", "run.snapshots=300", "wigner.times=snapshots"):
        argv += ["--override", item]
    assert cli.main(argv) == 0
    record = json.loads((tmp_path / "manifest.json").read_text())["wigner"]["wigner_t300.wig"]
    assert 1e-3 < record["mass_deficit"] < cli.LOOSE_MASS_TOL


def test_kh_run_from_the_atomic_state_absorbs(tmp_path):
    # the atomic ground state carries continuum into the averaged well: with
    # the absorber off it wrapped around the box and left 1.6e-6 beyond
    # |x| = 1400 at t = 1000, against 1.2e-26 with it on.  A segment that
    # absorbs records no energy drift, whose loss of norm it would measure
    # (13.6 at t = 2000)
    argv = ["run", "--out", str(tmp_path)]
    for item in ("run.mode=kh_averaged", "run.initial=atomic_ground", "grid.n_points=4096",
                 "run.t_final=1000", "run.snapshots=1000"):
        argv += ["--override", item]
    assert cli.main(argv) == 0
    residuals = json.loads((tmp_path / "manifest.json").read_text())["residuals"]
    assert residuals["absorbed_norm"] > 1e-3
    assert "energy_drift" not in residuals
    snap = read_snapshot(tmp_path / "snapshot_t1000.snap")
    outer = np.abs(snap.grid.x) > 1400.0
    assert snap.grid.dx * np.sum(snap.density()[outer]) < 1e-20


def test_norms_share_one_unit(tmp_path):
    # final_norm, absorbed_norm and the norm column are all |psi|^2: what is
    # left in the box and what the absorber took add up to the start's
    # norm, for the primary run and for its restart.  A packet starting at
    # the absorber's inner edge loses about 90% of its norm by t = 60
    g = SpatialGrid(n_points=1024)
    packet = WaveFunction(g, np.exp(-((g.x - 650.0) ** 2) / 800.0 + 0.8j * g.x), 0.0, "lab")
    write_snapshot(tmp_path / "start.snap", packet.normalized())
    out = tmp_path / "out"
    argv = ["run", "--out", str(out)]
    for item in ("grid.n_points=1024", "run.mode=lab_full", f"run.initial={tmp_path / 'start.snap'}",
                 "run.t_final=60", "run.snapshots=30", "restart.at=30", "restart.t_final=60"):
        argv += ["--override", item]
    assert cli.main(argv) == 0
    residuals = json.loads((out / "manifest.json").read_text())["residuals"]
    for label in ("", "restart_"):
        norm = read_series(out / f"{label}observables.csv")["norm"]
        final, absorbed = residuals[f"{label}final_norm"], residuals[f"{label}absorbed_norm"]
        assert absorbed > 0.1
        assert final == pytest.approx(norm[-1], abs=1e-15)
        assert abs(final + absorbed - norm[0]) < 1e-12


def test_edge_fraction_reports_the_box_edge(mini_run, tmp_path):
    # the probability beyond the absorber's inner width in each segment's
    # final state: a packet placed beyond 600 a.u. keeps most of it after
    # one step, a bound segment none.  It is reported, never refused
    g = SpatialGrid(n_points=1024)
    for centre in (800.0, 0.0):
        packet = WaveFunction(g, np.exp(-((g.x - centre) ** 2) / 800.0) + 0j, 0.0, "kh")
        start = tmp_path / f"start{centre:g}.snap"
        write_snapshot(start, packet.normalized())
        out = tmp_path / f"out{centre:g}"
        assert _restart(start, out, 0.05, "grid.n_points=1024", "run.snapshots=0.05") == 0
        edge = json.loads((out / "manifest.json").read_text())["residuals"]["edge_fraction"]
        final = read_snapshot(out / "snapshot_t0.05.snap")
        outside = np.abs(g.x) > propagator.ABSORBER_HALF_WIDTH
        assert edge == g.dx * float(np.sum(final.density()[outside]))
        assert edge > 0.9 if centre else edge < 1e-20
    residuals = json.loads((mini_run / "manifest.json").read_text())["residuals"]
    assert residuals["edge_fraction"] < 1e-20 and residuals["restart_edge_fraction"] < 1e-20


def test_run_determinism(mini_cfg_path, mini_run, tmp_path):
    assert cli.main(["run", mini_cfg_path, "--out", str(tmp_path)]) == 0
    names = sorted(os.listdir(mini_run))
    assert names == sorted(os.listdir(tmp_path))
    match, mismatch, errors = filecmp.cmpfiles(mini_run, tmp_path, names, shallow=False)
    assert mismatch == [] and errors == []
    assert set(match) == set(names)


def _counting(monkeypatch, name, module=cli):
    """Wraps module.<name>; the list counts the calls made in this process."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_mini_recipe_solves_in_one_process(mini_cfg_path, mini_run, tmp_path, monkeypatch):
    # the mini recipe solves the atomic state for emit.eigen and writes its
    # four snapshot maps in the calling process; with the propagation
    # partner off, nothing forks
    ground = _counting(monkeypatch, "imaginary_time_ground_state")
    maps = _counting(monkeypatch, "wigner")
    forks = _counting(monkeypatch, "fork", os)
    monkeypatch.setattr(propagator, "PARTNER_MIN_POINTS", sys.maxsize)
    out = tmp_path / "out"
    assert cli.main(["run", mini_cfg_path, "--out", str(out)]) == 0
    assert (len(ground), len(maps), len(forks)) == (1, 4, 0)
    names = sorted(os.listdir(mini_run))
    assert sorted(os.listdir(out)) == names
    match, mismatch, errors = filecmp.cmpfiles(mini_run, out, names, shallow=False)
    assert mismatch == [] and errors == [] and set(match) == set(names)


def test_wigner_verb_maps_as_the_run_does(mini_run, tmp_path):
    snaps = [str(mini_run / f"snapshot_t{t}.snap") for t in (15, 30)]
    assert cli.main(["wigner", *snaps, "--out", str(tmp_path)]) == 0
    assert _written(tmp_path) == {
        f"wigner_snapshot_t{t}.{ext}" for t in (15, 30) for ext in ("wig", "txt")
    }
    # the same transform as the run's own maps
    for t in (15, 30):
        assert filecmp.cmp(tmp_path / f"wigner_snapshot_t{t}.wig", mini_run / f"wigner_t{t}.wig",
                           shallow=False)


def test_partner_writes_inline_bytes(mini_cfg_path, mini_run, tmp_path, monkeypatch):
    # each of the mini recipe's two segments forks a propagation partner where
    # the host has one; forced inline, one process steps both halves
    forks = _counting(monkeypatch, "fork", os)
    partner, inline = tmp_path / "partner", tmp_path / "inline"
    assert cli.main(["run", mini_cfg_path, "--out", str(partner)]) == 0
    expected = 2 if propagator._use_partner(16384) else 0
    assert len(forks) == expected
    monkeypatch.setattr(propagator, "PARTNER_MIN_POINTS", sys.maxsize)
    assert cli.main(["run", mini_cfg_path, "--out", str(inline)]) == 0
    assert len(forks) == expected
    names = sorted(os.listdir(mini_run))
    for out in (partner, inline):
        assert sorted(os.listdir(out)) == names
        match, mismatch, errors = filecmp.cmpfiles(mini_run, out, names, shallow=False)
        assert mismatch == [] and errors == [] and set(match) == set(names)


@pytest.mark.parametrize("executor", ["partner", "inline"])
def test_non_finite_partner_half(mini_cfg_path, tmp_path, monkeypatch, capsys, executor):
    # a NaN in an odd sample of the mask enters the odd half's potential
    # phase, which the partner applies; through the exchanged spectra both
    # halves turn non-finite in step 1, and the error names the step that
    # one process names
    real = propagator.build_absorber_mask

    def spoiled(grid):
        mask = real(grid)
        mask[1] = np.nan
        return mask

    monkeypatch.setattr(propagator, "build_absorber_mask", spoiled)
    if executor == "inline":
        monkeypatch.setattr(propagator, "PARTNER_MIN_POINTS", sys.maxsize)
    out = tmp_path / "out"
    # the mini recipe is bound; from the atomic state its segments absorb
    argv = ["run", mini_cfg_path, "--out", str(out), "--override", "run.initial=atomic_ground"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "khatom: [propagator] non-finite amplitudes at step 1\n"
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["error"] == "propagator: non-finite amplitudes at step 1"


@pytest.mark.parametrize("fail_at", ["ground", 15.0, 45.0])
def test_failing_forked_stage(mini_cfg_path, tmp_path, monkeypatch, capsys, fail_at):
    # the atomic state is solved where the bound-state tables, written last,
    # first use it; the maps run in turn before them
    if fail_at == "ground":
        def solve(*args, **kwargs):
            raise EigenError("no ground state today")

        monkeypatch.setattr(cli, "imaginary_time_ground_state", solve)
        module = "eigen"
    else:
        real = cli.wigner

        def transform(wf, **kwargs):
            if abs(wf.t - fail_at) < 1e-6:
                raise PhaseSpaceError(f"no map at t = {wf.t:g}")
            return real(wf, **kwargs)

        monkeypatch.setattr(cli, "wigner", transform)
        module = "phasespace"
    out = tmp_path / "out"
    assert cli.main(["run", mini_cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"khatom: [{module}]")
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["error"].startswith(f"{module}:")
    # the error surfaces at the bound-state tables, after every other
    # stage, or at the failing map; the manifest lists every file written
    # before it
    written = _written(out)
    if fail_at == "ground":
        assert {"portrait.dat", "restart_wigner_t45.txt"} <= written
        assert not {"atomic_ground.dat", "kh_state_0.dat", "eigen_energies.txt"} & written
    else:
        done = {"wigner_t15.wig", "wigner_t30.wig", "restart_wigner_t30.wig"}
        assert set(manifest["wigner"]) == (done if fail_at == 45.0 else set())


def test_failing_wigner_verb_writes_incomplete_manifest(mini_run, tmp_path, monkeypatch, capsys):
    def transform(wf, **kwargs):
        raise PhaseSpaceError(f"no map at t = {wf.t:g}")

    monkeypatch.setattr(cli, "wigner", transform)
    out = tmp_path / "w"
    assert cli.main(["wigner", str(mini_run / "snapshot_t15.snap"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("khatom: [phasespace]")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["error"] == "phasespace: no map at t = 15"


def _restart(snap, out, t_final, *extra):
    """Continues the stored snapshot in the averaged potential to t_final."""
    argv = ["run", "--out", str(out)]
    for item in (f"run.initial={snap}", "run.mode=kh_averaged", f"run.t_final={t_final}", *extra):
        argv += ["--override", item]
    return cli.main(argv)


def test_restart_rejects_frame_mismatch(tmp_path, kh_pairs, capsys):
    # no plan path moves a KH state back to the lab frame
    snap = tmp_path / "kh.snap"
    write_snapshot(snap, WaveFunction(kh_pairs[0].state.grid, kh_pairs[0].state.psi, 625.0, "kh"))
    out = tmp_path / "out"
    argv = ["run", "--out", str(out), "--override", f"run.initial={snap}",
            "--override", "run.mode=lab_full", "--override", "run.t_final=630"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"khatom: [cli] snapshot {snap} is in the kh frame; a lab_full run needs a lab one\n")
    assert not out.exists()


def test_continuation_matches_the_in_run_restart(mini_run, tmp_path):
    # the mini run is bound, and so is a run from its snapshot: the same
    # segment as its in-run restart, written under the primary's names
    out = tmp_path / "continued"
    extra = ("run.snapshots=30, 45", "wigner.times=snapshots")
    assert _restart(mini_run / "snapshot_t15.snap", out, 45, *extra) == 0
    written = _written(out)
    assert written == {"observables.csv", "snapshot_t30.snap", "snapshot_t45.snap",
                       "wigner_t30.wig", "wigner_t30.txt", "wigner_t45.wig", "wigner_t45.txt"}
    for name in written:
        assert filecmp.cmp(out / name, mini_run / f"restart_{name}", shallow=False), name
    run, continued = (json.loads((d / "manifest.json").read_text()) for d in (mini_run, out))
    assert run["bound"] is continued["bound"] is True
    for key in ("energy_drift", "absorbed_norm", "edge_fraction", "final_norm"):
        assert continued["residuals"][key] == run["residuals"][f"restart_{key}"], key
    assert continued["wigner"]["wigner_t45.wig"] == run["wigner"]["restart_wigner_t45.wig"]


def test_continuation_is_bound_when_its_run_was(mini_run, tmp_path):
    # a snapshot is bound by the manifest beside it, at the same kh.alpha0;
    # with no manifest, or another kh.alpha0, the continuation absorbs
    start = ["run.mode=kh_averaged", "run.t_final=20"]
    snap = mini_run / "snapshot_t15.snap"
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / snap.name).write_bytes(snap.read_bytes())
    cases = [(snap, [], True), (snap, ["kh.alpha0=10.3"], False), (plain / snap.name, [], False)]
    for path, extra, bound in cases:
        (seg,) = validate_config(load_config(overrides=start + [f"run.initial={path}"] + extra))
        assert seg.bound is bound, (path, extra)
    # a run that is not bound stores snapshots that are not either
    absorbing = tmp_path / "absorbing"
    absorbing.mkdir()
    (absorbing / snap.name).write_bytes(snap.read_bytes())
    (absorbing / "manifest.json").write_text(json.dumps({"bound": False, "config": {}}))
    (seg,) = validate_config(load_config(overrides=start + [f"run.initial={absorbing / snap.name}"]))
    assert seg.bound is False
    (plain / "manifest.json").write_text("{")
    with pytest.raises(CliError, match="cannot read run manifest"):
        validate_config(load_config(overrides=start + [f"run.initial={plain / snap.name}"]))


CUT_PULSE = ("grid.n_points=4096", "pulse.ramp_cycles=1", "pulse.flat_end_cycles=3",
             "pulse.total_cycles=4")


@pytest.fixture(scope="module")
def cut_fig7(tmp_path_factory):
    """fig7 cut to 4 cycles at 4096 points, as CI runs it: a lab_full run
    with a kh_averaged restart from its lab snapshot at t = 200."""
    out = tmp_path_factory.mktemp("cut_fig7")
    argv = ["run", "fig7", "--out", str(out)]
    for item in CUT_PULSE + ("run.snapshots=200,300", "restart.at=200", "restart.t_final=400",
                             "restart.snapshots=300,400"):
        argv += ["--override", item]
    assert cli.main(argv) == 0
    return out


def test_continuation_of_a_lab_snapshot_matches_the_in_run_restart(cut_fig7, tmp_path):
    # the run moves the lab snapshot to the KH frame itself, with the
    # pulse of the run that stored it, and stores the moved state first
    out = tmp_path / "continued"
    extra = CUT_PULSE + ("run.snapshots=300, 400", "wigner.times=snapshots")
    assert _restart(cut_fig7 / "snapshot_t200.snap", out, 400, *extra) == 0
    assert filecmp.cmp(out / "snapshot_t200_kh.snap", cut_fig7 / "snapshot_t200_kh.snap",
                       shallow=False)
    written = _written(out) - {"snapshot_t200_kh.snap"}
    assert "observables.csv" in written and "wigner_t400.txt" in written
    for name in written:
        assert filecmp.cmp(out / name, cut_fig7 / f"restart_{name}", shallow=False), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["bound"] is False and "energy_drift" not in manifest["residuals"]
    assert manifest["parent"]["manifest"] == str(cut_fig7 / "manifest.json")


def test_wigner_verb_maps_a_lab_snapshot_as_the_run_does(cut_fig7, tmp_path):
    out = tmp_path / "w"
    argv = ["wigner", str(cut_fig7 / "snapshot_t200.snap"), "--out", str(out)]
    for item in CUT_PULSE:
        argv += ["--override", item]
    assert cli.main(argv) == 0
    assert _written(out) == {"wigner_snapshot_t200.wig", "wigner_snapshot_t200.txt"}
    for ext in ("wig", "txt"):
        assert filecmp.cmp(out / f"wigner_snapshot_t200.{ext}", cut_fig7 / f"wigner_t200.{ext}",
                           shallow=False)


def test_wigner_verb_takes_the_tolerance_of_the_stored_run(mini_run, cut_fig7, tmp_path,
                                                         monkeypatch):
    # a bound run held its maps to 1e-3, and the verb holds its snapshots'
    # maps to the same; a lab snapshot, or one with no run manifest beside
    # it, takes LOOSE_MASS_TOL
    tols, real = [], cli.wigner

    def recording(wf, **kwargs):
        tols.append(kwargs["mass_tol"])
        return real(wf, **kwargs)

    monkeypatch.setattr(cli, "wigner", recording)
    plain = tmp_path / "plain" / "snapshot_t15.snap"
    plain.parent.mkdir()
    plain.write_bytes((mini_run / "snapshot_t15.snap").read_bytes())
    cases = [(mini_run / "snapshot_t15.snap", ()), (cut_fig7 / "snapshot_t200.snap", CUT_PULSE),
             (plain, ())]
    for k, (snap, overrides) in enumerate(cases):
        argv = ["wigner", str(snap), "--out", str(tmp_path / f"w{k}")]
        for item in overrides:
            argv += ["--override", item]
        assert cli.main(argv) == 0
    assert tols == [1e-3, cli.LOOSE_MASS_TOL, cli.LOOSE_MASS_TOL]


def test_failing_transform_makes_no_directory(cut_fig7, tmp_path, capsys):
    # a lab snapshot moved with another pulse than its run's is silently
    # wrong (its KH view was off by 0.14 against a peak of 0.16), and one
    # on another grid cannot be moved; both consumers refuse them, naming
    # the first differing key, before any directory exists
    snap = cut_fig7 / "snapshot_t200.snap"
    consumers = [["wigner", str(snap)],
                 ["run", "--override", "run.mode=kh_averaged", "--override",
                  f"run.initial={snap}", "--override", "run.t_final=400"]]
    cases = [(["grid.n_points=4096"],
              f"snapshot {snap} was stored with pulse.ramp_cycles = 1, not 2"),
             (CUT_PULSE[1:], f"snapshot {snap} was stored on a different grid")]
    for argv in consumers:
        for overrides, message in cases:
            out = tmp_path / "out"
            full = argv + ["--out", str(out)]
            for item in overrides:
                full += ["--override", item]
            assert cli.main(full) == 1
            assert capsys.readouterr().err == f"khatom: [cli] {message}\n"
            assert not out.exists()


def test_observables_verb_runs_a_restart(mini_cfg_path, mini_run, tmp_path):
    # with its maps, portrait, potentials and bound states off, and no
    # snapshot but the one the restart starts from, the mini recipe writes
    # the series of both segments as the full run does
    out = tmp_path / "obs"
    off = ("run.snapshots=15", "restart.snapshots=none", "wigner.times=none",
           "portrait.energies=none", "emit.potential=false", "emit.eigen=false")
    assert _run_with(out, *off, recipe=[mini_cfg_path]) == 0
    assert _written(out) == {"observables.csv", "restart_observables.csv", "snapshot_t15.snap"}
    for name in ("observables.csv", "restart_observables.csv"):
        assert filecmp.cmp(out / name, mini_run / name, shallow=False)


def _lab_snapshot(run_dir, kh_pairs):
    """Writes a lab-frame snapshot at t = 625 into the directory of a field run."""
    assert _run_with(run_dir, "run.enabled=false", "emit.field=true") == 0
    snap = run_dir / "lab.snap"
    write_snapshot(snap, WaveFunction(kh_pairs[0].state.grid, kh_pairs[0].state.psi, 625.0, "lab"))
    return snap


def test_transform_then_restart(tmp_path, kh_pairs):
    # a run from a lab snapshot moves it to the KH frame, stores that view
    # as <stem>_kh.snap and continues from its time; a run from the stored
    # view continues it again
    snap = _lab_snapshot(tmp_path / "run", kh_pairs)
    out = tmp_path / "t"
    assert _restart(snap, out, 626) == 0
    assert _written(out) == {"lab_kh.snap", "observables.csv"}
    moved = read_snapshot(out / "lab_kh.snap")
    assert moved.frame == "kh" and moved.t == 625.0
    assert read_series(out / "observables.csv")["t"][0] == 625.0
    continued = tmp_path / "continued"
    assert _restart(out / "lab_kh.snap", continued, 627) == 0
    assert json.loads((continued / "manifest.json").read_text())["parent"]["t"] == 625.0
    assert read_series(continued / "observables.csv")["t"][0] == 625.0


def test_transform_records_the_parent_run(tmp_path, kh_pairs):
    # the run that moves a lab snapshot records its parent with the
    # manifest.json of the run directory the snapshot sits in; a run from
    # the moved KH view records it the same way
    run_dir = tmp_path / "run"
    snap = _lab_snapshot(run_dir, kh_pairs)
    out = tmp_path / "t"
    assert _restart(snap, out, 626) == 0
    assert json.loads((out / "manifest.json").read_text())["parent"] == {
        "snapshot": str(snap),
        "sha256": hashlib.sha256(snap.read_bytes()).hexdigest(),
        "t": 625.0,
        "manifest": str(run_dir / "manifest.json"),
    }
    continued = tmp_path / "continued"
    assert _restart(out / "lab_kh.snap", continued, 627) == 0
    parent = json.loads((continued / "manifest.json").read_text())["parent"]
    assert parent["snapshot"] == str(out / "lab_kh.snap")
    assert parent["manifest"] == str(out / "manifest.json")


def test_wigner_verb_plans_no_run(mini_run, tmp_path, kh_pairs):
    # the verb propagates nothing, so run.* values that would plan no run
    # pass, for a KH snapshot and a lab one, and its manifest echoes the
    # config as given
    lab = tmp_path / "lab.snap"
    write_snapshot(lab, WaveFunction(kh_pairs[0].state.grid, kh_pairs[0].state.psi, 625.0, "lab"))
    kh = str(mini_run / "snapshot_t15.snap")
    cases = [("wigner", kh, "run.snapshots=1300"), ("wigner", kh, "run.dt=0.07"),
             ("wigner", str(lab), "run.snapshots=1300")]
    for k, (verb, snap, override) in enumerate(cases):
        out = tmp_path / f"out{k}"
        assert cli.main([verb, snap, "--out", str(out), "--override", override]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        echoed = cli._echo(load_config(overrides=[override]))
        assert manifest["config"] == json.loads(json.dumps(echoed))


def test_wigner_verb_refuses_repeated_stems(mini_run, tmp_path, capsys):
    # two snapshots of one file name would write one wigner_<stem>.wig twice,
    # and a manifest of one map
    first, second = mini_run / "snapshot_t15.snap", tmp_path / "other" / "snapshot_t15.snap"
    second.parent.mkdir()
    second.write_bytes((mini_run / "snapshot_t30.snap").read_bytes())
    out = tmp_path / "w"
    assert cli.main(["wigner", str(first), str(second), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"khatom: [cli] snapshots {first} and {second} both map to wigner_snapshot_t15.wig\n")
    assert not out.exists()


def test_out_must_not_hold_a_snapshot_it_reads(tmp_path, capsys):
    # a run from a snapshot, or a map of it, written into the directory that
    # holds it replaced the manifest of the run that stored it: a later run
    # from the snapshot lost its bound flag, or named itself as its parent
    src = tmp_path / "src"
    assert _run_with(src, "grid.n_points=1024", "run.mode=kh_averaged", "run.initial=kh_coherent",
                     "run.t_final=10", "run.snapshots=10") == 0
    before = {name: (src / name).read_bytes() for name in os.listdir(src)}
    snap = src / "snapshot_t10.snap"
    commands = [["run", "--override", "run.mode=kh_averaged", "--override", f"run.initial={snap}",
                 "--override", "run.t_final=15"], ["wigner", str(snap)]]
    for argv in commands:
        for out in (str(src), f"{src}/."):
            assert cli.main(argv + ["--out", out, "--override", "grid.n_points=1024"]) == 1
            assert capsys.readouterr().err == (f"khatom: [cli] --out {out} holds the snapshot "
                                               f"{snap} that this command reads; its run's files "
                                               "would be written over\n")
    assert {name: (src / name).read_bytes() for name in os.listdir(src)} == before


def test_late_snapshot_times_keep_their_digits(tmp_path, kh_pairs):
    # names kept 6 significant digits: the three snapshots of a run from
    # t = 100000 were written to one snapshot_t100000.snap and one map
    snap = tmp_path / "late.snap"
    write_snapshot(snap, WaveFunction(kh_pairs[0].state.grid, kh_pairs[0].state.psi, 1e5, "kh"))
    out = tmp_path / "out"
    times = ("100000.1", "100000.2", "100000.3")
    extra = (f"run.snapshots={','.join(times)}", "wigner.times=snapshots")
    assert _restart(snap, out, times[-1], *extra) == 0
    maps = {f"wigner_t{t}.wig" for t in times}
    assert _written(out) == ({"observables.csv"} | {f"snapshot_t{t}.snap" for t in times} | maps
                             | {f"wigner_t{t}.txt" for t in times})
    assert set(json.loads((out / "manifest.json").read_text())["wigner"]) == maps
    # a name asked for twice in one run is refused, not written over
    pipe = cli.Pipeline(load_config(), str(tmp_path / "twice"))
    pipe._path("a.dat")
    with pytest.raises(CliError, match="a.dat is already written in this run"):
        pipe._path("a.dat")


def test_wigner_verb_checks_the_grid_before_any_map(tmp_path, capsys):
    # +-150 a.u. cannot hold the +-60 window plus half the 240 a.u. lag
    g = SpatialGrid(-150.0, 150.0, 1024)
    snap = tmp_path / "small.snap"
    write_snapshot(snap, WaveFunction(g, np.exp(-g.x**2) + 0j, 0.0, "kh"))
    assert cli.main(["wigner", str(snap), "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == (
        "khatom: [phasespace] position window plus correlation reach exceeds the grid\n")
    assert not (tmp_path / "w").exists()


def test_start_snapshot_is_checked_before_any_solve(tmp_path, kh_pairs, capsys):
    # a snapshot file brings its own start time, grid and frame; validate_config
    # reads them, so the verb fails before its output directory exists
    state = kh_pairs[0].state
    snap = tmp_path / "start.snap"
    write_snapshot(snap, WaveFunction(state.grid, state.psi, 15.0, "kh"))
    start = ["run.mode=kh_averaged", f"run.initial={snap}", "run.t_final=20"]
    validate_config(load_config(overrides=start + ["run.snapshots=15, 20"]))
    with pytest.raises(CliError, match=r"run.snapshots time 5 lies outside the run span \[15, 20\]"):
        validate_config(load_config(overrides=start + ["run.snapshots=5"]))
    with pytest.raises(CliError, match="different grid"):
        validate_config(load_config(overrides=start + ["grid.n_points=8192"]))
    with pytest.raises(CliError, match="kh frame; a lab_full run needs a lab one"):
        validate_config(load_config(overrides=start + ["run.mode=lab_full"]))
    out = tmp_path / "out"
    argv = ["run", "--out", str(out)]
    for item in start + ["run.snapshots=5"]:
        argv += ["--override", item]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("khatom: [cli] run.snapshots time 5")
    assert not out.exists()


def test_failing_module_is_named(tmp_path, kh_pairs, capsys):
    # amplitudes near 1e300 pass the snapshot reader and validate_config, but
    # their norm overflows, which only the propagator sees
    snap = tmp_path / "start.snap"
    state = kh_pairs[0].state
    write_snapshot(snap, WaveFunction(state.grid, 1e300 * state.psi, 15.0, "kh"))
    code = cli.main([
        "run", "--out", str(tmp_path / "out"),
        "--override", "run.mode=kh_averaged",
        "--override", f"run.initial={snap}",
        "--override", "run.t_final=20",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("khatom: [propagator]")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["error"].startswith("propagator:")


@pytest.mark.parametrize("use", ["wigner", "restart"])
def test_corrupt_snapshot_is_named(tmp_path, capsys, use):
    # a map of the snapshot, or a run restarted from it
    snap = tmp_path / "bad.snap"
    snap.write_bytes(b"KHPS1 64.5 -20.0 20.0 nan kh\n" + b"\x00" * 64)
    out = tmp_path / "out"
    if use == "wigner":
        assert cli.main(["wigner", str(snap), "--out", str(out)]) == 1
    else:
        assert _restart(snap, out, 30) == 1
    assert capsys.readouterr().err.startswith("khatom: [propagator]")
