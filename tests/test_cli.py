"""Exit codes of the command-line front end: 0 success, 1 usage error,
2 I/O error, 3 validation failure."""

import ast
import inspect
import json
from dataclasses import fields

import pytest

from froxelpvs import cli
from froxelpvs.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, RunConfig, main, \
    parse_run_config
from froxelpvs.core import load_scene, save_scene
from froxelpvs.froxel import FroxelGrid
from froxelpvs.neural import ModelConfig, PvsNet, TrainConfig
from froxelpvs.oracle import OracleConfig
from froxelpvs.scenegen import SceneGenConfig, frame_grids, generate_scene

CASES = {
    "eval": (["eval", "--pred", "{a}", "--gt", "{a}", "--out", "{out}"], EXIT_OK),
    "no command": ([], EXIT_USAGE),
    "unknown flag": (["eval", "--pred", "{a}", "--gt", "{a}", "--out", "{out}",
                      "--bogus", "1"], EXIT_USAGE),
    "missing --out": (["eval", "--pred", "{a}", "--gt", "{a}"], EXIT_USAGE),
    "eval takes no checkpoint": (["eval", "--pred", "{a}", "--gt", "{a}", "--out", "{out}",
                                  "--checkpoint", "{missing}"], EXIT_USAGE),
    "unknown config key": (["eval", "--config", "{bad_key}", "--pred", "{a}", "--gt", "{a}",
                            "--out", "{out}"], EXIT_USAGE),
    "threshold_distance is no config key": (
        ["eval", "--config", "{threshold}", "--pred", "{a}", "--gt", "{a}",
         "--out", "{out}"], EXIT_USAGE),
    "missing grid file": (["eval", "--pred", "{missing}", "--gt", "{a}", "--out", "{out}"],
                          EXIT_IO),
    "grid dims differ": (["eval", "--pred", "{a}", "--gt", "{b}", "--out", "{out}"],
                         EXIT_VALIDATION),
    "--dims not a number": (["gen-dataset", "--dims", "abc", "--out", "{data}"], EXIT_USAGE),
    "gt takes no seed": (["gt", "--seed", "5", "--scene", "{missing}", "--out", "{out}"],
                         EXIT_USAGE),
    "eval takes no viewpoints": (["eval", "--pred", "{a}", "--gt", "{a}", "--out", "{out}",
                                  "--viewpoints", "7"], EXIT_USAGE),
    "eval takes no d": (["eval", "--pred", "{a}", "--gt", "{a}", "--out", "{out}",
                         "--d", "3"], EXIT_USAGE),
    "infer takes no dims": (["infer", "--geometry", "{a}", "--checkpoint", "{missing}",
                             "--out", "{out}", "--dims", "16"], EXIT_USAGE),
    "--frames not a number": (["gen-dataset", "--frames", "two", "--out", "{data}"],
                              EXIT_USAGE),
    "config value not a number": (["eval", "--config", "{bad_value}", "--pred", "{a}",
                                   "--gt", "{a}", "--out", "{out}"], EXIT_USAGE),
    "--frames 0": (["gen-dataset", "--frames", "0", "--out", "{data}"], EXIT_USAGE),
    "--frames -1": (["gen-dataset", "--frames", "-1", "--out", "{data}"], EXIT_USAGE),
    "--holdout -1": (["train", "--holdout", "-1", "--manifest", "{missing}",
                      "--out", "{out}"], EXIT_USAGE),
    "--supersample is no flag": (["gen-dataset", "--supersample", "4", "--out", "{data}"],
                                 EXIT_USAGE),
    "--motion is no flag": (["gt", "--motion", "m.txt", "--scene", "{missing}",
                             "--out", "{out}"], EXIT_USAGE),
    "bench is no command": (["bench", "--out", "{out}"], EXIT_USAGE),
    "scene vertex with 2 coordinates": (["gt", "--scene", "{short_v}", "--out", "{out}"],
                                        EXIT_VALIDATION),
    "scene face with 2 indices": (["gt", "--scene", "{short_f}", "--out", "{out}"],
                                  EXIT_VALIDATION),
    "scene face index before the first vertex": (
        ["gt", "--scene", "{far_back}", "--out", "{out}"], EXIT_VALIDATION),
    "supersample is no config key": (
        ["eval", "--config", "{supersample}", "--pred", "{a}", "--gt", "{a}",
         "--out", "{out}"], EXIT_USAGE),
    "--decay is no flag": (["train", "--decay", "1e-10", "--manifest", "{missing}",
                            "--out", "{out}"], EXIT_USAGE),
    "decay is no config key": (["train", "--config", "{decay}", "--manifest", "{missing}",
                                "--out", "{out}"], EXIT_USAGE),
    # model and optimizer values are checked before the manifest is read
    "train --d 0": (["train", "--d", "0", "--manifest", "{missing}", "--out", "{out}"],
                    EXIT_VALIDATION),
    "train --lr nan": (["train", "--lr", "nan", "--manifest", "{missing}", "--out", "{out}"],
                       EXIT_VALIDATION),
    "infer --tau 1.5": (["infer", "--tau", "1.5", "--geometry", "{a}", "--checkpoint", "{net}",
                         "--out", "{out}"], EXIT_VALIDATION),
    "infer --tau nan": (["infer", "--tau", "nan", "--geometry", "{a}", "--checkpoint", "{net}",
                         "--out", "{out}"], EXIT_VALIDATION),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exit_code(case, tmp_path, capsys):
    argv, want = CASES[case]
    paths = {"a": tmp_path / "a.fpvs", "b": tmp_path / "b.fpvs", "out": tmp_path / "m.csv",
             "missing": tmp_path / "missing.fpvw", "bad_key": tmp_path / "bad.cfg",
             "threshold": tmp_path / "threshold.cfg", "bad_value": tmp_path / "value.cfg",
             "supersample": tmp_path / "supersample.cfg", "data": tmp_path / "data",
             "short_v": tmp_path / "short_v.obj", "short_f": tmp_path / "short_f.obj",
             "far_back": tmp_path / "far_back.obj", "decay": tmp_path / "decay.cfg",
             "net": tmp_path / "net.fpvw"}
    FroxelGrid((16, 16, 16)).save(paths["a"])
    PvsNet(ModelConfig.default(2, hidden=4)).save(paths["net"])
    FroxelGrid((8, 8, 8)).save(paths["b"])
    paths["bad_key"].write_text("no_such_key = 1\n")
    paths["threshold"].write_text("threshold_distance = 10\n")
    paths["bad_value"].write_text("seed = many\n")
    paths["supersample"].write_text("supersample = 4\n")
    paths["decay"].write_text("decay = 1e-10\n")
    paths["short_v"].write_text("v 0 0 0\nv 1 0\n")
    paths["short_f"].write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2\n")
    paths["far_back"].write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -4 -2 -1\n")
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == want
    assert "Traceback" not in capsys.readouterr().err
    assert not (paths["data"] / "manifest.txt").exists()
    assert want == EXIT_OK or not paths["out"].exists()


# RunConfig field -> the library config defaults it mirrors; the first one
# is the expression its default is written as
MIRRORS = {
    "radius": [(SceneGenConfig, "radius")],
    "fov": [(SceneGenConfig, "fov_deg")],
    "beta": [(SceneGenConfig, "beta_deg")],
    "near": [(SceneGenConfig, "near")],
    "far": [(SceneGenConfig, "far")],
    "viewpoints": [(OracleConfig, "viewpoints")],
    "seed": [(SceneGenConfig, "seed"), (TrainConfig, "seed")],
    "epochs": [(TrainConfig, "epochs")],
    "batch": [(TrainConfig, "batch_size")],
    "lr": [(TrainConfig, "lr")],
    "alpha": [(TrainConfig, "alpha")],
    "lam": [(TrainConfig, "lam")],
    "tau": [(TrainConfig, "tau")],
}


def _run_config_defaults() -> dict:
    """RunConfig field -> the source text of its default."""
    tree = ast.parse(inspect.getsource(RunConfig))
    return {node.target.id: ast.unparse(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.AnnAssign) and node.value is not None}


class TestRunConfigTable:
    def test_every_field_is_read_by_some_command(self):
        read = {name for _, names in cli._OPTIONS.values() for name in names}
        assert {f.name for f in fields(RunConfig)} - {"command"} == read

    @pytest.mark.parametrize("name", sorted(MIRRORS))
    def test_default_is_the_library_default(self, name):
        for cls, attr in MIRRORS[name]:
            assert getattr(RunConfig, name) == getattr(cls, attr)
        cls, attr = MIRRORS[name][0]
        assert _run_config_defaults()[name] == f"{cls.__name__}.{attr}"

    def test_builders_take_the_library_defaults(self):
        cfg = RunConfig(command="train")
        assert cfg.train_config() == TrainConfig()
        assert cfg.scene_config() == SceneGenConfig()
        assert OracleConfig(viewpoints=cfg.viewpoints) == OracleConfig()

    @pytest.mark.parametrize("command", sorted(cli._OPTIONS))
    def test_flags_parse_to_the_default_type(self, command):
        samples = {int: "16", float: "1", str: "x"}
        for name in cli._OPTIONS[command][1]:
            default = getattr(RunConfig, name)
            flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
            value = getattr(parse_run_config([command, flag, samples[type(
                default[0] if isinstance(default, tuple) else default)]]), name)
            assert type(value) is type(default)
            if isinstance(default, tuple):
                assert len(value) == 3 and all(type(v) is type(default[0]) for v in value)

    def test_triples(self):
        assert parse_run_config(["gt", "--dims", "16"]).dims == (16, 16, 16)
        center = parse_run_config(["gt", "--cell-center", "1,2,3"]).cell_center
        assert center == (1.0, 2.0, 3.0) and all(type(c) is float for c in center)
        with pytest.raises(cli.UsageError):
            parse_run_config(["gt", "--dims", "16,16"])
        with pytest.raises(cli.UsageError):
            parse_run_config(["train", "--epochs", "1.5"])


@pytest.mark.parametrize("flag, value", [("--d", "0"), ("--lr", "nan"), ("--lr", "inf"),
                                         ("--epochs", "-1")])
def test_bad_train_value_is_named(flag, value, tmp_path, capsys):
    rc = main(["train", flag, value, "--manifest", str(tmp_path / "missing.txt"),
               "--out", str(tmp_path / "net.fpvw")])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION and value in err[err.index("got"):]
    assert "Traceback" not in err


def test_train_prints_json_lines(tmp_path, capsys):
    data, ckpt = tmp_path / "data", tmp_path / "net.fpvw"
    assert main(["gen-dataset", "--dims", "16", "--frames", "2", "--viewpoints", "2",
                 "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    assert main(["train", "--manifest", str(data / "manifest.txt"), "--epochs", "2",
                 "--out", str(ckpt)]) == EXIT_OK
    *epochs, summary = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [e["epoch"] for e in epochs] == [0, 1]
    assert all(set(e) == {"epoch", "loss", "fnr", "fpr"} for e in epochs)
    assert summary == {"checkpoint": str(ckpt), "epochs": 2, "loss": epochs[-1]["loss"]}


def test_train_d_not_dividing_dims_is_validation_error(tmp_path, capsys):
    """``interleave``'s check reaches the CLI as exit 3, with no traceback."""
    data, ckpt = tmp_path / "data", tmp_path / "net.fpvw"
    assert main(["gen-dataset", "--dims", "32", "--frames", "1", "--viewpoints", "1",
                 "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    rc = main(["train", "--manifest", str(data / "manifest.txt"), "--d", "3",
               "--epochs", "1", "--out", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION and "interleave factor 3 must divide" in err
    assert "Traceback" not in err and not ckpt.exists()


def test_gen_dataset_write_failure_is_io_error(tmp_path, capsys):
    data = tmp_path / "data"
    (data / "geometry_00000.fpvs").mkdir(parents=True)
    rc = main(["gen-dataset", "--dims", "8", "--frames", "1", "--viewpoints", "1",
               "--out", str(data)])
    err = capsys.readouterr().err
    assert rc == EXIT_IO
    assert err.startswith("I/O error:") and "Traceback" not in err
    assert not (data / "manifest.txt").exists()


def test_gt_writes_the_frame_grids(tmp_path, capsys):
    """``gt`` saves the pair that ``frame_grids`` builds for the loaded
    scene and the configured viewcell."""
    path, out, geo = tmp_path / "scene.obj", tmp_path / "gt.fpvs", tmp_path / "geo.fpvs"
    save_scene(path, generate_scene(SceneGenConfig(seed=3, count_range=(3, 5)))[0])
    rc = main(["gt", "--scene", str(path), "--dims", "16", "--viewpoints", "4",
               "--out", str(out), "--geometry-out", str(geo)])
    assert rc == EXIT_OK and "Traceback" not in capsys.readouterr().err
    cfg = parse_run_config(["gt", "--dims", "16", "--viewpoints", "4"])
    want_geo, want_gt = frame_grids(load_scene(path), cfg.viewcell(), cfg.dims,
                                    OracleConfig(viewpoints=4))
    assert FroxelGrid.load(out) == want_gt and want_gt.occupied_count() > 0
    assert FroxelGrid.load(geo) == want_geo


@pytest.mark.parametrize("record", ["v 0 1 x", "v 0 nan 0", "v inf 0 0", "f 1 2 a",
                                    "f 0 1 2", "f 1 2 9"])
def test_malformed_scene_record_names_file_and_line(record, tmp_path, capsys):
    """A non-numeric or non-finite value or an out-of-range face index
    exits 3 with the scene's path and the record's line, as a short record
    does."""
    path, out = tmp_path / "scene.obj", tmp_path / "gt.fpvs"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n{record}\n")
    rc = main(["gt", "--scene", str(path), "--dims", "8", "--viewpoints", "1",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION and "Traceback" not in err
    assert f"{path}:5:" in err and not out.exists()


@pytest.mark.parametrize("old, new, message", [
    (b"layer=", b"layer ", "checkpoint header line 2 'layer "),
    (b"d=2", b"d=\xff", "checkpoint header is not UTF-8 text"),
    (b"layer=3:8:", b"layer=3:7:", "first layer must take d^3 = 8 channels"),
])
def test_malformed_checkpoint_header_names_file_and_line(old, new, message, tmp_path, capsys):
    """A checkpoint header line without ``=``, a header that is not text
    and layers that do not fit d exit 3 with the checkpoint's path and, for
    a bad line, its number."""
    geometry, checkpoint = tmp_path / "geo.fpvs", tmp_path / "net.fpvw"
    out = tmp_path / "pred.fpvs"
    FroxelGrid((16, 16, 16)).save(geometry)
    PvsNet(ModelConfig.default(2, hidden=4)).save(checkpoint)
    checkpoint.write_bytes(checkpoint.read_bytes().replace(old, new, 1))
    rc = main(["infer", "--geometry", str(geometry), "--checkpoint", str(checkpoint),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION and "Traceback" not in err
    assert f"{checkpoint}: {message}" in err and not out.exists()
