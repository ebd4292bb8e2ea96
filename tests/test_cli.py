"""Exit codes of the command-line front end: 0 success, 1 usage error,
2 I/O error, 3 validation failure."""

import json

import pytest

from froxelpvs.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from froxelpvs.froxel import FroxelGrid

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
    "--dims not a number": (["eval", "--pred", "{a}", "--gt", "{a}", "--out", "{out}",
                             "--dims", "abc"], EXIT_USAGE),
    "--frames not a number": (["gen-dataset", "--frames", "two", "--out", "{data}"],
                              EXIT_USAGE),
    "config value not a number": (["eval", "--config", "{bad_value}", "--pred", "{a}",
                                   "--gt", "{a}", "--out", "{out}"], EXIT_USAGE),
    "--frames 0": (["gen-dataset", "--frames", "0", "--out", "{data}"], EXIT_USAGE),
    "--frames -1": (["gen-dataset", "--frames", "-1", "--out", "{data}"], EXIT_USAGE),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exit_code(case, tmp_path, capsys):
    argv, want = CASES[case]
    paths = {"a": tmp_path / "a.fpvs", "b": tmp_path / "b.fpvs", "out": tmp_path / "m.csv",
             "missing": tmp_path / "missing.fpvw", "bad_key": tmp_path / "bad.cfg",
             "threshold": tmp_path / "threshold.cfg", "bad_value": tmp_path / "value.cfg",
             "data": tmp_path / "data"}
    FroxelGrid((16, 16, 16)).save(paths["a"])
    FroxelGrid((8, 8, 8)).save(paths["b"])
    paths["bad_key"].write_text("no_such_key = 1\n")
    paths["threshold"].write_text("threshold_distance = 10\n")
    paths["bad_value"].write_text("seed = many\n")
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == want
    assert "Traceback" not in capsys.readouterr().err
    assert not (paths["data"] / "manifest.txt").exists()


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
