"""Exit codes of the command-line front end: 0 success, 1 usage error,
2 I/O error, 3 validation failure."""

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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exit_code(case, tmp_path, capsys):
    argv, want = CASES[case]
    paths = {"a": tmp_path / "a.fpvs", "b": tmp_path / "b.fpvs", "out": tmp_path / "m.csv",
             "missing": tmp_path / "missing.fpvw", "bad_key": tmp_path / "bad.cfg",
             "threshold": tmp_path / "threshold.cfg"}
    FroxelGrid((16, 16, 16)).save(paths["a"])
    FroxelGrid((8, 8, 8)).save(paths["b"])
    paths["bad_key"].write_text("no_such_key = 1\n")
    paths["threshold"].write_text("threshold_distance = 10\n")
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == want
    assert "Traceback" not in capsys.readouterr().err
