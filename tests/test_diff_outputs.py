"""The comparator of ``tools/diff_outputs.py`` on small output trees."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

CSV = "# seed 7\ntime,particle_id,x1\n0.0,0,1.0\n0.5,0,0.25\n"
JSON = '{"seed": 7, "records": [{"time": 0.5, "entropy": 1.25, "cov": [[2.0]]}]}'
EXIT_CODES = "verify fig2 seed=config exit=0\nverify fig2 seed=3 exit=0\n"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import diff_outputs

    return diff_outputs


def _trees(tmp_path: Path, edits: dict[str, str] | None = None) -> tuple[Path, Path]:
    """Two equal output trees, ``old`` and ``new``, except that ``edits`` replaces the text of files of ``new``."""
    files = {"run/a.csv": CSV, "run/a.json": JSON, "run/a.svg": "<svg/>", "exit_codes.txt": EXIT_CODES}
    for side, texts in (("old", files), ("new", {**files, **(edits or {})})):
        for name, text in texts.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    return tmp_path / "old", tmp_path / "new"


def _compare(tool, capsys, old: Path, new: Path) -> tuple[int, list[str]]:
    status = tool.compare(old, new)
    return status, capsys.readouterr().out.splitlines()


def test_identical_trees_give_0_and_print_nothing(tool, capsys, tmp_path):
    assert _compare(tool, capsys, *_trees(tmp_path)) == (0, [])


def test_a_csv_cell_off_by_1e_12_gives_that_file_and_the_difference(tool, capsys, tmp_path):
    trees = _trees(tmp_path, {"run/a.csv": CSV.replace("0.25", "0.250000000001")})
    assert _compare(tool, capsys, *trees) == (1, ["run/a.csv: largest absolute difference 1e-12, largest relative "
                                                  "difference 4e-12"])


def test_a_comment_line_alone_is_no_numeric_difference(tool, capsys, tmp_path):
    # the bytes differ, so the file is reported, but every number is the same
    trees = _trees(tmp_path, {"run/a.csv": CSV.replace("# seed 7", "# seed 8")})
    assert _compare(tool, capsys, *trees) == (1, ["run/a.csv: largest absolute difference 0, largest relative "
                                                  "difference 0"])


def test_a_one_ulp_move_beside_an_id_column_reads_as_its_own_relative_size(tool, capsys, tmp_path):
    # each pair is scaled by its own size, not by the file's largest |value| (here the id 499)
    rows = "".join(f"0.5,{i},{5.0 if i == 7 else i / 8}\n" for i in range(500))
    moved = rows.replace("0.5,7,5.0\n", f"0.5,7,{math.nextafter(5.0, 6.0)!r}\n")
    trees = _trees(tmp_path, {"run/a.csv": "time,particle_id,x1\n" + moved})
    (tmp_path / "old" / "run" / "a.csv").write_text("time,particle_id,x1\n" + rows)
    assert _compare(tool, capsys, *trees) == (1, ["run/a.csv: largest absolute difference 8.88e-16, largest relative "
                                                  "difference 1.78e-16"])


def test_a_changed_text_cell_gives_structure_differs(tool, capsys, tmp_path):
    trees = _trees(tmp_path, {"run/a.csv": CSV.replace("particle_id", "particle")})
    assert _compare(tool, capsys, *trees) == (1, ["run/a.csv: structure differs"])


def test_a_changed_json_leaf_gives_its_difference_and_an_extra_key_structure_differs(tool, capsys, tmp_path):
    trees = _trees(tmp_path / "leaf", {"run/a.json": JSON.replace("1.25", "1.75")})
    assert _compare(tool, capsys, *trees) == (1, ["run/a.json: largest absolute difference 0.5, largest relative "
                                                  "difference 0.286"])
    trees = _trees(tmp_path / "key", {"run/a.json": JSON.replace('"seed": 7,', '"seed": 7, "n": 2,')})
    assert _compare(tool, capsys, *trees) == (1, ["run/a.json: structure differs"])


def test_an_other_file_differs_and_a_file_on_one_side_is_reported(tool, capsys, tmp_path):
    old, new = _trees(tmp_path, {"run/a.svg": "<svg></svg>"})
    (new / "run" / "b.csv").write_text(CSV)
    assert _compare(tool, capsys, old, new) == (1, ["run/a.svg: differs", "run/b.csv: only in new"])


def test_a_differing_exit_code_is_reported(tool, capsys, tmp_path):
    trees = _trees(tmp_path, {"exit_codes.txt": EXIT_CODES.replace("seed=3 exit=0", "seed=3 exit=2")})
    assert _compare(tool, capsys, *trees) == (1, ["exit code: verify fig2 seed=3 exit=0 against verify fig2 seed=3 "
                                                  "exit=2"])


@pytest.mark.parametrize("argv", [["diff_outputs.py"], ["diff_outputs.py", "HEAD", "HEAD"]])
def test_a_wrong_number_of_arguments_gives_2_and_the_usage(tool, capsys, argv):
    assert tool.main(argv) == 2
    assert capsys.readouterr().err == "Usage: python tools/diff_outputs.py REV\n"


def test_a_revision_git_does_not_know_gives_2(tool):
    assert tool.main(["diff_outputs.py", "no-such-revision"]) == 2
