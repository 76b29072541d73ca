import re

import pytest

import fingerprint


@pytest.mark.parametrize("args", [[], ["no_such_run"], ["small_none", "no_such_run"],
                                  ["--all", "small_none"]])
def test_usage_for_no_or_unknown_run(capsys, args):
    assert fingerprint.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err


def test_one_line_per_run_and_stable(capsys):
    assert fingerprint.main(["small_none", "small_gd", "small_none"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["small_none", "small_gd", "small_none"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert lines[0] == lines[2] != lines[1].replace("small_gd", "small_none")
