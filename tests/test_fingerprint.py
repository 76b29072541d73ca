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


@pytest.fixture
def stubbed_check(monkeypatch, tmp_path):
    """`fingerprint.check` over stubbed digests: one per golden run and
    two workload lines, with the file of those lines to check against."""
    monkeypatch.setattr(fingerprint, "fingerprint", lambda name: f"{len(name):064x}")
    monkeypatch.setattr(fingerprint, "workload_fingerprints",
                        lambda: iter([("wide_dump", 0, "a" * 64), ("wide_dump", 1, "b" * 64)]))
    lines = [f"{name} {len(name):064x}" for name in sorted(fingerprint.RUNS)]
    lines += ["wide_dump seed 0 " + "a" * 64, "wide_dump seed 1 " + "b" * 64]
    return tmp_path / "fingerprints.txt", lines


def test_check_passes_on_matching_lines(capsys, stubbed_check):
    path, lines = stubbed_check
    path.write_text("\n".join(lines) + "\n")
    assert fingerprint.check(path) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("tamper", ["run", "workload", "missing"])
def test_check_prints_each_differing_line(capsys, stubbed_check, tamper):
    path, lines = stubbed_check
    committed = list(lines)
    if tamper == "run":
        committed[0] = committed[0][:-1] + "f"
    elif tamper == "workload":
        committed[-1] = committed[-1].replace("wide_dump", "toy_gd_queue")
    else:
        del committed[-1]
    path.write_text("\n".join(committed) + "\n")
    assert fingerprint.check(path) == 1
    out = capsys.readouterr().out.splitlines()
    i = 0 if tamper == "run" else -1
    want = "(no line)" if tamper == "missing" else committed[i]
    assert out == [f"committed:  {want}", f"recomputed: {lines[i]}"]
