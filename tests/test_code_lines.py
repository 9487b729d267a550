"""The code-line rule (`benchmarks/code_lines.py`)."""

from benchmarks.code_lines import count_code_lines, count_paths, main

SAMPLE = '''"""Module docstring,
two lines."""

import os  # a trailing comment still leaves a code line

# a comment-only line


def f(x):
    """Docstring."""
    text = """a string that is
    data, not a docstring"""
    return (
        x
        + 1
    )
'''


def test_counts_only_lines_with_code_tokens():
    # import, def, the 2-line string assignment, the 4-line return.
    assert count_code_lines(SAMPLE) == 8


def test_deleting_comments_blanks_and_docstrings_earns_nothing():
    stripped = "\n".join(
        line
        for line in SAMPLE.splitlines()
        if line.strip()
        and not line.strip().startswith("#")
        and line != '    """Docstring."""'
    )
    assert stripped != SAMPLE
    assert count_code_lines(stripped) == count_code_lines(SAMPLE)


def test_walks_directories_and_prints_a_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    counts = count_paths([tmp_path])
    assert sorted(counts.values()) == [1, 8]
    assert main([str(tmp_path)]) == 0
    assert "9  total (2 files)" in capsys.readouterr().out
    assert main([]) == 2
