"""``scripts/code_size.py``, the code-size count: lines that hold a token
other than a comment or a docstring."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_size.py"
spec = importlib.util.spec_from_file_location("code_size", SCRIPT)
code_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_size)


def test_code_size_counts_only_the_statement(tmp_path, capsys):
    # A docstring, a comment and one statement: only the statement counts,
    # per file and in the total.
    (tmp_path / "fixture.py").write_text('"""A docstring."""\n# A comment.\nx = 1\n')
    assert code_size.code_lines(tmp_path / "fixture.py") == 1
    code_size.main([str(tmp_path)])
    assert capsys.readouterr().out == "fixture.py\t1\ntotal\t1\n"
