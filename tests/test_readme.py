"""The README's library example runs as written, and each line it prints is
the `# ...` comment that ends its print call: exactly, or as a prefix where
the comment ends in "..."."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library example" heading."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = library_example()
    calls = re.findall(r"^print\(.*$", code, re.M)
    comments = re.findall(r"^print\(.*\)  # (.*)$", code, re.M)
    assert len(comments) == len(calls) > 0  # every print call ends in its expected line
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        if comment.endswith("..."):
            assert line.startswith(comment.removesuffix("...")), (line, comment)
        else:
            assert line == comment
