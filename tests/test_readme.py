import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_prints_what_its_comments_promise():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["('x1',)", "(('x2', 'x3'),)"]
