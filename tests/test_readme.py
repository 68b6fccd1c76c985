"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _section(text, heading):
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else None]


def test_library_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        section = _section(fh.read(), "Library example")
    # the first block lists signatures; the one that imports is the example
    blocks = [b for b in re.findall(r"```python\n(.*?)```", section, re.S) if b.startswith("import")]
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    samples = namespace["samples"]
    assert samples.dtype.names == ("drop_index", "seed", "capacity")
    assert samples.drop_index.tolist() == list(range(2000))
    assert re.search(r"^median \d+\.\d\d b/s/Hz$", capsys.readouterr().out, re.M)
