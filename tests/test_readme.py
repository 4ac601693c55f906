"""README's examples run as written, so an API change cannot leave them stale."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(heading: str) -> str:
    """The first ```python block under README's `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(section_code("Library"), "README.md (Library)", "exec"), namespace)
    assert len(namespace["events"]) == 1
    assert namespace["outcome"].classification in {
        "tt_or_phi_sector", "ss_or_phi_sector", "psi_plus", "psi_minus"}
    assert capsys.readouterr().out.count("\n") == 1
