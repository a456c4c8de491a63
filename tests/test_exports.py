"""The package's public names: what ``bcscan.__all__`` promises exists, and
the README's lower-level entry points are exported."""

import pathlib
import re

import bcscan

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_entry_points() -> list[str]:
    """The backquoted names of the README paragraph that starts
    "Lower-level entry points:"."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Lower-level entry points:")
    paragraph = text[start : text.index("\n\n", start)]
    return re.findall(r"`(\w+)`", paragraph)


def test_every_exported_name_exists():
    missing = [name for name in bcscan.__all__ if not hasattr(bcscan, name)]
    assert not missing
    assert len(set(bcscan.__all__)) == len(bcscan.__all__)


def test_readme_entry_points_are_exported():
    names = readme_entry_points()
    assert len(names) >= 7
    assert [name for name in names if name not in bcscan.__all__] == []
