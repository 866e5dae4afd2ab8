"""The standing size constraint on the library source."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blockten"
BUDGET = 3500


def test_library_source_stays_within_its_line_budget():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no library source under {SRC}"
    # newline bytes, the count ``cat src/blockten/*.py | wc -l`` prints
    lines = sum(path.read_bytes().count(b"\n") for path in paths)
    assert lines <= BUDGET, (
        f"src/blockten/*.py holds {lines} lines; the standing constraint in ROADMAP.md "
        f"keeps src/ at or below {BUDGET} lines, so offset what a change adds")
