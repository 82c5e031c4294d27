from pathlib import Path

SEED_LINES = 3378  # lines of src/tsgad/*.py when the project was seeded


def test_package_stays_under_its_seed_line_count():
    """The package's line count, as ``wc -l src/tsgad/*.py`` reports it, never exceeds the seed's."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "tsgad").glob("*.py"))
    counts = {p.name: p.read_bytes().count(b"\n") for p in sources}
    assert sources and sum(counts.values()) <= SEED_LINES, counts
