import pytest
from hypothesis import settings

# Tier-1 compares pass counts across commits, so every run draws the same
# examples: a property that fails only at a rare point fails every time,
# or never, rather than on some runs.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collects one pass/fail line per acceptance criterion; the lines are
    echoed immediately and again in the terminal summary."""

    def report(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)
        print(line, flush=True)

    return report


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
