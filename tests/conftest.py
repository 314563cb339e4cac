import pytest
from hypothesis import settings

# Tier-1 compares pass counts across commits, so every run draws the same
# examples: a property that fails only at a rare point fails every time,
# or never, rather than on some runs.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def first_top(monkeypatch):
    """first_top(model, top): for the rest of the test, level_window of
    the model's variant returns top, so that solve_levels and sweep_levels
    end each first scan window there (shifted above e_min as the model's
    own estimate is)."""

    def patch(model, top: float) -> None:
        monkeypatch.setattr(type(model), "level_window", lambda self, units, n_levels: top)

    return patch


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
