"""``pytest benchmarks/ --experiments-md PATH``: the run that checks every
claim also writes the generated EXPERIMENTS.md."""

from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS, document, record, run


def pytest_addoption(parser):
    parser.addoption("--experiments-md", metavar="PATH", default=None,
                     help="write the generated EXPERIMENTS.md to PATH")


@pytest.fixture(scope="session")
def sections(request):
    """``{row: its EXPERIMENTS.md section}``, filled by each test."""
    done = {}
    yield done
    path = request.config.getoption("--experiments-md")
    if path:
        # calibration has no script, so no test of its own in this run
        record(EXPERIMENTS["calibration"], run(EXPERIMENTS["calibration"]),
               done)
        Path(path).write_text(document(done), encoding="utf-8")
