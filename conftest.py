"""Pytest bootstrap: make ``src/`` importable even without an editable install.

The project is normally installed with ``pip install -e .`` (or
``python setup.py develop`` on machines without the ``wheel`` package); this hook
only exists so that cloning the repository and running ``pytest`` immediately works.

It also exposes a ``--jobs`` option that sets the ensemble worker count for the
benchmark suite (exported through the ``QUORUM_N_JOBS`` environment variable,
which ``ExperimentSettings`` reads), so e.g. ``pytest benchmarks --jobs 2`` runs
every experiment's members on a two-worker process pool.
"""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    group = parser.getgroup("quorum")
    group.addoption("--jobs", action="store", default=None, type=int,
                    help="ensemble workers for benchmark runs")


def pytest_configure(config):
    jobs = config.getoption("--jobs")
    if jobs is not None:
        os.environ["QUORUM_N_JOBS"] = str(jobs)
