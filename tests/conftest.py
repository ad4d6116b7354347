"""One hypothesis profile for every property test: derandomized, so a run
draws the same examples each time, and with no example database.

Hypothesis still caches what it reads from the sources (constants, Unicode
tables) under its home directory, `./.hypothesis` unless
HYPOTHESIS_STORAGE_DIRECTORY says otherwise. Its pytest plugin fills that
cache while collecting, so the home is moved here, at import, to the system
temporary directory: the suite writes nothing into the tree.

numcore's shared thread pool is dropped after every test (see below)."""

import os
import tempfile

import pytest
from hypothesis import settings

import disents.numcore as nc

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "disents-hypothesis"))
settings.register_profile("disents", derandomize=True, database=None, deadline=None)
settings.load_profile("disents")


@pytest.fixture(autouse=True)
def _drop_shared_pool():
    """Shut numcore's shared pool down after each test, so a pool sized by
    one test's DISENTS_THREADS cannot carry into the next.

    The suite is meant to run with DISENTS_THREADS unset, so only tests that
    set it take the threaded path."""
    yield
    nc.drop_pool()
