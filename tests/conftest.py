"""One hypothesis profile for every property test: derandomized, so a run
draws the same examples each time, and with no example database.

Hypothesis still caches what it reads from the sources (constants, Unicode
tables) under its home directory, `./.hypothesis` unless
HYPOTHESIS_STORAGE_DIRECTORY says otherwise. Its pytest plugin fills that
cache while collecting, so the home is moved here, at import, to the system
temporary directory: the suite writes nothing into the tree."""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "disents-hypothesis"))
settings.register_profile("disents", derandomize=True, database=None, deadline=None)
settings.load_profile("disents")
