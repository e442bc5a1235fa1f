"""Shared test configuration.

Hypothesis runs derandomized and without its example database, so every run
of the suite draws the same examples. Its remaining cache (constants mined
from the source) goes to a temporary directory, so a test run writes no
`.hypothesis/` into the working tree. Each test's own `@settings` still sets
its `max_examples`.
"""

import os
import tempfile

from hypothesis import settings

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")  # removed at exit
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
