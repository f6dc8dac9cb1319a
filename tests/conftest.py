"""Test-session configuration.

Property tests draw their examples from a fixed derandomized sequence, so a
run is reproducible and its length does not depend on the machine's speed
(no per-example deadline).  No example database is kept, and hypothesis'
own cache (source constants it mines for examples) goes to the system
temporary directory, so nothing is written into the checkout.  A test's
own ``@settings`` still override this profile.
"""

import os
import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # property tests skip or fail on their own import
    pass
else:
    set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(),
                                         "boundary-forge-hypothesis"))
    settings.register_profile("boundary-forge", derandomize=True,
                              deadline=None, database=None)
    settings.load_profile("boundary-forge")
