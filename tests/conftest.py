"""Test-suite configuration: hypothesis profiles.

``compile-fuzz`` is the longer soak of the generated-design differential
test (``tests/rtl/test_edge_fuzz.py``)::

    PYTHONPATH=src python -m pytest tests/rtl/test_edge_fuzz.py \
        --hypothesis-profile compile-fuzz

Without the flag the test runs its bounded tier-1 example count.
"""

from hypothesis import settings

settings.register_profile("compile-fuzz", max_examples=400, deadline=None)
