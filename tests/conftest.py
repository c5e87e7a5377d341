"""Under python -O pytest rewrites the asserts of test modules only, and
every other assert is stripped; registering the helper modules keeps
theirs, such as replay.py's checks on each walked path."""

import pytest

pytest.register_assert_rewrite("replay", "support")
