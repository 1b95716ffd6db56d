import chaos_engine
import pytest

from repro.engines import register_engine


@pytest.fixture
def chaos(tmp_path):
    """Faulting programs for this test (see :mod:`chaos_engine`); the
    stock ``freezeml`` engine is restored afterwards."""
    previous = chaos_engine.install(tmp_path)
    yield tmp_path
    register_engine(previous, replace=True)
