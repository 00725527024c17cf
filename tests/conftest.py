import numpy as np
import pytest

from headmem.numerics import default_dtype, set_default_dtype


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    """CLI subcommands set the process-wide dtype; keep tests independent."""
    before = default_dtype()
    yield
    set_default_dtype("f64" if before == np.float64 else "f32")


@pytest.fixture
def grid_reselections(monkeypatch):
    """Row counts of each full-grid re-selection two_stage_topk runs."""
    from headmem import memory

    calls = []
    grid_topk = memory._grid_topk

    def counting(s_row, s_col, k):
        calls.append(s_row.shape[0])
        return grid_topk(s_row, s_col, k)

    monkeypatch.setattr(memory, "_grid_topk", counting)
    return calls
