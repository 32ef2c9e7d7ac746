from unittest import mock

import pytest

from mpcx import beamspace


@pytest.fixture(scope="module")
def derive_aoa_rows():
    """Every transform at os_aoa > 1 stores only its critical AoA rows and
    derives the others, whatever its size, as the paper protocol's grids do:
    the small grids of a module that uses this run the derived-AoA code."""
    with mock.patch.object(beamspace, "_AOA_PLANE_ENTRIES", 0):
        yield
