"""Tests for SBST routine models."""

import pytest

from repro.platform.coretypes import get_core_type
from repro.platform.dvfs import build_vf_table
from repro.platform.technology import get_tech_model
from repro.testing.sbst import SBSTLibrary, SBSTRoutine, default_library


@pytest.fixture
def table(node16):
    return build_vf_table(node16)


@pytest.fixture
def library():
    return SBSTLibrary(
        [
            SBSTRoutine("a", cycles=1000.0, power_factor=1.2, coverage=0.5),
            SBSTRoutine("b", cycles=3000.0, power_factor=0.8, coverage=0.5),
        ]
    )


def test_routine_duration_scales_inverse_frequency(table):
    routine = SBSTRoutine("r", cycles=7000.0)
    fast = routine.duration_at(table.max_level)
    slow = routine.duration_at(table.min_level)
    assert fast == pytest.approx(7000.0 / table.max_level.f_mhz)
    assert slow > fast


def test_routine_validation():
    with pytest.raises(ValueError):
        SBSTRoutine("r", cycles=0.0)
    with pytest.raises(ValueError):
        SBSTRoutine("r", cycles=10.0, power_factor=0.0)
    with pytest.raises(ValueError):
        SBSTRoutine("r", cycles=10.0, coverage=0.0)
    with pytest.raises(ValueError):
        SBSTRoutine("r", cycles=10.0, coverage=1.1)


def test_library_total_cycles(library):
    assert library.total_cycles == 4000.0


def test_library_session_duration(library, table):
    assert library.session_duration(table.max_level) == pytest.approx(
        4000.0 / table.max_level.f_mhz
    )


def test_library_power_factor_cycle_weighted(library):
    expected = (1000.0 * 1.2 + 3000.0 * 0.8) / 4000.0
    assert library.session_power_factor() == pytest.approx(expected)


def test_library_session_coverage_combines(library):
    assert library.session_coverage() == pytest.approx(1.0 - 0.5 * 0.5)


def test_library_session_power_positive(library, node16, table):
    cmos = get_tech_model("cmos")
    std = get_core_type("std")
    low = library.session_power(cmos, node16, std, table.min_level)
    assert low > 0.0
    assert library.session_power(cmos, node16, std, table.max_level) > low


def test_library_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        SBSTLibrary([])
    with pytest.raises(ValueError):
        SBSTLibrary([SBSTRoutine("a", 1.0), SBSTRoutine("a", 2.0)])


def test_default_library_shape():
    lib = default_library()
    assert len(lib) == 5
    assert lib.total_cycles == pytest.approx(120_000.0)
    assert 0.0 < lib.session_coverage() < 1.0


def test_default_library_scales():
    assert default_library(2.0).total_cycles == pytest.approx(240_000.0)
    with pytest.raises(ValueError):
        default_library(0.0)


def test_default_library_duration_reasonable(table):
    """Session ~34 µs at 3.5 GHz nominal (order-of SBST program length)."""
    duration = default_library().session_duration(table.max_level)
    assert 20.0 < duration < 60.0
