"""Tests for the chip (mesh of cores)."""

import pytest

from repro.platform.chip import Chip
from repro.platform.core import CoreState
from repro.platform.technology import get_node


def test_build_dimensions(chip44):
    assert len(chip44) == 16
    assert chip44.width == 4 and chip44.height == 4


def test_core_ids_row_major(chip44):
    assert chip44.core_at(0, 0).core_id == 0
    assert chip44.core_at(3, 0).core_id == 3
    assert chip44.core_at(0, 1).core_id == 4
    assert chip44.core_at(3, 3).core_id == 15


def test_core_lookup_by_id(chip44):
    core = chip44.core(7)
    assert (core.x, core.y) == (3, 1)


def test_core_lookup_out_of_range(chip44):
    with pytest.raises(IndexError):
        chip44.core(16)
    with pytest.raises(IndexError):
        chip44.core_at(4, 0)


def test_neighbors_interior(chip44):
    core = chip44.core_at(1, 1)
    ids = {c.core_id for c in chip44.neighbors(core)}
    assert ids == {
        chip44.core_at(2, 1).core_id,
        chip44.core_at(0, 1).core_id,
        chip44.core_at(1, 2).core_id,
        chip44.core_at(1, 0).core_id,
    }


def test_neighbors_corner(chip44):
    core = chip44.core_at(0, 0)
    assert len(chip44.neighbors(core)) == 2


def test_all_cores_start_idle_at_nominal(chip44):
    for core in chip44:
        assert core.state is CoreState.IDLE
        assert core.level.index == len(chip44.vf_table) - 1


def test_state_queries(chip44):
    chip44.core(0).state = CoreState.BUSY
    chip44.core(1).state = CoreState.TESTING
    chip44.core(2).state = CoreState.FAULTY
    assert [c.core_id for c in chip44.busy_cores()] == [0]
    assert [c.core_id for c in chip44.testing_cores()] == [1]
    assert len(chip44.idle_cores()) == 13
    assert len(chip44.healthy_cores()) == 15


def test_free_cores_excludes_owned(chip44):
    chip44.core(0).owner_app = 1
    free = chip44.free_cores()
    assert chip44.core(0) not in free
    assert len(free) == 15


def test_lit_fraction_matches_node(chip44):
    node = get_node("16nm")
    peak = node.dynamic_power(
        node.vdd_nominal, node.f_nominal_mhz
    ) + node.leakage_power(node.vdd_nominal)
    assert chip44.lit_fraction() == pytest.approx(min(1.0, 20.0 / (16 * peak)))


def test_build_rejects_bad_mesh():
    with pytest.raises(ValueError):
        Chip.build(0, 4)


def test_build_rejects_bad_tdp():
    with pytest.raises(ValueError):
        Chip.build(2, 2, tdp_w=-1.0)


def test_build_unknown_node():
    with pytest.raises(KeyError):
        Chip.build(2, 2, node_name="10nm")
