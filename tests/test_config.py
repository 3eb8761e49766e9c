"""Configuration defaults (Table 1) and validation."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.config import (FREQUENCY_HZ, ROUTER_PIPELINE_STAGES, Design,
                          NoCConfig, PowerGateConfig, RoutingConfig,
                          SimConfig, small_config)


class TestDesign:
    def test_all_contains_four_designs(self):
        assert len(Design.ALL) == 4
        assert Design.NO_PG in Design.ALL
        assert Design.NORD in Design.ALL

    def test_gated_excludes_no_pg(self):
        assert Design.NO_PG not in Design.GATED
        assert set(Design.GATED) == {Design.CONV_PG, Design.CONV_PG_OPT,
                                     Design.NORD}


class TestNoCConfigTable1:
    """Defaults must match the paper's Table 1."""

    def test_mesh_is_4x4(self):
        noc = NoCConfig()
        assert (noc.width, noc.height) == (4, 4)
        assert noc.num_nodes == 16

    def test_four_vcs_per_port(self):
        assert NoCConfig().vcs_per_port == 4

    def test_five_flit_buffers(self):
        assert NoCConfig().buffer_depth == 5

    def test_128_bit_links(self):
        assert NoCConfig().link_bits == 128

    def test_3ghz_router(self):
        assert FREQUENCY_HZ == pytest.approx(3.0e9)
        assert NoCConfig().cycle_time_s == pytest.approx(1 / 3.0e9)

    def test_four_stage_pipeline(self):
        assert ROUTER_PIPELINE_STAGES == 4


class TestPowerGateConfig:
    def test_wakeup_latency_12_cycles(self):
        """4ns at 3GHz (Section 5.1)."""
        assert PowerGateConfig().wakeup_latency == 12

    def test_breakeven_time_10_cycles(self):
        assert PowerGateConfig().breakeven_time == 10

    def test_asymmetric_thresholds(self):
        pg = PowerGateConfig()
        assert pg.perf_threshold == 1
        assert pg.power_threshold == 3
        assert pg.perf_threshold < pg.power_threshold

    def test_wakeup_window_10_cycles(self):
        assert PowerGateConfig().wakeup_window == 10


class TestSimConfig:
    def test_default_design_is_no_pg(self):
        assert SimConfig().design == Design.NO_PG

    def test_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            SimConfig(design="TurboPG")

    def test_rejects_too_few_vcs(self):
        with pytest.raises(ValueError, match="at least 2 VCs"):
            SimConfig(noc=NoCConfig(vcs_per_port=1))

    def test_replace_returns_modified_copy(self):
        cfg = SimConfig()
        cfg2 = cfg.replace(seed=99)
        assert cfg2.seed == 99
        assert cfg.seed == 1
        assert cfg2.noc == cfg.noc

    def test_escape_vcs_per_design(self):
        assert SimConfig(design=Design.NORD).escape_vcs == 2
        assert SimConfig(design=Design.CONV_PG).escape_vcs == 1
        assert SimConfig(design=Design.NO_PG).escape_vcs == 1

    def test_small_config_scales_down(self):
        cfg = small_config(Design.NORD, warmup=100, measure=500)
        assert cfg.design == Design.NORD
        assert cfg.warmup_cycles == 100
        assert cfg.measure_cycles == 500

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SimConfig().seed = 5


class TestEveryFieldIsRead:
    """A config field is a setting only if the simulator reads it: a
    field nothing reads still changes every cache key and silently
    accepts values that do nothing.  What no run varies belongs in a
    module constant of :mod:`repro.config`."""

    #: Defining a field, or printing it in Table 1, is not reading it.
    NOT_READERS = ("config.py", "experiments/table1_config.py")

    @staticmethod
    def attributes_read(package: Path, skip) -> set:
        names = set()
        for path in package.rglob("*.py"):
            if path.relative_to(package).as_posix() in skip:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
        return names

    def test_every_config_field_is_read(self):
        read = self.attributes_read(Path(repro.__file__).parent,
                                    self.NOT_READERS)
        unread = [f"{cls.__name__}.{f.name}"
                  for cls in (NoCConfig, PowerGateConfig, RoutingConfig,
                              SimConfig)
                  for f in dataclasses.fields(cls) if f.name not in read]
        assert unread == [], (
            f"config fields read nowhere in src/repro: {unread}; delete "
            "them or make them module constants")
