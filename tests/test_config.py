"""Configuration defaults (Table 1) and validation."""

import ast
import dataclasses
import re
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


class TestEveryPublicNameHasACaller:
    """A public module-level name in ``src/repro`` is there because a
    program uses it.  A name that only tests call is code the package
    carries for the tests' sake, and one nothing calls is dead: either
    way it goes, unless :attr:`TEST_ONLY` says why a test needs it in
    ``src/``."""

    ROOT = Path(__file__).resolve().parent.parent
    #: Where a load of the name, or an import of it, counts as a call.
    #: Package ``__init__`` files are scanned too (they call
    #: ``lazy_exports``), but their export tables are strings.
    CALLER_DIRS = ("src/repro", "bench", "examples", "benchmarks")
    #: Documents whose mention of a name promises it to users.
    CALLER_DOCS = ("README.md", ".github/workflows/ci.yml")
    #: Names only tests call (``Class.member`` for a method or
    #: property), each with why it stays in ``src/``.
    TEST_ONLY = {
        "ScriptedTraffic": "the one scripted arrival source the network "
                           "tests drive runs with",
        "floyd_warshall": "the dense all-pairs oracle core/placement.py's "
                          "docstring names for its BFS/Dijkstra distances",
        "WakeupFault": "the value type of FaultPlan.wakeup_faults, which "
                       "the network applies; the kernel-identity suites "
                       "and tests/slow_wakeup_sweep.py build them, no flag "
                       "or experiment does",
        "RoundRobinArbiter.grant": "the dense specification "
                                   "tests/test_arbiter.py holds grant_from, "
                                   "which every allocator calls, to",
        "Mesh.hop_distance": "the Manhattan distance the routing, ring, "
                             "placement and property tests hold minimal "
                             "paths to",
    }
    #: Registries that reach a function by its name as a string: the
    #: string argument of a call ``key("name", ...)`` is a use of the
    #: function ``name`` of the value's module, and must name one.
    BY_STRING = {"_synthetic": "src/repro/traffic/synthetic.py"}

    @staticmethod
    def bound_names(stmt) -> list:
        """The names a top-level statement defines."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return [stmt.name]
        if isinstance(stmt, ast.Assign):
            return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            return [stmt.target.id]
        return []

    @staticmethod
    def annotations(stmt) -> set:
        """The ids of the nodes of ``stmt`` that only type-check: its
        annotations and its ``if TYPE_CHECKING:`` blocks."""
        roots = []
        for node in ast.walk(stmt):
            if isinstance(node, ast.arg):
                roots.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                roots.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                roots.append(node.annotation)
            elif isinstance(node, ast.If) and \
                    isinstance(node.test, ast.Name) and \
                    node.test.id == "TYPE_CHECKING":
                roots.extend(node.body)
        return {id(n) for root in roots if root is not None
                for n in ast.walk(root)}

    @classmethod
    def used_names(cls, stmt) -> tuple:
        """The names a statement loads, reads as an attribute or
        imports: those outside :meth:`annotations`, then those inside.
        A name only annotations mention is called by nothing, unless it
        is a type alias (:meth:`is_alias`)."""
        typed = cls.annotations(stmt)
        used, annotated = set(), set()
        for node in ast.walk(stmt):
            names = annotated if id(node) in typed else used
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
        return used, annotated

    @staticmethod
    def is_alias(stmt) -> bool:
        """A type alias (``Cell = Union[str, int]``): a name for
        annotations, so a use in one is its call."""
        return isinstance(stmt, ast.Assign) and \
            isinstance(stmt.value, ast.Subscript)

    def by_string(self, tree) -> set:
        """``(module, name)`` for each function a :attr:`BY_STRING`
        registry call in ``tree`` names."""
        return {(self.BY_STRING[node.func.id], node.args[0].value)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.BY_STRING
                and node.args and isinstance(node.args[0], ast.Constant)}

    def modules(self):
        """``(caller directory, module path, parsed tree)`` for every
        file of :attr:`CALLER_DIRS`."""
        for directory in self.CALLER_DIRS:
            for path in sorted((self.ROOT / directory).rglob("*.py")):
                yield (directory, path.relative_to(self.ROOT).as_posix(),
                       ast.parse(path.read_text()))

    def in_docs(self, names) -> set:
        """The ``names`` that :attr:`CALLER_DOCS` mention."""
        docs = "\n".join((self.ROOT / doc).read_text()
                         for doc in self.CALLER_DOCS)
        return {name for name in names
                if re.search(rf"\b{re.escape(name)}\b", docs)}

    def scan(self):
        """``(public name -> defining module, names called, (module,
        name) named by string)``; a name's use inside its own definition
        is not a call."""
        defined, called, named = {}, set(), set()
        aliases, annotated = set(), set()
        for directory, module, tree in self.modules():
            named |= self.by_string(tree)
            for stmt in tree.body:
                own = self.bound_names(stmt)
                used, typed = self.used_names(stmt)
                called |= used - set(own)
                annotated |= typed
                if self.is_alias(stmt):
                    aliases.update(own)
                if directory == "src/repro" and \
                        not module.endswith("/__init__.py"):
                    for name in own:
                        if not name.startswith("_") and name != "main":
                            defined.setdefault(name, module)
        called |= self.in_docs(defined)
        called |= aliases & annotated
        return defined, called | {name for _, name in named}, named

    def test_every_public_name_has_a_caller(self):
        defined, called, named = self.scan()
        functions = {
            module: {stmt.name for stmt in ast.parse(
                (self.ROOT / module).read_text()).body
                if isinstance(stmt, ast.FunctionDef)}
            for module in self.BY_STRING.values()}
        unknown = sorted(f"{module}:{name}" for module, name in named
                         if name not in functions[module])
        assert unknown == [], (
            f"registry strings that name no function: {unknown}")
        uncalled = sorted(f"{module}:{name}"
                          for name, module in defined.items()
                          if name not in called
                          and name not in self.TEST_ONLY)
        assert uncalled == [], (
            "public names nothing in src/, bench/, examples/, benchmarks/, "
            f"README.md or CI calls: {uncalled}; delete them or, for a "
            "test oracle or fixture, give the reason in TEST_ONLY")
        stale = sorted(name for name in self.TEST_ONLY if "." not in name
                       and (name not in defined or name in called))
        assert stale == [], (
            f"TEST_ONLY entries that are gone or have a caller now: {stale}")

    def scan_members(self):
        """``(Class.member -> defining module, member names called)`` for
        the public non-dunder methods and properties of the classes in
        ``src/repro``; a member's use inside its own body is not a
        call."""
        defined, called = {}, set()
        for directory, module, tree in self.modules():
            for stmt in tree.body:
                body = stmt.body if isinstance(stmt, ast.ClassDef) \
                    else [stmt]
                for node in body:
                    own = set(self.bound_names(node))
                    called |= self.used_names(node)[0] - own
                    if directory == "src/repro" and \
                            isinstance(stmt, ast.ClassDef) and \
                            isinstance(node, ast.FunctionDef) and \
                            not node.name.startswith("_"):
                        defined.setdefault(f"{stmt.name}.{node.name}",
                                           module)
        called |= self.in_docs({member.split(".")[1] for member in defined})
        return defined, called

    def test_every_public_member_has_a_caller(self):
        """The same rule for the methods and properties of a class: a
        load of ``.name`` anywhere in the callers is a call of every
        member of that name (no type inference)."""
        defined, called = self.scan_members()
        uncalled = sorted(f"{module}:{member}"
                          for member, module in defined.items()
                          if member.split(".")[1] not in called
                          and member not in self.TEST_ONLY)
        assert uncalled == [], (
            "public methods and properties nothing in src/, bench/, "
            f"examples/, benchmarks/, README.md or CI calls: {uncalled}; "
            "delete them or, for a test oracle, give the reason in "
            "TEST_ONLY")
        stale = sorted(member for member in self.TEST_ONLY if "." in member
                       and (member not in defined
                            or member.split(".")[1] in called))
        assert stale == [], (
            f"TEST_ONLY members that are gone or have a caller now: {stale}")
