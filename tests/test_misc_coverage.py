"""Assorted coverage: import paths, monitors, small API corners."""

import ast
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.net.link import Link
from repro.net.monitor import ArrivalMonitor
from repro.net.node import Node
from repro.net.packet import PacketFactory
from repro.sim.engine import Simulator

SRC = Path(__file__).resolve().parent.parent / "src"


class TestOneImportPath:
    """Every public name is imported from the module that defines it: a
    package ``__init__`` is its docstring, so importing one module loads
    that module's own imports and nothing else."""

    #: What a package ``__init__`` may hold beside its docstring, as
    #: ``(statement kind, name)``: the engine knob's values, and the
    #: scheduler row names the benchmark ledger reads from ``repro.sim``.
    INIT_EXTRAS = {
        "repro.engine": [("assign", "ENGINES")],
        "repro.sim": [("import", "SCHEDULERS"), ("assign", "__all__")],
    }

    #: Public names in ``src/repro`` that nothing outside the tests
    #: references, each with the reason it stays:
    #: ``{qualified name: reason}``.  A new test-only helper needs a row.
    TEST_ONLY_NAMES = {
        "repro.core.dependence.dispersion_index": (
            "the pooled D of the c.o.v.'s exact split; ROADMAP item 2(b) consumes it"
        ),
        "repro.core.theory.cov_from_dispersion": (
            "the c.o.v. from D and R, exactly; ROADMAP item 2(b) consumes it"
        ),
        "repro.core.theory.reno_fluid_throughput": (
            "analytic oracle test_fluid_crossvalidation checks the solver against"
        ),
        "repro.core.theory.vegas_equilibrium_window": (
            "analytic oracle test_fluid_crossvalidation checks the solver against"
        ),
        "repro.forensics.windows.SpaceSavingSketch.estimate": (
            "the space-saving guarantee tests read the sketch's estimate"
        ),
        "repro.forensics.windows.SpaceSavingSketch.guaranteed": (
            "the space-saving guarantee tests read the guaranteed count"
        ),
        "repro.forensics.windows.SpaceSavingSketch.max_error": (
            "the space-saving guarantee tests read the error bound"
        ),
        "repro.net.tracefile.read_trace": (
            "the ns-2 reader DESIGN section 5 promises; reads back what the writer wrote"
        ),
        "repro.net.tracefile.arrival_times": (
            "the ns-2 reader DESIGN section 5 promises; reads back what the writer wrote"
        ),
        "repro.sim.timers.Timer.expiry": "the tests' only window onto a timer's deadline",
        "repro.transport.tcp_base.TcpSender.send_buffer_backlog": (
            "the tests' only window onto a sender's backlog"
        ),
    }

    @staticmethod
    def _loaded_after(module):
        """Every module in ``sys.modules`` after ``import module`` in a
        fresh interpreter."""
        code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        return set(json.loads(done.stdout))

    @staticmethod
    def _modules():
        for path in sorted((SRC / "repro").rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            yield ".".join(parts), path, ast.parse(path.read_text())

    def test_importing_one_module_loads_only_its_own_imports(self):
        engine = self._loaded_after("repro.sim.engine")
        assert {name for name in engine if name.startswith("repro")} == {
            "repro", "repro.sim", "repro.sim.engine", "repro.sim.events",
        }
        assert "numpy" not in engine
        cov = self._loaded_after("repro.core.cov")
        assert not [name for name in cov if name.startswith("repro.experiments")]
        config = self._loaded_after("repro.experiments.config")
        assert "numpy" not in config
        assert "repro.experiments.scenario" not in config

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core.fluid_backend",
            "repro.experiments.results",
            "repro.experiments.cache",
            "repro.experiments.config",
        ],
    )
    def test_cell_types_and_their_readers_load_no_engine(self, module):
        """A cell's config and result types sit below every engine, so
        the fluid solver, the flat metrics and the result cache load no
        packet machinery: no topology, traffic, app or forensics module,
        no batch engine or packet scenario, and of the transport layer
        only the rules and the parameters they read."""
        assert sorted(filter(self._is_engine_part, self._loaded_after(module))) == []

    @staticmethod
    def _is_engine_part(name):
        package = ".".join(name.split(".")[:2])
        if package in ("repro.net", "repro.traffic", "repro.apps", "repro.forensics"):
            return True
        if package == "repro.transport":
            return name not in ("repro.transport", "repro.transport.transitions")
        return name in ("repro.engine.batch", "repro.experiments.scenario")

    def test_package_inits_hold_only_their_docstring(self):
        found = {}
        for name, path, tree in self._modules():
            if path.name != "__init__.py":
                continue
            assert ast.get_docstring(tree), name
            extras = []
            for node in tree.body[1:]:
                if isinstance(node, ast.ImportFrom):
                    extras += [("import", alias.name) for alias in node.names]
                elif isinstance(node, ast.Assign):
                    extras += [("assign", target.id) for target in node.targets]
                else:
                    extras.append((type(node).__name__, ast.dump(node)))
            if extras:
                found[name] = extras
        assert found == self.INIT_EXTRAS

    def test_no_module_exports_a_name_it_imports(self):
        reexported = []
        for name, _path, tree in self._modules():
            imported = {
                (alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in node.targets
                ):
                    reexported += [
                        (name, listed)
                        for listed in ast.literal_eval(node.value)
                        if listed in imported
                    ]
        assert reexported == [("repro.sim", "SCHEDULERS")]

    @staticmethod
    def _references(tree):
        """Every name ``tree`` refers to: names, attribute names,
        imported names, and string constants (the ``getattr`` case)."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rpartition(".")[2]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value

    @staticmethod
    def _public_defs(tree):
        """``(qualified name, node)`` of every public top-level function
        and class, and of every public method and property of a public
        class."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name, node
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                            yield f"{node.name}.{member.name}", member

    def test_every_public_name_has_a_caller_outside_the_tests(self):
        """A public name passes when something other than its own
        ``def`` or ``class`` statement refers to it in ``src/``,
        ``examples/`` or ``benchmarks/``; every other one is a row of
        :attr:`TEST_ONLY_NAMES`, and every row is such a name.

        The match is by bare name, so this is necessary but not
        sufficient: a method passes when any object anywhere has an
        attribute of that name, and a string equal to it counts."""
        modules = list(self._modules())
        callers = Counter(
            ref for _name, _path, tree in modules for ref in self._references(tree)
        )
        for folder in ("examples", "benchmarks"):
            for path in sorted((SRC.parent / folder).rglob("*.py")):
                callers.update(self._references(ast.parse(path.read_text())))
        test_only = [
            f"{module}.{qualname}"
            for module, _path, tree in modules
            for qualname, node in self._public_defs(tree)
            if callers[node.name] == sum(ref == node.name for ref in self._references(node))
        ]
        assert sorted(test_only) == sorted(self.TEST_ONLY_NAMES)
        assert all(self.TEST_ONLY_NAMES.values())


class TestFlowArrivalMonitor:
    """The per-flow rows of an ``ArrivalMonitor``."""

    def test_records_per_flow(self):
        monitor = ArrivalMonitor(1.0, 0.0, 4.0)
        factory = PacketFactory()
        monitor.on_packet(factory.data(0, "a", "b", 1000, seqno=0, now=0.0), 1.0)
        monitor.on_packet(factory.data(2, "a", "b", 1000, seqno=0, now=0.0), 2.0)
        monitor.on_packet(factory.data(0, "a", "b", 1000, seqno=1, now=0.0), 3.0)
        assert monitor.flow_counts().tolist() == [
            [0, 1, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 1, 0],
        ]
        assert monitor.counts().tolist() == [0, 1, 1, 1]

    def test_ignores_acks_and_warmup(self):
        monitor = ArrivalMonitor(1.0, 5.0, 8.0)
        factory = PacketFactory()
        monitor.on_packet(factory.ack(0, "b", "a", ackno=0, now=0.0), 6.0)
        monitor.on_packet(factory.data(0, "a", "b", 1000, seqno=0, now=0.0), 1.0)
        assert monitor.flow_counts().shape == (0, 3)
        assert monitor.counts().tolist() == [0, 0, 0]

    def test_a_flow_is_present_from_its_first_arrival_at_or_after_warmup(self):
        """Every flow id up to the largest that arrived in the window
        has a row; an arrival past the last whole bin counts in none."""
        monitor = ArrivalMonitor(1.0, 5.0, 6.5)
        factory = PacketFactory()
        monitor.on_packet(factory.data(1, "a", "b", 1000, seqno=0, now=0.0), 6.2)
        monitor.on_packet(factory.data(4, "a", "b", 1000, seqno=0, now=0.0), 5.0)
        monitor.on_packet(factory.data(6, "a", "b", 1000, seqno=0, now=0.0), 4.9)
        assert monitor.flow_counts().tolist() == [[0], [0], [0], [0], [1]]

    def test_attach_to_interface(self):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        Link(sim, a, b, 1e6, 0.0)
        a.set_default_route("b")
        monitor = ArrivalMonitor(1.0, 0.0, 1.0).attach(a.interfaces["b"])
        factory = PacketFactory()
        import repro.transport.base as base

        class Sink(base.Agent):
            def receive(self, packet):
                pass

        Sink(sim, b, 3, "a", factory)
        a.send(factory.data(3, "a", "b", 1000, seqno=0, now=0.0))
        assert monitor.flow_counts().tolist() == [[0], [0], [0], [1]]
        assert monitor.counts().tolist() == [1]


class TestInterfaceState:
    def test_busy_flag_during_transmission(self):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        Link(sim, a, b, 1e4, 0.0)  # 1000 B takes 0.8 s
        a.set_default_route("b")
        factory = PacketFactory()

        class Sink:
            def receive(self, packet):
                pass

        b.bind_flow(0, Sink())
        a.send(factory.data(0, "a", "b", 1000, seqno=0, now=0.0))
        iface = a.interfaces["b"]
        assert iface.busy
        sim.run(until=0.5)
        assert iface.busy
        sim.run(until=1.0)
        assert not iface.busy


class TestVegasEdgeCases:
    def test_queue_estimate_without_base_rtt(self):
        from repro.transport.vegas import VegasSender

        from tests.helpers import TcpHarness

        h = TcpHarness(VegasSender)
        assert h.sender.queue_estimate(1.0) == 0.0
        assert math.isinf(h.sender.base_rtt)

    def test_epoch_reset_after_timeout(self):
        from repro.transport.transitions import TcpParams
        from repro.transport.vegas import VegasSender

        from tests.helpers import TcpHarness

        h = TcpHarness(
            VegasSender,
            {"params": TcpParams(initial_rto=1.0, min_rto=1.0)},
        )
        h.give_app_packets(10)
        h.advance(1.5)
        assert h.sender.in_slow_start
        assert h.sender._epoch_marker == h.sender.last_ack + 1


class TestMetricsTableColumns:
    def test_custom_columns(self):
        from repro.experiments.config import paper_config
        from repro.experiments.results import ScenarioMetrics, metrics_table
        from repro.experiments.scenario import run_scenario

        metrics = ScenarioMetrics.from_result(
            run_scenario(paper_config(protocol="udp", n_clients=2, duration=3.0))
        )
        table = metrics_table([metrics], columns=("label", "mean_latency"))
        assert "mean_latency" in table

    def test_unknown_column_raises(self):
        from repro.experiments.config import paper_config
        from repro.experiments.results import ScenarioMetrics, metrics_table
        from repro.experiments.scenario import run_scenario

        metrics = ScenarioMetrics.from_result(
            run_scenario(paper_config(protocol="udp", n_clients=2, duration=3.0))
        )
        with pytest.raises(KeyError):
            metrics_table([metrics], columns=("no_such_metric",))


class TestTimeoutFastrtxRatio:
    def test_ratio_edge_cases(self):
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        result = run_scenario(paper_config(protocol="udp", n_clients=2, duration=3.0))
        assert result.timeout_dupack_ratio == 0.0
        assert result.timeout_fastrtx_ratio == 0.0
