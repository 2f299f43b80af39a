"""Tests for the structural guards (repro.analysis.structure)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import structure
from repro.analysis.structure import (
    CONSISTENCY_MODULE_LINES,
    MAX_MODULE_LINES,
    build_import_graph,
    check_line_budget,
    check_module_sizes,
    check_tree,
    find_cycle,
    line_ceiling,
    main,
)

REPRO_ROOT = Path(__file__).parent.parent / "src" / "repro"


class TestModuleSizes:
    def test_flags_oversized_module(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "huge.py").write_text(
            "\n".join(f"x{i} = {i}" for i in range(MAX_MODULE_LINES + 1))
        )
        (pkg / "small.py").write_text("x = 1\n")
        problems = check_module_sizes(pkg)
        assert len(problems) == 1
        assert "huge.py" in problems[0]
        assert str(MAX_MODULE_LINES) in problems[0]

    def test_consistency_layer_has_tighter_ceiling(self, tmp_path):
        pkg = tmp_path / "repro" / "consistency"
        pkg.mkdir(parents=True)
        body = "\n".join(
            f"x{i} = {i}" for i in range(CONSISTENCY_MODULE_LINES + 1)
        )
        (pkg / "bloated.py").write_text(body)
        problems = check_module_sizes(tmp_path)
        assert len(problems) == 1
        assert str(CONSISTENCY_MODULE_LINES) in problems[0]

    def test_ceiling_selection(self):
        assert (line_ceiling(Path("src/repro/consistency/crew.py"))
                == CONSISTENCY_MODULE_LINES)
        assert (line_ceiling(Path("src/repro/consistency/engine/wire.py"))
                == CONSISTENCY_MODULE_LINES)
        assert line_ceiling(Path("src/repro/core/kernel.py")) == (
            MAX_MODULE_LINES
        )


class TestLineBudget:
    def test_flags_a_package_over_the_committed_budget(self, tmp_path,
                                                       monkeypatch):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\ny = 2\n")
        (pkg / "b.py").write_text("z = 3\n")
        monkeypatch.setattr(structure, "SRC_LINE_BUDGET", 3)
        assert check_line_budget(pkg) == []
        monkeypatch.setattr(structure, "SRC_LINE_BUDGET", 2)
        problems = check_line_budget(pkg)
        assert len(problems) == 1
        assert "3 lines exceed the committed 2-line budget" in problems[0]


class TestImportCycles:
    def test_finds_a_cycle(self):
        graph = {
            "repro.core.a": {"repro.net.b"},
            "repro.net.b": {"repro.consistency.c"},
            "repro.consistency.c": {"repro.core.a"},
        }
        cycle = find_cycle(graph)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == set(graph)

    def test_acyclic_graph_passes(self):
        graph = {
            "repro.core.a": {"repro.net.b"},
            "repro.net.b": set(),
        }
        assert find_cycle(graph) is None

    def test_detects_cycle_in_real_files(self, tmp_path):
        root = tmp_path / "repro"
        core = root / "core"
        net = root / "net"
        core.mkdir(parents=True)
        net.mkdir()
        for pkg in (root, core, net):
            (pkg / "__init__.py").write_text("")
        (core / "a.py").write_text("from repro.net.b import thing\n")
        (net / "b.py").write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.core.a import other\n"
        )
        # TYPE_CHECKING import does not close the cycle...
        assert check_tree(root) == []
        # ...an unconditional one does.
        (net / "b.py").write_text("from repro.core.a import other\n")
        problems = check_tree(root)
        assert len(problems) == 1
        assert "import cycle" in problems[0]
        assert "repro.core.a" in problems[0]

    def test_real_tree_has_edges_and_no_cycle(self):
        graph = build_import_graph(REPRO_ROOT)
        # The guard is not vacuous: the layered packages really do
        # import each other (downward).
        assert any(edges for edges in graph.values())
        assert find_cycle(graph) is None

    def test_engine_subpackage_is_in_the_cycle_check(self):
        graph = build_import_graph(REPRO_ROOT)
        engine_modules = [
            module for module in graph
            if module.startswith("repro.consistency.engine")
        ]
        # The engine rides under repro.consistency in LAYERED_PACKAGES;
        # its modules must appear in the graph with their policy<->
        # mechanism edges tracked.
        assert "repro.consistency.engine.wire" in engine_modules
        assert any(
            dep.startswith("repro.consistency.engine")
            for module in ("repro.consistency.crew",
                           "repro.consistency.release")
            for dep in graph.get(module, ())
        )


class TestTree:
    def test_shipped_tree_is_clean(self):
        # The CI gate.
        assert main([str(REPRO_ROOT)]) == 0
