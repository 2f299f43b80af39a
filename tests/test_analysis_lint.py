"""Tests for the static linter (repro.analysis.lint).

Each rule is exercised against a fixture under ``tests/fixtures/lint``
(kept as ``.py.txt`` so linting ``tests/`` does not pick them up);
fixtures contain both a flagged construct and a suppressed one, so the
tests pin down the rule AND the suppression syntax.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint import (
    SourceFile,
    lint_files,
    lint_source,
    main,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def _fixture(name: str, fake_path: str) -> SourceFile:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return SourceFile.parse(fake_path, source)


def _lint_fixture(name: str, fake_path: str):
    return lint_files([_fixture(name, fake_path)])


class TestBlockingCalls:
    def test_flags_sleep_socket_open_but_not_suppressed(self):
        findings = _lint_fixture(
            "blocking.py.txt", "src/repro/core/fixture.py"
        )
        rules = [f.rule for f in findings]
        assert rules == ["KHZ001"] * 4
        messages = " ".join(f.message for f in findings)
        assert "time.sleep" in messages
        assert "socket.socket" in messages
        assert "open" in messages

    def test_scope_limited_to_sim_code(self):
        # Outside SIM_SCOPES KHZ001 stays quiet (KHZ011 has its own
        # view of these calls, with its own scoping and slug).
        findings = _lint_fixture(
            "blocking.py.txt", "src/repro/bench/fixture.py"
        )
        assert [f for f in findings if f.rule == "KHZ001"] == []


class TestBroadExcept:
    def test_flags_silent_handlers_only(self):
        findings = _lint_fixture(
            "broad_except.py.txt", "src/repro/consistency/fixture.py"
        )
        assert [f.rule for f in findings] == ["KHZ003", "KHZ003"]
        assert "bare except" in findings[1].message

    def test_scope_limited_to_repro(self):
        findings = _lint_fixture("broad_except.py.txt", "elsewhere/fixture.py")
        assert findings == []


class TestStaleContexts:
    def test_flags_use_after_unlock(self):
        findings = _lint_fixture("stale_context.py.txt", "anywhere.py")
        assert [f.rule for f in findings] == ["KHZ004"]
        assert "'ctx'" in findings[0].message
        assert "bad" in findings[0].message

    def test_try_finally_poisons_only_later_lines(self):
        findings = _lint_fixture("stale_context_flow.py.txt", "anywhere.py")
        assert [f.rule for f in findings] == ["KHZ004", "KHZ004"]
        # The read inside the try body precedes the finally unlock and
        # is clean; only the read after the whole statement flags.
        assert "finally_unlock" in findings[0].message

    def test_with_as_rebinding_clears_staleness(self):
        findings = _lint_fixture("stale_context_flow.py.txt", "anywhere.py")
        messages = " ".join(f.message for f in findings)
        # ``with ... as ctx`` re-binds the name, so with_rebinding is
        # clean — but binding a *different* name leaves ctx stale.
        assert "with_rebinding" not in messages
        assert "with_other_binding" in messages


class TestErrorTaxonomy:
    def test_flags_foreign_and_unbound_raises(self):
        findings = _lint_fixture(
            "taxonomy.py.txt", "src/repro/consistency/fixture.py"
        )
        assert [f.rule for f in findings] == ["KHZ005", "KHZ005"]
        by_message = " ".join(f.message for f in findings)
        assert "RuntimeError" in by_message
        assert "never imported" in by_message

    def test_scope_limited_to_protocol_code(self):
        findings = _lint_fixture("taxonomy.py.txt", "src/repro/fs/fixture.py")
        assert findings == []


class TestMessageCompleteness:
    def _files(self):
        return [
            _fixture("message.py.txt", "src/repro/net/message.py"),
            _fixture("handlers.py.txt", "src/repro/consistency/handlers.py"),
        ]

    def test_flags_orphan_member_and_reply_class(self):
        findings = lint_files(self._files())
        assert len(findings) == 2
        assert {f.rule for f in findings} == {"KHZ002"}
        messages = " ".join(f.message for f in findings)
        assert "MessageType.ORPHAN" in messages          # unhandled
        assert "ORPHAN_ALLOWED" not in messages          # suppressed
        assert "REPLY_TYPES" in messages                 # reply-class


class TestPrivateDaemonAccess:
    def test_flags_private_access_outside_core(self):
        findings = _lint_fixture(
            "private_attr.py.txt", "src/repro/consistency/fixture.py"
        )
        assert [f.rule for f in findings] == ["KHZ006"] * 4
        messages = " ".join(f.message for f in findings)
        assert "._hinted_rids" in messages      # Name base
        assert "._ctx_pages" in messages        # daemon2 local
        assert "._alive" in messages            # cluster.daemon(1) call base
        assert "._page_waiters" in messages     # cm.host attribute base
        assert "__dict__" not in messages       # dunders exempt
        assert "._internal" not in messages     # non-daemon base exempt

    def test_core_package_is_exempt(self):
        findings = _lint_fixture(
            "private_attr.py.txt", "src/repro/core/fixture.py"
        )
        assert findings == []


class TestEngineWire:
    def test_flags_direct_wire_access_in_policy_code(self):
        findings = _lint_fixture(
            "engine_wire.py.txt", "src/repro/consistency/fixture.py"
        )
        assert [f.rule for f in findings] == ["KHZ007"] * 3
        messages = " ".join(f.message for f in findings)
        assert "host.rpc" in messages
        assert "host.reply_request" in messages
        assert "host.reply_error" in messages
        # Only the three direct calls flag: the suppressed reply, the
        # engine-primitive calls, and the non-daemon base stay clean.
        assert {f.line for f in findings} == {11, 13, 15}

    def test_engine_package_is_exempt(self):
        findings = _lint_fixture(
            "engine_wire.py.txt", "src/repro/consistency/engine/fixture.py"
        )
        assert [f.rule for f in findings] == []

    def test_scope_limited_to_consistency_layer(self):
        findings = _lint_fixture(
            "engine_wire.py.txt", "src/repro/core/fixture.py"
        )
        assert findings == []


class TestDirectScheduler:
    def test_flags_raw_timer_calls_in_consistency_code(self):
        findings = _lint_fixture(
            "direct_scheduler.py.txt", "src/repro/consistency/fixture.py"
        )
        assert [f.rule for f in findings] == ["KHZ008"] * 3
        messages = " ".join(f.message for f in findings)
        assert ".call_later" in messages
        assert ".call_at" in messages
        assert ".call_soon" in messages
        assert "schedule explorer" in messages
        # The suppressed timer (line 17) does not flag.
        assert 17 not in {f.line for f in findings}

    def test_engine_code_is_also_covered(self):
        # Unlike KHZ007, the engine package gets no exemption: its
        # events need labels just as much as policy code's do.
        findings = _lint_fixture(
            "direct_scheduler.py.txt",
            "src/repro/consistency/engine/fixture.py",
        )
        assert [f.rule for f in findings] == ["KHZ008"] * 3

    def test_scope_limited_to_consistency_layer(self):
        findings = _lint_fixture(
            "direct_scheduler.py.txt", "src/repro/net/fixture.py"
        )
        assert findings == []


class TestPageCopies:
    def test_flags_unjustified_bytes_in_hot_function(self):
        findings = _lint_fixture(
            "page_copy.py.txt", "src/repro/core/dataplane.py"
        )
        assert [f.rule for f in findings] == ["KHZ009"]
        assert "op_read" in findings[0].message
        assert findings[0].line == 6
        # The suppressed copy (line 8) and the arg-less bytes() (line 9)
        # stay clean, as does compute_diff — not a dataplane hot func.

    def test_hot_functions_are_per_file(self):
        findings = _lint_fixture(
            "page_copy.py.txt", "src/repro/consistency/diffs.py"
        )
        assert [f.rule for f in findings] == ["KHZ009"]
        assert "compute_diff" in findings[0].message
        assert findings[0].line == 14

    def test_scope_limited_to_hot_path_files(self):
        findings = _lint_fixture(
            "page_copy.py.txt", "src/repro/consistency/manager.py"
        )
        assert findings == []


class TestSpawnLabels:
    def test_flags_unlabeled_and_empty_labels(self):
        findings = _lint_fixture(
            "spawn_label.py.txt", "src/repro/consistency/fixture.py"
        )
        assert [f.rule for f in findings] == ["KHZ010"] * 5
        messages = " ".join(f.message for f in findings)
        assert ".spawn(...)" in messages
        assert ".spawn_handler(...)" in messages
        assert ".pipeline(...)" in messages
        assert "empty" in messages

    def test_scope_limited_to_repro(self):
        findings = _lint_fixture("spawn_label.py.txt", "elsewhere/fixture.py")
        assert findings == []


class TestRuntimeDeps:
    def test_flags_clock_loop_and_socket_calls(self):
        findings = _lint_fixture(
            "runtime_deps.py.txt", "src/repro/fs/fixture.py"
        )
        assert [f.rule for f in findings] == ["KHZ011"] * 4
        messages = " ".join(f.message for f in findings)
        assert "time.time" in messages
        assert "time.monotonic" in messages
        assert "asyncio.get_event_loop" in messages
        assert "socket.socket" in messages
        # The suppressed perf_counter (line 25) does not flag.
        assert 25 not in {f.line for f in findings}

    def test_driver_modules_may_own_clocks_but_not_sockets(self):
        findings = _lint_fixture(
            "runtime_deps.py.txt", "src/repro/bench/hotpath.py"
        )
        khz011 = [f for f in findings if f.rule == "KHZ011"]
        assert len(khz011) == 1
        assert "socket.socket" in khz011[0].message

    def test_runtime_seam_modules_are_exempt(self):
        findings = _lint_fixture(
            "runtime_deps.py.txt", "src/repro/net/aio.py"
        )
        assert [f for f in findings if f.rule == "KHZ011"] == []

    def test_scope_limited_to_repro(self):
        findings = _lint_fixture(
            "runtime_deps.py.txt", "elsewhere/fixture.py"
        )
        assert findings == []

    def test_real_runtime_modules_stay_clean(self):
        # The shipped seam + driver modules must satisfy their own rule.
        root = Path(__file__).parent.parent / "src"
        paths = [
            "repro/net/aio.py", "repro/net/tcp.py",
            "repro/tools/cluster.py", "repro/bench/hotpath.py",
        ]
        files = [
            SourceFile.parse(f"src/{p}",
                             (root / p).read_text(encoding="utf-8"))
            for p in paths
        ]
        findings = lint_files(files)
        assert [f for f in findings if f.rule == "KHZ011"] == []


class TestPlacementSeam:
    def test_flags_manager_reads_and_ring_math(self):
        findings = _lint_fixture(
            "placement_seam.py.txt", "src/repro/core/fixture.py"
        )
        assert [f.rule for f in findings] == ["KHZ012"] * 4
        messages = " ".join(f.message for f in findings)
        assert "mix64" in messages               # import AND call
        assert "cluster_manager_node" in messages
        assert "director_of" not in messages     # suppressed import
        lines = {f.line for f in findings}
        assert 13 not in lines   # kernel.cluster_manager_node: property
        assert 14 not in lines   # suppressed read
        assert 15 not in lines   # Store context: configuring stays legal
        assert 16 not in lines   # replace(...) keyword: a write, not a read

    def test_placement_package_is_exempt(self):
        findings = _lint_fixture(
            "placement_seam.py.txt",
            "src/repro/core/placement/fixture.py",
        )
        assert findings == []

    def test_scope_limited_to_repro(self):
        findings = _lint_fixture(
            "placement_seam.py.txt", "elsewhere/fixture.py"
        )
        assert findings == []

    def test_table_and_geometry_stay_importable(self):
        # The churn benchmark measures DirectorTable itself, so the
        # table and the address geometry are deliberately unfenced.
        source = (
            "from repro.core.placement.ring import (\n"
            "    BUCKET_BYTES, DirectorTable, bucket_of)\n\n"
            "TABLE = DirectorTable(BUCKET_BYTES // (1 << 20), [1, 2])\n"
            "BUCKET = bucket_of(0)\n"
        )
        findings = lint_source(source, path="src/repro/bench/x.py")
        assert findings == []


class TestSuppressions:
    def test_empty_reason_is_itself_a_finding(self):
        source = (
            "import time\n\n\ndef f():\n"
            "    time.sleep(1)  # khz: allow-blocking-call()\n"
        )
        findings = lint_source(source, path="src/repro/core/x.py")
        assert len(findings) == 1
        assert "needs a written reason" in findings[0].message

    def test_wrong_slug_does_not_suppress(self):
        source = (
            "import time\n\n\ndef f():\n"
            "    time.sleep(1)  # khz: allow-broad-except(wrong slug)\n"
        )
        findings = lint_source(source, path="src/repro/core/x.py")
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_multiple_suppressions_on_one_line_all_parse(self):
        sf = SourceFile.parse(
            "x.py",
            "pass  # khz: allow-copy(left one) # khz: allow-lock-order(right one)\n",
        )
        assert sf.suppressions[1] == [
            ("copy", "left one"), ("lock-order", "right one"),
        ]

    def test_second_suppression_on_a_line_still_applies(self):
        source = (
            "import time\n\n\ndef f():\n"
            "    time.sleep(1)  # khz: allow-copy(other rule) # khz: allow-blocking-call(timer model)\n"
        )
        findings = lint_source(source, path="src/repro/core/x.py")
        assert findings == []

    def test_unclosed_reason_paren_does_not_suppress(self):
        source = (
            "import time\n\n\ndef f():\n"
            "    time.sleep(1)  # khz: allow-blocking-call(reason unclosed\n"
        )
        findings = lint_source(source, path="src/repro/core/x.py")
        assert [f.rule for f in findings] == ["KHZ001"]
        assert "time.sleep" in findings[0].message


class TestStaticTables:
    """KHZ013: TRANSITIONS tables and dispatch maps stay literal."""

    def _findings(self):
        return _lint_fixture(
            "static_table.py.txt", "src/repro/consistency/fixture.py"
        )

    def test_every_breakage_flags_khz013(self):
        findings = self._findings()
        assert findings and all(f.rule == "KHZ013" for f in findings)
        messages = " ".join(f.message for f in findings)
        # Table shape: non-dict, computed key, computed value, unpack.
        assert "literal dict" in messages
        assert "literal PageEvent members" in messages
        assert "literal LocalPageState" in messages
        assert "unpack another mapping" in messages
        # Runtime mutation: subscript assign, .update, del, rebind.
        assert "may not be assigned at runtime" in messages
        assert "TRANSITIONS.update(...)" in messages
        assert "may not be deleted" in messages
        assert "declared once" in messages
        # Dispatch surfaces: mixed-key display, reg, cm_dispatch.
        assert "key every entry with a literal member" in messages
        assert "literal MessageType member" in messages
        assert "literal handler-name string" in messages

    def test_clean_spellings_and_suppression_stay_quiet(self):
        findings = self._findings()
        # One finding per seeded defect — the clean table, the clean
        # dispatch map, the plain dict, and the suppressed rebind in
        # swap_allowed contribute nothing.
        assert len(findings) == 11
        lines = " ".join(f.message for f in findings)
        assert "swap_allowed" not in lines

    def test_rule_is_scoped_to_the_shipped_package(self):
        source = "TRANSITIONS = build()\nTRANSITIONS.update({})\n"
        assert lint_source(source, path="tests/conftest.py") == []
        flagged = lint_source(source, path="src/repro/consistency/x.py")
        assert [f.rule for f in flagged] == ["KHZ013"] * 2

    def test_real_transitions_tables_extract_clean(self):
        # The four shipped CMs must satisfy their own input contract.
        from repro.analysis import sources
        from repro.analysis.lint import _Reporter
        from repro.analysis.lint_protocol import check_static_tables

        reporter = _Reporter()
        for sf in sources.collect(["src/repro/consistency/"]):
            check_static_tables(sf, reporter)
        assert reporter.findings == []


class TestTree:
    def test_shipped_tree_is_clean(self):
        # The repo's own source must lint clean — the CI gate.
        assert main(["src/", "tests/", "examples/"]) == 0
