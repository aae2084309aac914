"""Concurrency pass: fixtures, repo cleanliness, annotations, REP007."""

import io
import re
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.concurrency import (
    THREAD_RULES,
    analyze_thread_source,
    analyze_threads,
)
from repro.analysis.findings import rule_catalog
from repro.analysis.linter import DaemonThreadRule, lint_paths, lint_source
from repro.analysis.registry import SignatureRegistry, build_registry

FIXTURE_DIR = (
    Path(__file__).resolve().parent / "fixtures" / "concurrency"
)
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_MARKER = re.compile(r"#\s*expect:\s*(REP\d{3})")


def expected_markers(path: Path):
    """``(rule, line)`` pairs declared by ``# expect: REPxxx`` comments."""
    pairs = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _MARKER.search(line)
        if match:
            pairs.append((match.group(1), lineno))
    return sorted(pairs)


@pytest.fixture(scope="module")
def corpus_findings():
    """Deep REP20x findings plus the shallow REP007 family, merged."""
    deep = analyze_threads([FIXTURE_DIR])
    shallow = [f for f in lint_paths([FIXTURE_DIR]) if f.rule == "REP007"]
    return deep + shallow


# -- the fixture corpus: each file triggers exactly its marked rules ----------


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURE_DIR.glob("*.py"))
)
def test_fixture_triggers_exactly_its_markers(name, corpus_findings):
    path = FIXTURE_DIR / name
    flagged = sorted(
        (f.rule, f.line)
        for f in corpus_findings
        if Path(f.path).name == name
    )
    assert flagged == expected_markers(path)


def test_corpus_covers_every_thread_rule(corpus_findings):
    covered = {f.rule for f in corpus_findings}
    assert covered == set(THREAD_RULES) | {"REP007"}


def test_cross_module_cycle_flags_both_sides(corpus_findings):
    for name in ("rep203_xmod_a.py", "rep203_xmod_b.py"):
        cross = [
            f for f in corpus_findings if Path(f.path).name == name
        ]
        assert [f.rule for f in cross] == ["REP203"]


# -- whole-package runs --------------------------------------------------------


def test_repository_sources_are_thread_clean():
    findings = analyze_threads([REPO_SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_run_lint_threads_flags_fixture_and_exits_nonzero():
    stream = io.StringIO()
    bad = FIXTURE_DIR / "rep204_blocking_under_lock.py"
    assert run_lint([str(bad)], threads=True, stream=stream) == 1
    assert "REP204" in stream.getvalue()
    clean = io.StringIO()
    assert run_lint([str(bad)], threads=False, stream=clean) == 0


def test_run_lint_exclude_drops_fixture_findings():
    """CI lints tests/ with the rule-bad fixture corpora excluded."""
    stream = io.StringIO()
    code = run_lint(
        [str(FIXTURE_DIR)],
        threads=True,
        stream=stream,
        exclude=[str(FIXTURE_DIR)],
    )
    assert code == 0
    assert "REP2" not in stream.getvalue()


def test_rule_catalog_includes_thread_family():
    catalog = rule_catalog()
    assert catalog["REP203"] == THREAD_RULES["REP203"]
    assert catalog["REP007"] == DaemonThreadRule.summary


# -- noqa suppression ----------------------------------------------------------


def test_thread_findings_respect_noqa():
    source = (
        "import threading\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.item = None\n"
        "\n"
        "    def put(self, item):\n"
        "        self.item = item  # repro: noqa[REP201] benign tearing\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@guards": ["Box.item guarded_by _lock"],\n'
        '                    "@threads": ["Box"]}\n'
    )
    assert analyze_thread_source(source, "noqa_case.py") == []
    unsuppressed = source.replace("  # repro: noqa[REP201] benign tearing", "")
    findings = analyze_thread_source(unsuppressed, "noqa_case.py")
    assert [f.rule for f in findings] == ["REP201"]


# -- lockset mechanics ---------------------------------------------------------


def test_acquire_release_pairs_track_the_lockset():
    source = (
        "import threading\n"
        "import time\n"
        "\n"
        "_lock = threading.Lock()\n"
        "\n"
        "\n"
        "def locked_sleep():\n"
        "    _lock.acquire()\n"
        "    time.sleep(0.1)\n"
        "    _lock.release()\n"
        "\n"
        "\n"
        "def free_sleep():\n"
        "    _lock.acquire()\n"
        "    _lock.release()\n"
        "    time.sleep(0.1)\n"
    )
    findings = analyze_thread_source(source, "acquire.py")
    assert [(f.rule, f.line) for f in findings] == [("REP204", 9)]


def test_try_finally_release_is_understood():
    source = (
        "import threading\n"
        "import time\n"
        "\n"
        "_lock = threading.Lock()\n"
        "\n"
        "\n"
        "def careful():\n"
        "    _lock.acquire()\n"
        "    try:\n"
        "        time.sleep(0.1)\n"
        "    finally:\n"
        "        _lock.release()\n"
        "    time.sleep(0.2)\n"
    )
    findings = analyze_thread_source(source, "finally.py")
    assert [(f.rule, f.line) for f in findings] == [("REP204", 10)]


def test_async_with_is_not_a_thread_lock():
    source = (
        "import time\n"
        "\n"
        "\n"
        "async def handler(write_lock):\n"
        "    async with write_lock:\n"
        "        time.sleep(0.0)\n"
    )
    assert analyze_thread_source(source, "asynccase.py") == []


def test_double_checked_setdefault_is_clean():
    source = (
        "import threading\n"
        "\n"
        "\n"
        "class Cache:\n"
        "    _data = {}\n"
        "    _lock = threading.Lock()\n"
        "\n"
        "    def get(self, key):\n"
        "        with self._lock:\n"
        "            value = self._data.get(key)\n"
        "        if value is None:\n"
        "            built = object()\n"
        "            with self._lock:\n"
        "                value = self._data.setdefault(key, built)\n"
        "        return value\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@guards": ["Cache._data guarded_by _lock"],\n'
        '                    "@threads": ["Cache"]}\n'
    )
    assert analyze_thread_source(source, "setdefault.py") == []


def test_private_helper_inherits_call_site_lockset():
    source = (
        "import threading\n"
        "\n"
        "\n"
        "class Meter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._events = []\n"
        "\n"
        "    def add(self, x):\n"
        "        with self._lock:\n"
        "            self._events.append(x)\n"
        "            self._prune()\n"
        "\n"
        "    def _prune(self):\n"
        "        del self._events[:1]\n"
        "\n"
        "\n"
        'REPRO_SIGNATURES = {"@guards": ["Meter._events guarded_by _lock"],\n'
        '                    "@threads": ["Meter"]}\n'
    )
    assert analyze_thread_source(source, "refine.py") == []


# -- annotation mini-language --------------------------------------------------


def test_guards_entries_normalize_class_and_module_forms():
    registry = SignatureRegistry()
    registry.add_module_signatures(
        "pkg.mod",
        {
            "@guards": [
                "Engine._queue guarded_by _lock",
                "_plan guarded_by _plan_lock",
            ],
            "@threads": ["Engine.worker", "helper"],
            "@blocking": ["slow_call"],
        },
    )
    assert registry.guards["Engine._queue"] == "Engine._lock"
    assert registry.guards["pkg.mod._plan"] == "pkg.mod._plan_lock"
    assert registry.thread_entries == {"Engine.worker", "helper"}
    assert registry.blocking == {"slow_call"}


_ATTRIBUTE_CASE = (
    "import threading\n"
    "import time\n"
    "\n"
    "\n"
    "class Pool:\n"
    "    def drain(self):\n"
    "        time.sleep(0.1)\n"
    "\n"
    "\n"
    "class Owner:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.pool = Pool()\n"
    "\n"
    "    def flush(self):\n"
    "        with self._lock:\n"
    "            self.pool.drain()\n"
)


def test_attribute_type_entry_resolves_calls_through_the_attribute():
    """``self.pool.drain()`` reaches ``Pool.drain`` only via the entry."""
    declared = _ATTRIBUTE_CASE + '\nREPRO_SIGNATURES = {"Owner.pool": "Pool"}\n'
    findings = analyze_thread_source(declared, "attr_case.py")
    assert [(f.rule, f.line) for f in findings] == [("REP204", 17)]
    assert analyze_thread_source(_ATTRIBUTE_CASE, "attr_case.py") == []


def test_package_attribute_types_stay_declared():
    """The attribute types the pass resolves calls through in src/repro."""
    registry = build_registry()
    declared = {
        ("CapacitanceExtractor", "geometry"): "TSVArrayGeometry",
        ("LinkSession", "coded_energy"): "EnergyAccount",
        ("LinkSession", "uncoded_energy"): "EnergyAccount",
        ("PowerModel", "cap_model"): "LinearCapacitanceModel",
    }
    for (owner, attr), cls in declared.items():
        assert registry.member_attribute(owner, attr) == cls


def test_malformed_guards_entry_is_rejected():
    registry = SignatureRegistry()
    with pytest.raises(ValueError, match="guarded_by"):
        registry.add_module_signatures(
            "pkg.mod", {"@guards": ["Engine._queue by _lock"]}
        )
    with pytest.raises(ValueError, match="directive"):
        registry.add_module_signatures("pkg.mod", {"@wat": ["x"]})
    with pytest.raises(ValueError, match="attribute entry"):
        registry.add_module_signatures(
            "pkg.mod", {"Owner.pool": "(N,) farad"}
        )


# -- REP007 (shallow) ----------------------------------------------------------


def test_rep007_flags_unjoined_daemon_thread():
    source = (
        "import threading\n"
        "\n"
        "t = threading.Thread(target=print, daemon=True)\n"
        "t.start()\n"
    )
    findings = lint_source(source, "daemon.py", rules=[DaemonThreadRule])
    assert [f.rule for f in findings] == ["REP007"]


def test_rep007_accepts_join_or_atexit():
    joined = (
        "import threading\n"
        "\n"
        "t = threading.Thread(target=print, daemon=True)\n"
        "t.start()\n"
        "t.join(timeout=1.0)\n"
    )
    assert lint_source(joined, "ok.py", rules=[DaemonThreadRule]) == []
    hooked = (
        "import atexit\n"
        "import threading\n"
        "\n"
        "t = threading.Thread(target=print, daemon=True)\n"
        "t.start()\n"
        "atexit.register(t.join)\n"
    )
    assert lint_source(hooked, "ok2.py", rules=[DaemonThreadRule]) == []
    non_daemon = (
        "import threading\n"
        "\n"
        "t = threading.Thread(target=print)\n"
        "t.start()\n"
    )
    assert lint_source(non_daemon, "ok3.py", rules=[DaemonThreadRule]) == []
