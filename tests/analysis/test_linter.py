"""Unit tests for every REPxxx linter rule: positive, negative and noqa."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Finding, lint_paths, lint_source, run_lint
from repro.analysis.findings import render_github, render_sarif, rule_catalog
from repro.cli import main as cli_main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def rules_of(source: str):
    return [f.rule for f in lint_source(source)]


# ---------------------------------------------------------------------------
# REP001 - unseeded / global NumPy RNG
# ---------------------------------------------------------------------------


def test_rep001_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert rules_of(src) == ["REP001"]


def test_rep001_global_seed_and_legacy_samplers():
    src = (
        "import numpy as np\n"
        "np.random.seed(3)\n"
        "x = np.random.rand(4)\n"
        "y = np.random.permutation(8)\n"
    )
    assert rules_of(src) == ["REP001", "REP001", "REP001"]


def test_rep001_respects_import_aliases():
    src = (
        "import numpy.random as npr\n"
        "from numpy.random import default_rng\n"
        "npr.seed(1)\n"
        "g = default_rng()\n"
    )
    assert rules_of(src) == ["REP001", "REP001"]


def test_rep001_negative_seeded_and_generator_methods():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng(2018)\n"
        "x = rng.permutation(8)\n"
        "y = rng.normal(size=3)\n"
    )
    assert rules_of(src) == []


def test_rep001_noqa_suppression():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro: noqa[REP001] OS entropy ok\n"
    )
    assert rules_of(src) == []


# ---------------------------------------------------------------------------
# REP002 - hand-rolled loops over arrays
# ---------------------------------------------------------------------------


def test_rep002_accumulation_loop():
    src = (
        "total = 0.0\n"
        "for i in range(len(xs)):\n"
        "    total += xs[i]\n"
    )
    assert rules_of(src) == ["REP002"]


def test_rep002_elementwise_store_loop():
    src = (
        "for i in range(a.shape[0]):\n"
        "    out[i] = 2.0 * a[i]\n"
    )
    assert rules_of(src) == ["REP002"]


def test_rep002_negative_complex_bodies_not_flagged():
    src = (
        "for i in range(len(xs)):\n"
        "    if xs[i] > 0:\n"
        "        total += xs[i]\n"
        "for item in xs:\n"
        "    total += item\n"
        "for i in range(len(xs)):\n"
        "    total += xs[i]\n"
        "    count += 1\n"
    )
    assert rules_of(src) == []


def test_rep002_noqa_suppression():
    src = (
        "for i in range(len(xs)):  # repro: noqa[REP002] tiny fixed n\n"
        "    total += xs[i]\n"
    )
    assert rules_of(src) == []


# ---------------------------------------------------------------------------
# REP003 - np.matrix / deprecated NumPy API
# ---------------------------------------------------------------------------


def test_rep003_np_matrix_and_removed_aliases():
    src = (
        "import numpy as np\n"
        "m = np.matrix([[1.0]])\n"
        "x = np.float(3)\n"
        "ok = np.alltrue([True])\n"
    )
    assert rules_of(src) == ["REP003", "REP003", "REP003"]


def test_rep003_from_import_usage():
    src = "from numpy import alltrue\nresult = alltrue([True])\n"
    # Flagged twice: once at the import binding, once at the call site.
    assert set(rules_of(src)) == {"REP003"}


def test_rep003_negative_modern_spellings():
    src = (
        "import numpy as np\n"
        "a = np.float64(3)\n"
        "b = np.asarray([1])\n"
        "c = np.bool_(True)\n"
    )
    assert rules_of(src) == []


def test_rep003_noqa_suppression():
    src = (
        "import numpy as np\n"
        "m = np.matrix([[1.0]])  # repro: noqa[REP003] exercising legacy API\n"
    )
    assert rules_of(src) == []


# ---------------------------------------------------------------------------
# REP004 - float equality comparisons
# ---------------------------------------------------------------------------


def test_rep004_equality_with_nonzero_float_literal():
    src = "flag = x == 1.5\nother = 2.5 != y\nneg = z == -3.5\n"
    assert rules_of(src) == ["REP004", "REP004", "REP004"]


def test_rep004_negative_zero_guards_ints_and_orderings():
    src = (
        "a = norm == 0.0\n"
        "b = count == 1\n"
        "c = x <= 1.5\n"
        "d = y < 2.5\n"
    )
    assert rules_of(src) == []


def test_rep004_noqa_suppression():
    src = "flag = x == 1.5  # repro: noqa[REP004] sentinel value, exact\n"
    assert rules_of(src) == []


# ---------------------------------------------------------------------------
# REP005 - mutation of array parameters
# ---------------------------------------------------------------------------


def test_rep005_subscript_store_and_augassign():
    src = (
        "def f(a):\n"
        "    a[0] = 1.0\n"
        "def g(b):\n"
        "    b[2, 3] += 1.0\n"
    )
    assert rules_of(src) == ["REP005", "REP005"]


def test_rep005_mutating_calls():
    src = (
        "import numpy as np\n"
        "def f(a):\n"
        "    np.fill_diagonal(a, 0.0)\n"
        "def g(b):\n"
        "    b.sort()\n"
    )
    assert rules_of(src) == ["REP005", "REP005"]


def test_rep005_negative_defensive_copy_and_locals():
    src = (
        "import numpy as np\n"
        "def f(a):\n"
        "    a = np.asarray(a, dtype=float).copy()\n"
        "    a[0] = 1.0\n"
        "    return a\n"
        "def g(b):\n"
        "    out = np.empty_like(b)\n"
        "    out[0] = b[0]\n"
        "    return out\n"
    )
    assert rules_of(src) == []


def test_rep005_nested_function_scopes_are_independent():
    src = (
        "def outer(a):\n"
        "    def inner(b):\n"
        "        b[0] = 1.0\n"
        "    return inner\n"
    )
    assert rules_of(src) == ["REP005"]


def test_rep005_noqa_suppression():
    src = (
        "def stamp(m):\n"
        "    m[0, 0] += 1.0  # repro: noqa[REP005] stamping by design\n"
    )
    assert rules_of(src) == []


# ---------------------------------------------------------------------------
# Suppression mechanics and plumbing
# ---------------------------------------------------------------------------


def test_bare_noqa_suppresses_every_rule_on_the_line():
    src = "import numpy as np\nx = np.random.rand(3) == 1.5  # repro: noqa\n"
    assert rules_of(src) == []


def test_noqa_for_other_rule_does_not_suppress():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro: noqa[REP004] wrong code\n"
    )
    assert rules_of(src) == ["REP001"]


def test_syntax_error_reported_as_rep000():
    findings = lint_source("def broken(:\n", path="bad.py")
    assert [f.rule for f in findings] == ["REP000"]
    assert findings[0].path == "bad.py"


def test_findings_carry_location_and_render():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    finding = lint_source(src, path="mod.py")[0]
    assert isinstance(finding, Finding)
    assert (finding.path, finding.line) == ("mod.py", 2)
    assert finding.render().startswith("mod.py:2:")


_SAMPLE = [
    Finding("src/x.py", 3, 4, "REP201", "unguarded write to Box.item"),
    Finding("src/x.py", 9, 0, "REP001", "unseeded rng, 100% wrong"),
]


def test_sarif_output_is_valid_and_declares_rules():
    log = json.loads(render_sarif(_SAMPLE))
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    declared = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert set(rule_catalog()) <= set(declared)
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["REP201", "REP001"]
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/x.py"
    assert location["region"] == {"startLine": 3, "startColumn": 5}
    for result in results:
        assert declared[result["ruleIndex"]] == result["ruleId"]


def test_github_renderer_emits_escaped_workflow_commands():
    out = render_github(_SAMPLE).splitlines()
    assert out[0] == (
        "::error file=src/x.py,line=3,col=5,title=REP201"
        "::unguarded write to Box.item"
    )
    assert "%25" in out[1]  # '%' escaped per the workflow-command spec
    assert render_github([]) == ""


def test_run_lint_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("import numpy as np\nrng = np.random.default_rng(1)\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    assert run_lint([str(clean)]) == 0
    assert run_lint([str(dirty)]) == 1
    assert run_lint([str(tmp_path / "missing.py")]) == 2
    out = capsys.readouterr().out
    assert "REP001" in out


def test_cli_lint_subcommand(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nnp.random.seed(0)\n")
    assert cli_main(["lint", str(dirty)]) == 1
    assert cli_main(["lint", str(dirty), "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert '"rule": "REP001"' in out


def test_python_dash_m_entry_point(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nnp.random.seed(0)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(dirty)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "REP001" in proc.stdout


@pytest.mark.skipif(not REPO_SRC.exists(), reason="source tree not present")
def test_repository_sources_are_clean():
    """The acceptance gate: the library itself carries zero findings."""
    assert lint_paths([REPO_SRC]) == []
