"""The command's BLAS threads: one, unless the user set how many.

``crowdcdr.cli`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads,
unless one of the three thread variables is set; the library modules set
nothing. Each test runs a fresh interpreter whose environment holds none
of the three variables but those the test sets.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crowdcdr import cli

SRC = Path(cli.__file__).parents[1]
VARIABLES = cli.BLAS_THREAD_VARIABLES
UNSET = dict.fromkeys(VARIABLES)

needs_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                 reason="threads are counted in /proc/self/task")

#: Prints the thread variables as JSON.
PRINT_VARIABLES = ("import json, os\n"
                   f"print(json.dumps({{v: os.environ.get(v) for v in {VARIABLES!r}}}))\n")


def python(script: str, *args: str, **variables: str) -> str:
    """The stdout of ``script`` run with ``args`` by a fresh interpreter,
    with ``variables`` the only thread variables of its environment."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def variables_after(imports: str, **variables: str) -> dict:
    """The thread variables after ``imports`` ran in a fresh interpreter."""
    return json.loads(python(imports + "\n" + PRINT_VARIABLES, **variables))


def test_the_command_pins_one_blas_thread():
    assert variables_after("import crowdcdr.cli") == {
        **UNSET, "OPENBLAS_NUM_THREADS": "1"}


@needs_tasks
def test_the_command_runs_blas_on_one_thread():
    script = ("import os\n"
              "import crowdcdr.cli\n"
              "import numpy as np\n"
              "a = np.ones((256, 256))\n"
              "a @ a\n"
              "print(len(os.listdir('/proc/self/task')))\n")
    assert python(script).split() == ["1"]


@pytest.mark.parametrize("name", VARIABLES)
def test_a_user_set_thread_count_is_left_as_set(name):
    # BLAS_THREADS, as the manifest records it, says the same.
    script = ("import os\n"
              "from crowdcdr import cli\n"
              "assert cli.BLAS_THREADS == {\n"
              "    v: os.environ.get(v) for v in cli.BLAS_THREAD_VARIABLES}\n")
    assert variables_after(script, **{name: "3"}) == {**UNSET, name: "3"}


def test_the_library_modules_leave_the_environment_as_it_was():
    script = ("import json, os\n"
              "before = dict(os.environ)\n"
              "from crowdcdr import attendance, social, spatial, synth\n"
              "print(json.dumps(dict(os.environ) == before))\n")
    assert python(script).split() == ["true"]
    assert variables_after(
        "from crowdcdr import attendance, social, spatial, synth") == UNSET


def test_numpy_loaded_first_is_not_pinned_afterwards():
    # The variable would change no thread of this process, and the
    # manifest would record a count BLAS did not run with.
    assert variables_after("import numpy\nimport crowdcdr.cli") == UNSET


def test_a_worker_of_the_command_can_call_blas():
    script = ("import crowdcdr.cli\n"
              "import numpy as np\n"
              "from crowdcdr.worker import forked\n"
              "a = np.arange(256 * 256, dtype=float).reshape(256, 256) / 1e4\n"
              "with forked(lambda: a @ a) as result:\n"
              "    value, from_child = result()\n"
              "print(from_child, np.array_equal(value, a @ a))\n")
    assert python(script).split() == ["True", "True"]


def assert_before_numpy_loads(setting: str) -> None:
    """Only standard-library imports come before the top-level ``if``
    of ``crowdcdr.cli`` that holds ``setting``, and numpy's after it: an
    import sorter could move it below the imports that load numpy."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    pin = next(i for i, node in enumerate(tree.body)
               if isinstance(node, ast.If) and setting in ast.unparse(node))
    before = [node for node in tree.body[:pin]
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    after = [node for node in tree.body[pin:]
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert before and after
    # Only the standard library above it: no numpy, no package module.
    assert all(getattr(node, "level", 0) == 0 for node in before)
    loaded = {alias.name.partition(".")[0] for node in before
              for alias in node.names} | {
        node.module.partition(".")[0] for node in before
        if isinstance(node, ast.ImportFrom) and node.module}
    assert "numpy" not in loaded
    assert any(isinstance(node, ast.Import) and node.names[0].name == "numpy"
               for node in after)


def test_the_pin_comes_before_numpy_loads():
    assert_before_numpy_loads("os.environ[")


def test_the_collector_is_off_before_numpy_loads():
    assert_before_numpy_loads("gc.disable()")


@pytest.mark.parametrize("variables, recorded", [
    ({}, {**UNSET, "OPENBLAS_NUM_THREADS": "1"}),
    ({"OMP_NUM_THREADS": "3"}, {**UNSET, "OMP_NUM_THREADS": "3"}),
], ids=["pinned", "overridden"])
def test_the_manifests_record_the_thread_variables(tmp_path, variables, recorded):
    # What the ``crowdcdr`` console script runs.
    command = "import sys\nfrom crowdcdr.__main__ import main\nsys.exit(main())\n"
    python(command, "gen", "--scenario", "desk-small", "--seed", "1",
           "--output-dir", str(tmp_path / "in"), **variables)
    python(command, "report", "--input-dir", str(tmp_path / "in"),
           "--output-dir", str(tmp_path / "out"), **variables)
    for manifest in (tmp_path / "in" / "manifest_gen.json",
                     tmp_path / "out" / "manifest_report.json"):
        versions = json.loads(manifest.read_text(encoding="utf-8"))["versions"]
        assert versions["blas_threads"] == recorded, manifest.name
