"""What a run imports: CI's guard on ``report``'s fixed per-run cost.

Each check runs in a fresh interpreter, since the test process has
imported every module already. ``numpy.ma`` costs about 13 ms to import
and no stage needs it; numpy imports it on the first call of a plain
``np.unique`` or of ``np.percentile``. ``report`` never plants a city,
so it must not import ``crowdcdr.synth`` either; and planting a city
draws no tessellation, so ``gen`` must not import ``crowdcdr.geo``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import crowdcdr

SRC = str(Path(crowdcdr.__file__).resolve().parent.parent)


def modules_after(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object as
    its last line, which is returned."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


REPORT = """
import json, sys
from crowdcdr import cli
rc = cli.main(["report", "--input-dir", sys.argv[1], "--output-dir", sys.argv[2]])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

GENERATE = """
import json, sys
from crowdcdr import synth
paths, _ = synth.generate(synth.named_scenario("desk-small", 1), sys.argv[1])
print(json.dumps({"files": len(paths), "modules": sorted(sys.modules)}))
"""

CLOSURE_FIT = """
import json, sys
import numpy as np
from crowdcdr import social
# Node-disjoint triples of four states, each with both outcomes.
states = np.repeat([2, 3, 4, 5], 30)
closed = np.arange(states.size) % np.repeat([2, 3, 4, 5], 30) == 0
triples = social.Triples(np.arange(3 * states.size).reshape(-1, 3), states, closed)
fit = social.fit_closure_model(triples, {2: 0.1, 3: 0.2, 4: 0.3, 5: 0.4})
print(json.dumps({"n": fit.n_triples, "modules": sorted(sys.modules)}))
"""


def test_report_imports_neither_numpy_ma_nor_synth(desk_small_files, tmp_path):
    paths, _ = desk_small_files
    got = modules_after(REPORT, str(paths["cdr"].parent), str(tmp_path))
    assert got["rc"] == 0
    assert "numpy.ma" not in got["modules"]
    assert "crowdcdr.synth" not in got["modules"]
    assert "crowdcdr.geo" in got["modules"]        # the run went through


def test_generating_a_city_does_not_import_geo(tmp_path):
    got = modules_after(GENERATE, str(tmp_path))
    assert got["files"] == 5
    assert "crowdcdr.geo" not in got["modules"]
    assert "crowdcdr.synth" in got["modules"]


def test_closure_fit_does_not_import_numpy_ma():
    got = modules_after(CLOSURE_FIT)
    assert got["n"] == 120
    assert "numpy.ma" not in got["modules"]
