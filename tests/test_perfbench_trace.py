"""The benchmark's traced run against the program as it is.

``perfbench/tracing.py`` patches program functions by name and reads what
they return (``prepare_inputs`` rows with a ``sent_span``; ``batch_inputs``
called by that name from the training and the eval loop). A rename or a
changed return type shows up here as a failed or incomplete traced run.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_short_traced_predict_bulk_run_reports_every_input_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "predict-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for key in ("predict.prepare_ms", "predict.batch_ms", "predict.pad_fraction",
                "encoder.truncated"):
        assert key in metrics, key
        assert math.isfinite(metrics[key]["value"]), key
