"""The benchmark's own tiny run still works against the package.

`perfbench` patches and calls the package by name (`forward_eval`,
`Network.step`, `cli.optimize_interpolation`, ...), so a rename in the
package shows up here as a failed run rather than at benchmark time.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_tiny_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "ALL CORRECT"
    result = json.loads(lines[-2])
    assert result["correct"] is True
