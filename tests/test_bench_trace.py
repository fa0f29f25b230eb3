"""Smoke test of the benchmark's layer mode (`bench/run.py --trace 1`).

bench/tracer.py wraps the layer modules' functions by name and the
integrands by qualname, so a change inside the library can leave it booking
nothing.  Here its Tracer runs three CLI commands in a fresh interpreter and
must book time to the quadrature and to both integrands, and record a plan
for the terms it names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = [
    ["moment", "--t", "1", "--n", "4", "--nodes", "5"],
    ["moment", "--t", "1", "--n", "4", "--nodes", "5", "--route", "nested"],
    ["asymptotic-table", "--n", "2", "--t-list", "4"],
]

SCRIPT = """
import contextlib, io, json, sys
from tracer import Tracer
tracer = Tracer()
tracer.install()
import bosegas.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(bosegas.cli.main(argv))
print(json.dumps({"codes": codes, "self_s": tracer.self_s,
                  "terms": sorted({plan["term"] for plan in tracer.plans})}))
"""


def test_tracer_books_layers_and_plans():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "bench"), str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0]
    for bucket in ("quadrature", "kernel.integrand", "moments.nested_integrand"):
        assert out["self_s"].get(bucket, 0.0) > 0.0, (bucket, out["self_s"])
    # the full cluster "4" is its closed form and integrates nothing
    assert {"3-1", "2-1-1", "nested-4"} <= set(out["terms"]), out["terms"]
