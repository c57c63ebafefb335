"""scipy stays out of a process that never needs it.

`import fpplab` loads numpy and the package only; each scipy submodule is
imported inside the function that uses it. An exp-law `simulate` therefore
runs on numpy and the compiled Dijkstra alone.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import fpplab

_PROBE = """
import json, sys
import fpplab
from fpplab import cli, fpp_core

rc = cli.main(["simulate", "--dist", "exp:rate=1", "--n", "4,6,8", "--replicas", "4",
               "--workers", "1", "--out", sys.argv[1]])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
gamma_cdf = fpplab.parse_spec("gamma:a=2,b=1").cdf(1.0)
print(json.dumps({"rc": rc, "loaded": loaded, "kernel": fpp_core._KERNEL is not None,
                  "gamma_cdf": gamma_cdf}))
"""


def test_exp_simulate_loads_no_scipy_submodule(tmp_path):
    src = str(Path(fpplab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == 0
    assert (tmp_path / "out" / "report.json").is_file()
    lazy = ["scipy.stats", "scipy.special", "scipy.integrate", "scipy.optimize"]
    if got["kernel"]:
        lazy.append("scipy.sparse")  # only the fallback solver needs csgraph
    assert not set(lazy) & set(got["loaded"]), got["loaded"]
    # a law that needs scipy still imports it on first use, in the same process
    assert abs(got["gamma_cdf"] - (1.0 - 2.0 * math.exp(-1.0))) < 1e-12
