"""scipy stays out of a process that never needs it.

`import fpplab` loads numpy and the package only; each scipy submodule is
imported inside the function that uses it. An exp-law `simulate` therefore
runs on numpy and the compiled Dijkstra alone, and no path of the package
loads `scipy.stats`: the gamma law and the Clopper-Pearson interval run on
`scipy.special`.
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
from fpplab import cli, experiments, fpp_core

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
rc = cli.main(["simulate", "--dist", "exp:rate=1", "--n", "4,6,8", "--replicas", "4",
               "--workers", "1", "--out", out + "/exp"])
loaded = scipy_modules()
gamma_cdf = fpplab.parse_spec("gamma:a=2,b=1").cdf(1.0)
rc_gamma = cli.main(["simulate", "--dist", "gamma:a=2,b=1", "--n", "4,6,8",
                     "--replicas", "4", "--workers", "1", "--out", out + "/gamma"])
rc_classify = cli.main(["classify", "--dist", "gamma:a=2,b=1", "--out", out + "/classify.json"])
ci = experiments._count_ci(3, 150)
print(json.dumps({"rc": [rc, rc_gamma, rc_classify], "loaded": loaded,
                  "loaded_after_gamma": scipy_modules(),
                  "kernel": fpp_core._KERNEL is not None,
                  "gamma_cdf": gamma_cdf, "ci": ci}))
"""


def test_exp_simulate_loads_no_scipy_submodule(tmp_path):
    src = str(Path(fpplab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == [0, 0, 0]
    for out in ("exp/report.json", "gamma/report.json", "classify.json"):
        assert (tmp_path / out).is_file()
    lazy = ["scipy.stats", "scipy.special", "scipy.integrate", "scipy.optimize"]
    if got["kernel"]:
        lazy.append("scipy.sparse")  # only the fallback solver needs csgraph
    assert not set(lazy) & set(got["loaded"]), got["loaded"]
    # a law that needs scipy still imports it on first use, in the same process
    assert abs(got["gamma_cdf"] - (1.0 - 2.0 * math.exp(-1.0))) < 1e-12
    after = got["loaded_after_gamma"]
    assert "scipy.special" in after
    assert not [m for m in after if m == "scipy.stats" or m.startswith("scipy.stats.")], after
    lo, hi, method = got["ci"]
    assert method == "clopper-pearson" and 0.0 < lo < 3 / 150 < hi < 1.0
