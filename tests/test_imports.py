"""scipy stays out of a process that never needs it.

`import fpplab` loads numpy and the package only; each scipy submodule is
imported inside the function that uses it. An exp-law `simulate` therefore
runs on numpy and the compiled Dijkstra alone, and so do `classify` and the
influence energy constant of the exp, uniform and truncated-exp laws, whose
Gaussian primitives are numpy code. No path of the package loads
`scipy.stats`: the gamma law and the Clopper-Pearson interval run on
`scipy.special`. Nor does `import fpplab` load OpenSSL: the kernel's cache
file is named by a zlib checksum, so an exp-law `classify` leaves
`_hashlib` unloaded (numpy.random loads it, for `secrets`).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import fpplab
from fpplab import fpp_core

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
rc_laws = [cli.main(["classify", "--dist", spec, "--out", out + f"/law{i}.json"])
           for i, spec in enumerate(["exp:rate=1", "uniform:lo=1,hi=2",
                                     "trunc(exp:rate=1;k=10,c5=0.5)"])]
cfg = experiments.ExperimentConfig(dist_spec="exp:rate=1", dim=2, n_list=(8,), replicas=8,
                                   master_seed=3, m_policy="auto", workers=1)
k_const = experiments.influence_diagnostics(cfg, 8, exact_replicas=4)["m0"].k_const
loaded_after_classify = scipy_modules()
gamma_cdf = fpplab.parse_spec("gamma:a=2,b=1").cdf(1.0)
rc_gamma = cli.main(["simulate", "--dist", "gamma:a=2,b=1", "--n", "4,6,8",
                     "--replicas", "4", "--workers", "1", "--out", out + "/gamma"])
rc_classify = cli.main(["classify", "--dist", "gamma:a=2,b=1", "--out", out + "/classify.json"])
ci = experiments._count_ci(3, 150)
print(json.dumps({"rc": [rc, *rc_laws, rc_gamma, rc_classify], "loaded": loaded,
                  "loaded_after_classify": loaded_after_classify, "k_const": k_const,
                  "loaded_after_gamma": scipy_modules(),
                  "kernel": fpp_core._KERNEL is not None,
                  "gamma_cdf": gamma_cdf, "ci": ci}))
"""


_CLASSIFY_PROBE = """
import json, sys
from fpplab import cli, fpp_core
rc = cli.main(["classify", "--dist", "exp:rate=1", "--out", sys.argv[1]])
print(json.dumps({"rc": rc, "hashlib": "_hashlib" in sys.modules,
                  "kernel": fpp_core._KERNEL is not None}))
"""


def _probe(script, *args):
    """The last stdout line of script, run in a fresh interpreter that
    imports this fpplab, as JSON."""
    src = str(Path(fpplab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_exp_classify_loads_no_openssl(tmp_path):
    got = _probe(_CLASSIFY_PROBE, str(tmp_path / "exp.json"))
    assert got["rc"] == 0 and got["kernel"] == (fpp_core._KERNEL is not None)
    assert not got["hashlib"]


def test_exp_simulate_and_classify_load_no_scipy_submodule(tmp_path):
    got = _probe(_PROBE, str(tmp_path))
    assert got["rc"] == [0] * 6
    outs = ["exp/report.json", "gamma/report.json", "classify.json"]
    for out in outs + [f"law{i}.json" for i in range(3)]:
        assert (tmp_path / out).is_file()
    for i in range(3):
        assert json.loads((tmp_path / f"law{i}.json").read_text())["verdict"]["direct_pass"]
    lazy = ["scipy.stats", "scipy.special", "scipy.integrate", "scipy.optimize"]
    if got["kernel"]:
        lazy.append("scipy.sparse")  # only the fallback solver needs csgraph
    assert not set(lazy) & set(got["loaded"]), got["loaded"]
    # the classifier and the energy constant of these laws run on numpy alone
    assert math.isfinite(got["k_const"]) and got["k_const"] > 0
    assert not set(lazy) & set(got["loaded_after_classify"]), got["loaded_after_classify"]
    # a law that needs scipy still imports it on first use, in the same process
    assert abs(got["gamma_cdf"] - (1.0 - 2.0 * math.exp(-1.0))) < 1e-12
    after = got["loaded_after_gamma"]
    assert "scipy.special" in after
    assert not [m for m in after if m == "scipy.stats" or m.startswith("scipy.stats.")], after
    lo, hi, method = got["ci"]
    assert method == "clopper-pearson" and 0.0 < lo < 3 / 150 < hi < 1.0
