"""Final fields must not depend on how many threads BLAS may use.

Each check runs one step of a scheme in a child process, once with
OPENBLAS_NUM_THREADS=1 and once with =2 (the variable is read when numpy is
imported, so it cannot be changed inside this process), and compares the
saved fields bit for bit.
"""

import os
import subprocess
import sys

import numpy as np
import reference_ops as ref

import maxglm

SRC = os.path.dirname(os.path.dirname(os.path.abspath(maxglm.__file__)))

CHILD = """
import sys
import numpy as np
from maxglm.harness import RunConfig, _state_fields, simulate

runs = {
    # stiff staggered step: nearly all of it is CG on 64^2 x 3 E vectors
    "simm": RunConfig(scheme="simm", ic="gauss_ap", ch=1e5, nx=64, ny=64,
                      cfl=None, dt=1e-2, t_end=1e-2),
    # one DP8 step of the collocated scheme
    "htc": RunConfig(scheme="htc", ic="gauss_t2", rk="rk_high", nx=80, ny=80,
                     cfl=None, dt=2e-2, t_end=2e-2),
}
out = {}
for scheme, config in runs.items():
    series, final = simulate(config)
    assert len(series.t) == 2, "expected exactly one step"
    for name, field in _state_fields(final).items():
        out[scheme + "_" + name] = field
np.savez(sys.argv[1], **out)
"""


def _final_fields(tmp_path, threads):
    path = str(tmp_path / ("threads_%d.npz" % threads))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", CHILD, path], env=env, check=True,
                   timeout=120)
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def test_final_fields_independent_of_blas_threads(tmp_path):
    one = _final_fields(tmp_path, 1)
    two = _final_fields(tmp_path, 2)
    assert sorted(one) == sorted(two)
    assert len(one) == 8
    for name in one:
        assert ref.same_bits(one[name], two[name]), name
