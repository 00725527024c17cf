"""Repeated prefill requests reuse the heap instead of faulting it back in.

On glibc, importing headmem fixes malloc's mmap threshold and raises its
trim threshold, so the temporaries one forward frees serve the next. Each
child process counts the minor page faults of three cached-value forwards
of a 512-token prompt after two warm-up forwards. glibc's own environment
variables, when set, take precedence over headmem's settings.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(not _glibc(), reason="malloc settings apply on glibc only")

CHILD = """
import resource
import sys
import numpy as np
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import headmem as hm
import fingerprint as fp

net = fp._read_model(hm)
caches = hm.build_value_caches(net)
prompt = fp._text()[:512].astype(np.int64)
for _ in range(2):
    hm.model_forward(prompt, net, value_caches=caches)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    hm.model_forward(prompt, net, value_caches=caches)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _faults(**malloc_env) -> int:
    env = {var: value for var, value in os.environ.items()
           if not var.startswith("MALLOC_") and var != "GLIBC_TUNABLES"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **malloc_env)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_warm_prefill_requests_take_almost_no_page_faults():
    assert _faults() < 100


@pytest.mark.parametrize("malloc_env", [
    {"MALLOC_MMAP_THRESHOLD_": "0", "MALLOC_TRIM_THRESHOLD_": "0"},
    {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=0:glibc.malloc.trim_threshold=0"},
], ids=["malloc_vars", "tunables"])
def test_glibc_environment_overrides_the_settings(malloc_env):
    assert _faults(**malloc_env) >= 1000
