"""Output bits do not depend on the BLAS thread count.

Every contraction over token rows or positions runs in 128-wide chunks, so
long sequences give the same bits at one and at two BLAS threads. Each
child process sets its thread count before numpy loads, which a running
process cannot change afterwards.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 2 pkm training steps on 464-byte windows and cached and direct prefill
# logits at 400, 432 and 464 tokens, in f32 and f64: one sha256 line each
CHILD = """
import sys
import numpy as np
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import headmem as hm
import fingerprint as fp

text = fp._text()
for mode in ("f32", "f64"):
    with hm.precision(mode):
        print(fp._train(hm, "pkm", 32, 8, hm.ByteCorpus(text, seq_len=464), 2, 2))
        net = fp._read_model(hm)
        caches = hm.build_value_caches(net)
        logits = []
        for length in (400, 432, 464):
            prompt = text[length:2 * length].astype(np.int64)
            logits.append(hm.model_forward(prompt, net, value_caches=caches)[0])
            logits.append(hm.model_forward(prompt, net)[0])
        print(fp._sha(logits))
"""


def _fingerprint(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_long_sequences_give_the_same_bits_at_one_and_two_blas_threads():
    one, two = _fingerprint(1), _fingerprint(2)
    assert len(one.split()) == 4
    assert one == two
