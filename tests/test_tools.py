import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bit_digest_prints_the_same_lines_twice():
    """Two runs of tools/bit_digest.py print the same complete list of
    digests under both kernels."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "tools" / "bit_digest.py")]
    runs = [subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True) for _ in range(2)]
    outs = [run.communicate(timeout=300) for run in runs]
    for run, (_, err) in zip(runs, outs):
        assert run.returncode == 0, err
    first, second = (out.splitlines() for out, _ in outs)
    assert first == second
    # per kernel: 3 models x (logits, grads) on a batch of 8 x 48 and on one
    # of 4 x 12, Adam's params, m and v, 4 table dtypes x (file, rows), 4
    # verify reports, 3 runtimes x (stream, meter) and 4 decode logits
    # digests, and 2 long one-lane decodes x (stream, meter, logits)
    assert len(first) == 2 * (6 + 6 + 3 + 8 + 4 + 6 + 4 + 6)
    for line in first:
        assert re.fullmatch(r"(tiled-blas|sequential) [\w.-]+ [0-9a-f]{64}", line), line
