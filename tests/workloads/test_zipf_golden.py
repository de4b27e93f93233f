"""Golden pin of the zipf reference streams (parser, vpr, twolf).

The zipf sampler draws its popularity picks from the standard library
alone, so a stream is the same on every install.  This pins the
SHA-256 of the first 20,000 references of each zipf benchmark at seed
0, in this process and in a child interpreter that cannot import
numpy.  A digest change means the stream moved: find out why, never
re-pin to make a change pass.
"""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import SCALED_GEOMETRY
from repro.workloads import get_benchmark, make_ref_stream

REFS = 20_000

ZIPF_GOLDEN = {
    "parser":
        "44d4e93ae8e2cddc994ba29a9cf71fc6a3aa33b69b40be012b87500124666639",
    "vpr":
        "6ee9000c00ca6f685bce7a71339264a43c6e45d363ab41d334cb4bbd9f1bf959",
    "twolf":
        "f888734f0533abd8e5ba39586afc6b82a9867cf3de9734b8b6f4a093aacaf1d3",
}


def stream_digest(name: str) -> str:
    h = hashlib.sha256()
    stream = make_ref_stream(
        get_benchmark(name), SCALED_GEOMETRY.l2_bytes, seed=0
    )
    for ref in itertools.islice(stream, REFS):
        h.update(b"%d %d %d\n" % (ref.is_write, ref.addr, ref.gap))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ZIPF_GOLDEN))
def test_zipf_stream_is_pinned(name):
    assert get_benchmark(name).kind == "zipf"
    assert stream_digest(name) == ZIPF_GOLDEN[name]


def test_zipf_streams_without_numpy():
    # ``sys.modules["numpy"] = None`` makes any numpy import fail, as
    # on an install without it.
    root = Path(__file__).resolve().parents[2]
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from tests.workloads.test_zipf_golden import ZIPF_GOLDEN, "
        "stream_digest\n"
        "for name, pinned in ZIPF_GOLDEN.items():\n"
        "    assert stream_digest(name) == pinned, name\n"
    )
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)])
    )
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
