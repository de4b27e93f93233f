#!/usr/bin/env python
"""CI smoke test for the traffic-aware policy variants.

Drives the silent-write and wb-compress variants end to end through
the facade and the CLI and asserts the invariants the feature's
acceptance rests on:

* the standard path is untouched — a standard run reports zero for
  every traffic counter;
* ``silent-write`` actually elides: silent stores > 0, one elided ECC
  update per silent store, and the write-back traffic fraction does
  not exceed the standard run's;
* ``wb-compress`` actually compresses: compressed write-back bytes
  land strictly between zero and the raw byte count;
* ``repro ipc --variant silent-write`` renders the figures-5–8-style
  comparison with the energy row;
* an ``--objectives area fit traffic`` autotune grid puts at least
  one traffic-aware variant point on the Pareto front;
* an unknown variant name exits 2 with the enumerating ``error:``
  line, from the CLI and the request layer alike.

Usage: ``PYTHONPATH=src python scripts/traffic_smoke.py``
"""

import contextlib
import io
import sys

from repro import api
from repro.cli import main as cli_main
from repro.core.policy import traffic_aware_variants

RUN = dict(benchmark="swim", refs=20_000, warmup=5_000)


def cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        rc = cli_main(list(argv))
    return rc, stdout.getvalue(), stderr.getvalue()


def main() -> int:
    std = api.run(api.RunRequest(**RUN))
    assert (std.silent_writes, std.elided_ecc_updates,
            std.wb_bytes_raw, std.wb_bytes_compressed) == (0, 0, 0, 0), (
        "standard run must keep every traffic counter at zero"
    )
    print(f"standard: wbf {100 * std.writeback_fraction:.2f}%, "
          f"counters all zero")

    sw = api.run(api.RunRequest(variant="silent-write", **RUN))
    assert sw.silent_writes > 0, "silent-write run elided nothing"
    assert sw.elided_ecc_updates == sw.silent_writes, (
        "every silent store must elide exactly one ECC update"
    )
    assert sw.writeback_fraction <= std.writeback_fraction, (
        "eliding stores may not increase write-back traffic"
    )
    print(f"silent-write: {sw.silent_writes} silent stores, "
          f"wbf {100 * sw.writeback_fraction:.2f}% "
          f"(standard {100 * std.writeback_fraction:.2f}%)")

    wb = api.run(api.RunRequest(variant="wb-compress", **RUN))
    assert 0 < wb.wb_bytes_compressed < wb.wb_bytes_raw, (
        "wb-compress must shrink the write-back stream"
    )
    print(f"wb-compress: {wb.wb_bytes_raw} -> {wb.wb_bytes_compressed} "
          f"write-back bytes "
          f"(ratio {wb.wb_bytes_raw / wb.wb_bytes_compressed:.2f})")

    rc, out, _ = cli(
        "ipc", "--benchmark", "mesa", "--variant", "silent-write",
        "--insts", "8000",
    )
    assert rc == 0, f"repro ipc exited {rc}"
    assert "energy (uJ)" in out and "ours = silent-write" in out, (
        "ipc comparison table is missing the energy/variant rows"
    )
    print("repro ipc --variant silent-write renders the energy row")

    response = api.autotune(api.AutotuneRequest(
        benchmarks=("swim",),
        schemes=("non-uniform",),
        codecs=("secded",),
        intervals=(262144,),
        variants=("standard", "silent-write", "wb-compress"),
        objectives=("area", "fit", "traffic"),
        trials=400,
        trials_per_shard=200,
        refs=6_000,
        warmup=2_000,
    ))
    aware = set(traffic_aware_variants())
    front_variants = {
        response.points[i]["variant"]
        for front in response.fronts.values()
        for i in front
    }
    assert front_variants & aware, (
        f"no traffic-aware variant on the front (front: "
        f"{sorted(front_variants)})"
    )
    print(f"autotune area/fit/traffic front carries "
          f"{sorted(front_variants & aware)}")

    rc, _, err = cli("run", "--benchmark", "swim", "--variant", "bogus")
    assert rc == 2, f"unknown variant must exit 2, got {rc}"
    assert "error:" in err and "available variants:" in err, (
        "unknown variant must enumerate the registry"
    )
    try:
        api.RunRequest(variant="bogus")
    except api.ReproError as exc:
        assert "available variants:" in str(exc)
    else:
        raise AssertionError("request layer accepted an unknown variant")
    print("unknown variant enumerates and exits 2")

    print("traffic smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
