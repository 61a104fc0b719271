#!/usr/bin/env python3
"""Record reference outputs for every op in every workload pool.

    python3 bench/record.py            # writes bench/references.json

Run it only on the commit whose outputs are the references; the benchmark
then checks every op against them (see ``workloads.mismatches`` for the
tolerances).  Takes about a minute and a half on one core.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.pin_threads()
    lab = run.import_package()
    import scipy.fft as sfft
    import workloads as wl
    ops = {}
    ctx = wl.Context(lab=lab, scratch=run.OUT / f"record-{os.getpid()}")
    try:
        with sfft.set_workers(1):
            for workload in run.WORKLOADS:
                wl.warm_up(ctx, workload)
                for op in wl.all_ops(workload):
                    ops[op.key] = wl.outputs(ctx, op, wl.call(ctx, op))
                print(f"{workload}: {len(wl.all_ops(workload))} ops", flush=True)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    text = json.dumps({"tolerance": {"rtol": wl.RTOL, "atol": wl.ATOL},
                       "ops": ops}, indent=1, sort_keys=True, allow_nan=False)
    run.REFERENCES.write_text(text + "\n")
    print(f"wrote {len(ops)} references to {run.REFERENCES.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
