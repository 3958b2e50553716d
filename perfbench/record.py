#!/usr/bin/env python3
"""Re-record ``reference.json``: result digests and deterministic counts.

Run from the repository root::

    python3 perfbench/record.py [workload ...]

For every input in each workload's pool (scenario seeds for the
in-process workloads, job seeds for ``sweep_service``) this runs the
input once in-process with the layer wrappers installed and records the
``content_hash`` of its rows plus its anchor counts. Recording is only
right at a commit whose rows are known good: the benchmark compares
every later run against these values.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import run as bench  # noqa: E402  (perfbench/run.py)


def record_inprocess(workload: str) -> dict[str, dict]:
    import workloads
    from layers import Patches, Recorder, install
    from repro.scenarios import content_hash

    spec = workloads.SPECS[workload]
    out = {}
    for s in range(workloads.POOL):
        rec = Recorder()
        with Patches() as patches:
            install(rec, patches)
            _, res = workloads._pass(spec, s)
        out[str(s)] = {"digest": content_hash(res.rows), "anchors": workloads.anchors(rec, spec.anchors)}
        print(f"{workload} seed {s}: {out[str(s)]}", file=sys.stderr, flush=True)
    return out


def record_service() -> dict[str, dict]:
    import workloads
    from layers import Patches, Recorder, install
    from repro.scenarios import Runner, content_hash

    runner = Runner(cache=None, executor="local")
    out = {}
    for s in range(workloads.JOB_POOL):
        rec = Recorder()
        with Patches() as patches:
            install(rec, patches)
            res = runner.run(
                [workloads.SERVICE_SCENARIO],
                overrides={**workloads.SERVICE_OVERRIDES, "seed": s},
            )[0]
        anchors = workloads.anchors(rec, workloads.SERVICE_ANCHORS)
        anchors["distrib.units"] = res.cells[2]  # no service stream in-process
        out[str(s)] = {"digest": content_hash(res.rows), "anchors": anchors}
    return out


def main(argv: list[str]) -> int:
    here = Path(__file__).resolve().parent
    root = Path.cwd()
    src = bench.build(root)
    os.environ.update(bench.shipping_env(src))
    sys.path.insert(0, str(src))
    bench.check_engine(src, root)
    import workloads

    path = here / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for workload in argv or workloads.WORKLOADS:
        if workload == "sweep_service":
            reference[workload] = record_service()
        else:
            reference[workload] = record_inprocess(workload)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
