"""One fresh process of the benchmark: import spacinglab, set up, work.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT RESULT

MODE is ``setup`` (stop once set-up is done), ``round`` (the workload in its
end-to-end configuration), ``plain`` (one worker, untraced) or ``trace``
(every workload in turn, one worker, with spans; WORKLOAD is ignored).  The
result is written as JSON to RESULT.  ``setup_done`` is a
``time.monotonic`` reading, which the parent compares with its own clock;
``work_s`` is set-up plus work, after the import.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(mode, workload, seed, out, result_path):
    import_start = time.monotonic()
    import spacinglab.cli  # noqa: F401  (imports every layer)

    import_s = time.monotonic() - import_start
    from workloads import WORKLOADS

    seed = int(seed)
    out = Path(out)
    result = {"import_s": import_s}
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["work_s"] = {}
        result["reports"] = {}
        for name, w in WORKLOADS.items():
            tracer.workload = name
            start = time.monotonic()
            ctx = w.setup(seed, out / name, 1)
            result["reports"][name] = w.work(ctx)
            result["work_s"][name] = time.monotonic() - start
        tracer.dump(out / "spans.json")
    else:
        w = WORKLOADS[workload]
        ctx = w.setup(seed, out, w.workers if mode == "round" else 1)
        result["setup_done"] = time.monotonic()
        if mode != "setup":
            result["report"] = w.work(ctx)
            result["work_s"] = time.monotonic() - import_start - import_s
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
