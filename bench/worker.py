"""One pass of a workload in a fresh interpreter, as a command-line user runs it.

Reads ``{"configs": [...], "trace": bool, "spans": path|null, "setup_only": bool}``
as JSON on stdin and prints one JSON line:

* ``ready``: ``time.monotonic()`` once ``import mehybrid`` and
  ``RunConfig.from_dict`` on every config are done (the parent started its
  clock just before launching this interpreter);
* ``total_s``: wall time from the validated configs to the last report;
* ``peak_rss_mb``: this process's peak resident memory;
* ``reports``: per config, the report fields the benchmark checks, or ``error``;
* ``layers``: per-layer metrics, on traced passes only.
"""
from __future__ import annotations

import json
import resource
import sys
import time

REPORT_FIELDS = ("estimate", "n_exact", "n_exact_build", "n_elements", "relative_error", "model_calls_total")


def main() -> None:
    job = json.load(sys.stdin)
    import mehybrid.cli as cli

    cfgs = [cli.RunConfig.from_dict(raw) for raw in job["configs"]]
    ready = time.monotonic()
    if job.get("setup_only"):
        print(json.dumps({"ready": ready, "package": cli.__file__}))
        return
    tracer = None
    if job["trace"]:
        from tracer import Tracer, layer_metrics, write_spans

        tracer = Tracer()
        tracer.install()
    reports = []
    t0 = time.perf_counter()
    for i, cfg in enumerate(cfgs):
        if tracer is not None:
            tracer.run_id = i
        try:
            report = cli.run(cfg)
        except Exception as exc:  # a config that raises is a failed operation, not a crashed pass
            report = {"error": f"{type(exc).__name__}: {exc}"}
        reports.append(report if "error" in report else {key: report[key] for key in REPORT_FIELDS})
    total_s = time.perf_counter() - t0
    out = {
        "ready": ready,
        "package": cli.__file__,
        "total_s": total_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reports": reports,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, total_s)
        out["bindings"] = tracer.bindings
        out["n_spans"] = len(tracer.spans)
        if job.get("spans"):
            write_spans(tracer.spans, job["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
