"""Identity manifest: one sha256 per output of the benchmark's runs and of the paper tables.

    python3 tools/identity.py --out manifest.json
    python3 tools/identity.py --compare before.json after.json

The package is imported from the checkout's ``src/`` and the run configs
from its ``bench/workloads.py``, which is only read.  At seeds 42 and 7,
every config of every benchmark workload is run through ``mehybrid.cli.run``
in this one process, with a trace CSV where the method writes one and an
events CSV where it refines, and so are the runs the workloads leave out
(``EXTRA``): ko3 ``me-lha`` at the ko-gha settings and one ``direct-hybrid``
per problem.  The manifest holds, per run, the sha256 of

* the report without ``wall_time_s``, ``timings`` and ``config``, the fields
  that hold wall-clock times and output paths, as sorted JSON;
* the trace CSV and the events CSV;

and the sha256 of the stdout of ``mehybrid table 1``, ``2`` and ``5`` at the
seed.  ``--m`` sets every run's and every table's sample count, for quick
checks; by default each workload runs at its benchmark m, each extra run at
the m of its config and each table at the paper's.  Two checkouts made the
same outputs when their manifests compare equal: ``--compare`` prints every
entry and field that differs and exits 1 if any does, 0 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from mehybrid import cli  # noqa: E402
from mehybrid.problems import PROBLEMS  # noqa: E402

SEEDS = (42, 7)
TABLES = (1, 2, 5)
# report fields that hold wall-clock times, or the config with its output paths
UNHASHED = ("wall_time_s", "timings", "config")
# Runs no benchmark workload makes, keyed like a workload; each gamma gives a nonempty band at the
# seeds (the global ko3 surrogate at p = 5 stays above 0.23 in |g~|, so its band is about 16,000
# of the 1e6 samples at 0.231).
EXTRA = {
    "ko-lha": [{"problem": "ko3", "method": "me-lha", "m": 1_000_000, "order": p, "delta_m": 100,
                "refine": {"theta1": 1e-4}} for p in (3, 5)],
    "direct-hybrid": [
        {"problem": "linear-ode", "method": "direct-hybrid", "m": 1_000_000, "order": 3, "gamma": 0.01},
        {"problem": "ko3", "method": "direct-hybrid", "m": 1_000_000, "order": 5, "gamma": 0.231},
        {"problem": "burgers", "method": "direct-hybrid", "m": 200_000, "order": 2, "gamma": 0.01},
        {"problem": "step", "method": "direct-hybrid", "m": 1_000_000, "order": 3, "gamma": 0.01},
    ],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(raw: dict, tmp: Path) -> dict:
    """Run one config with every output file its method writes; the hashes of report and files."""
    files = {}
    if raw["method"] != "mc":
        files["trace"] = tmp / "trace.csv"
    if raw["method"] in ("me-gha", "me-lha") and "theta1" in PROBLEMS[raw["problem"]].defaults:
        files["events"] = tmp / "events.csv"
    cfg = cli.RunConfig.from_dict({**raw, "output": {key: str(path) for key, path in files.items()}})
    report = {key: value for key, value in cli.run(cfg).items() if key not in UNHASHED}
    entry = {"config": raw, "report": _sha256(json.dumps(report, sort_keys=True).encode())}
    entry.update({key: _sha256(path.read_bytes()) for key, path in files.items()})
    return entry


def table_entry(n: int, seed: int, m: int | None) -> dict:
    """The sha256 of ``mehybrid table n`` stdout at the seed (and m, when given)."""
    args = ["table", str(n), "--set", f"seed={seed}"] + ([] if m is None else ["--set", f"m={m}"])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"mehybrid {' '.join(args)} exited with code {code}")
    return {"command": ["mehybrid"] + args, "stdout": _sha256(stdout.getvalue().encode())}


def manifest(m: int | None) -> dict:
    """Every entry of the manifest, keyed ``workload/seed/index`` (``EXTRA``'s names too) and
    ``table N/seed``."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            runs = {workload: workloads.configs(workload, seed, m) for workload in workloads.WORKLOADS}
            runs.update({name: [{**raw, "seed": seed, **({} if m is None else {"m": m})} for raw in extra]
                         for name, extra in EXTRA.items()})
            for name, raws in runs.items():
                for i, raw in enumerate(raws):
                    entries[f"{name}/{seed}/{i}"] = run_entry(raw, Path(tmp))
            for n in TABLES:
                entries[f"table {n}/{seed}"] = table_entry(n, seed, m)
    return {"seeds": list(SEEDS), "m": m, "entries": entries}


def compare(a: dict, b: dict) -> list[str]:
    """One line per entry or field that differs between manifests ``a`` and ``b``."""
    lines = [f"{key}: {a[key]} against {b[key]}" for key in ("seeds", "m") if a[key] != b[key]]
    ea, eb = a["entries"], b["entries"]
    lines += [f"{key}: only in the first manifest" for key in ea if key not in eb]
    lines += [f"{key}: only in the second manifest" for key in eb if key not in ea]
    for key in ea.keys() & eb.keys():
        for field in sorted(ea[key].keys() | eb[key].keys()):
            if ea[key].get(field) != eb[key].get(field):
                lines.append(f"{key}: {field} differs")
    return sorted(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the manifest of this checkout to this JSON file")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two manifests")
    parser.add_argument("--m", type=int, default=None,
                        help="every run's and table's sample count (quick checks only)")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else f"identical: {len(a['entries'])} entries")
        return 1 if lines else 0
    result = manifest(args.m)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: {len(result['entries'])} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
