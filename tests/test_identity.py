"""The identity manifest tool: a checkout's manifest repeats, and a comparison names what differs."""
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def test_manifest_repeats_and_compare_names_a_changed_output(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for path in (first, second):
        proc = _tool("--out", path, "--m", 2000)
        assert proc.returncode == 0, proc.stderr
    manifest = json.loads(first.read_text())
    assert manifest["seeds"] == [42, 7] and manifest["m"] == 2000
    entries = manifest["entries"]
    # 17 workload runs, 2 ko3 me-lha and 4 direct-hybrid runs and 3 tables per seed; every hybrid run
    # hashes its trace, every refining one its events
    assert len(entries) == 52
    assert {key for key in entries if key.startswith("table")} == {f"table {n}/{s}" for n in (1, 2, 5) for s in (42, 7)}
    runs = [e for key, e in entries.items() if not key.startswith("table")]
    assert all(("trace" in e) == (e["config"]["method"] != "mc") for e in runs)
    assert "events" in entries["ko-gha/42/0"] and "events" not in entries["ode-table2/42/0"]
    assert "events" in entries["ko-lha/7/1"] and entries["ko-lha/7/1"]["config"]["method"] == "me-lha"
    assert {entries[f"direct-hybrid/42/{i}"]["config"]["problem"] for i in range(4)} == {
        "linear-ode", "ko3", "burgers", "step"}
    assert first.read_text() == second.read_text()
    proc = _tool("--compare", first, second)
    assert proc.returncode == 0 and proc.stdout.strip() == "identical: 52 entries"

    entries["ode-table2/7/1"]["trace"] = "0" * 64
    del entries["table 5/42"]
    second.write_text(json.dumps(manifest))
    proc = _tool("--compare", first, second)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == ["ode-table2/7/1: trace differs", "table 5/42: only in the first manifest"]
