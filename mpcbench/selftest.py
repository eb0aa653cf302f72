"""Smoke-size self-test of the benchmark harness, on the same code path.

Run from the repository root::

    python3 mpcbench/selftest.py

For every workload it makes two untraced and two traced runs at the smoke
size (``--size smoke``, different seeds) through ``run.py`` and checks that

* the last output line is the result object, with every metric of
  ``BENCHMARK.json`` present under its unit, every answer correct and no
  failed operation;
* every count (rounds, words, clustering and serving counts) is equal
  across the two runs of each kind;
* the traced run wrote its spans, each with a name, start, end, parent and
  run id, plus a summary line;
* no process the run started outlives it (the self-test adopts orphans, so
  a left-over helper would show up as its child);

and that ``run.py`` exits non-zero without printing a result in a directory
holding only ``BENCHMARK.json`` and ``mpcbench/``.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT = 300

sys.path.insert(0, ROOT)
from mpcbench import procs  # noqa: E402

problems: list = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print(f"  FAIL: {what}")


def run(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "mpcbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    left = procs.child_pids()
    expect(not left, f"{workload} seed={seed} trace={trace}: left processes {sorted(left)}")
    procs.stop_children()
    return proc


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{label}: last line is not a JSON object")
        return {"metrics": {}}
    keys = {"correct", "attempted", "failed", "metrics"}
    expect(set(res) == keys, f"{label}: keys {sorted(res)}")
    expect(res.get("correct") is True, f"{label}: correct={res.get('correct')}")
    expect(res.get("failed") == 0, f"{label}: failed={res.get('failed')}")
    expect(isinstance(res.get("attempted"), int) and res["attempted"] >= 1,
           f"{label}: attempted={res.get('attempted')}")
    return res


def check_metrics(res: dict, spec: list, label: str) -> None:
    got = res["metrics"]
    expect(set(got) == {m["name"] for m in spec},
           f"{label}: metric names differ from BENCHMARK.json")
    for m in spec:
        entry = got.get(m["name"], {})
        expect(entry.get("unit") == m["unit"], f"{label}: {m['name']} unit {entry.get('unit')}")
        expect(isinstance(entry.get("value"), float), f"{label}: {m['name']} value")


def counts(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}


def check_spans(path: str, label: str) -> None:
    expect(os.path.isfile(path), f"{label}: no span file at {path}")
    if not os.path.isfile(path):
        return
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    spans = [r for r in rows if r.get("type") == "span" and r.get("source") == "mpcbench"]
    expect(len(spans) > 0, f"{label}: span file has no benchmark spans")
    expect(all({"name", "start", "end", "parent", "run"} <= set(s) for s in spans),
           f"{label}: a span lacks name/start/end/parent/run")
    expect(any(r.get("type") == "summary" for r in rows), f"{label}: no summary line")


def check_stripped_dir() -> None:
    stripped = os.path.join(HERE, "out", "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(stripped, "mpcbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    proc = run(stripped, "batch-deep", 1, 0)
    expect(proc.returncode != 0, "stripped directory: run.py exited 0")
    expect(not proc.stdout.strip(), "stripped directory: run.py printed a result")
    shutil.rmtree(stripped, ignore_errors=True)


def main() -> int:
    procs.adopt_orphans()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in [w["name"] for w in bench["workloads"]]:
        print(f"{w}:")
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            results = []
            for seed in (1, 2):
                label = f"{w} seed={seed} trace={trace}"
                res = result_of(run(ROOT, w, seed, trace), label)
                check_metrics(res, spec, label)
                results.append(res)
                if trace:
                    check_spans(os.path.join(HERE, "out", f"trace-{w}-seed{seed}.jsonl"), label)
            expect(counts(results[0]) == counts(results[1]),
                   f"{w} trace={trace}: counts differ between seeds: "
                   f"{counts(results[0])} vs {counts(results[1])}")
    print("stripped directory:")
    check_stripped_dir()
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
