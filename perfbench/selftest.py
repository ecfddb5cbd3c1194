#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about 20 s after the build).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with --tiny through run.py, untraced
and traced, and checks that:
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    is printed with its declared unit, or named on an "absent:" line;
  * no operation failed and the result is correct, which for a traced run
    includes the traced-vs-timed fingerprint check;
  * a deliberately corrupted serve response is counted as failed, so the
    differential check can fail.
Exits 1 on the first broken expectation.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return lines, json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def check_metrics(workload, trace, lines, result, declared):
    absent = {line.split()[1] for line in lines if line.startswith("absent:")}
    wrong = []
    for m in declared:
        got = result["metrics"].get(m["name"])
        if m["name"] in absent:
            print(f"note {workload}: {m['name']} absent")
        elif (got is None or got["unit"] != m["unit"]
              or not isinstance(got["value"], (int, float))):
            wrong.append(m["name"])
    expect(not wrong, f"{workload} trace={trace}: all {len(declared)} metrics printed with "
                      f"their units" + (f"; missing or wrong: {wrong}" if wrong else ""))


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        lines, result = run(w, 0)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{w}: {result['attempted']} operations, none failed")
        check_metrics(w, 0, lines, result, SPEC["end_to_end"])
        expect(all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"]),
               f"{w}: end-to-end metrics are non-zero")

        lines, result = run(w, 1)
        prints = {line.split(":", 1)[0]: line.split(":", 1)[1].strip()
                  for line in lines if line.startswith(("fingerprint:", "traced fingerprint:"))}
        expect(result["correct"] and prints.get("fingerprint") == prints.get("traced fingerprint"),
               f"{w}: traced run reproduces fingerprint {prints.get('fingerprint')}")
        check_metrics(w, 1, lines, result, SPEC["per_layer"])

    _, result = run("serve", 0, "--corrupt-response", "0")
    expect(result["failed"] >= 1 and not result["correct"],
           "serve: a corrupted response is counted as failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
