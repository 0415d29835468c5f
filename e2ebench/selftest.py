#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny scale.

    python3 e2ebench/selftest.py

Checks, on a 20k-event trace per workload:
  * every workload completes with correct outputs, untraced and traced;
  * every metric BENCHMARK.json names is printed with its unit, and the
    one-command table prints every end-to-end metric plus failed_frac;
  * the digest check fails (exit 1, correct false, every job failed) when
    one output value of every job is perturbed.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--events", "20000", "--seconds", "0.2", "--seed", "3"]


def run(args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    lines = p.stdout.decode().strip().splitlines()
    return p.returncode, lines, p.stderr.decode()


def check(cond, what, detail=""):
    if not cond:
        print("FAIL: " + what)
        if detail:
            print(detail)
        sys.exit(1)
    print("ok: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    # The all-workload run first: it names every workload, including the
    # ones BENCHMARK.json does not gate.
    code, lines, _ = run(TINY)
    text = "\n".join(lines)
    check(code == 0 and json.loads(lines[-1])["correct"],
          "the all-workload run is correct")
    workloads = list(json.loads(lines[-1])["workloads"])
    check(all(w["name"] in workloads for w in bench["workloads"]),
          "the all-workload run covers every gated workload")
    for name, unit in list(units[0].items()) + [("failed_frac", "ratio")]:
        check(all(any(name in l and l.endswith(" " + unit) and l.startswith(w)
                      for l in lines) for w in workloads),
              "the all-workload table prints %s in %s" % (name, unit))
    check("role sum_groups_supervised" in text,
          "the all-workload run reports the supervised-vs-sharded role")
    check("role sum_groups_sharded" in text,
          "the all-workload run reports the sharded-vs-serial role")

    for name in workloads:
        for trace in (0, 1):
            code, lines, err = run(["--workload", name, "--trace", str(trace)] + TINY)
            check(code == 0 and lines, "%s --trace %d exits 0" % (name, trace),
                  err)
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s --trace %d prints the four result keys" % (name, trace))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s --trace %d outputs match the reference" % (name, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == units[trace],
                  "%s --trace %d prints every metric with its unit" % (name, trace))

    for name in workloads:
        code, lines, _ = run(["--workload", name, "--trace", "0",
                              "--perturb-output", "7"] + TINY)
        result = json.loads(lines[-1]) if lines else {}
        check(code != 0 and result.get("correct") is False
              and result["failed"] == result["attempted"],
              "%s: a perturbed output value fails the digest check" % name)
    print("selftest passed")


if __name__ == "__main__":
    main()
