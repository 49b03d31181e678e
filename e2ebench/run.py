#!/usr/bin/env python3
"""Build PlatoD2GL from source and run one end-to-end benchmark workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all --seconds S        # all four

Builds e2ebench/ (and with it the library under src/) in Release into
$CARGO_TARGET_DIR, or .bench_build at the repository root, then runs
pd2gl_e2e. Prints every metric as `workload metric value unit` and, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics. Untraced runs report the end-to-end metrics of BENCHMARK.json;
traced runs (--trace 1) report its per-layer metrics and write their spans
to .bench_out/. A per-layer metric whose layer a workload never calls is
reported as 0. --out DIR also stores the full record of each run there,
the input of compare.py.

Exits 0 when every output check passed, 1 otherwise (a failed build, a
crash, a check violation), 2 on bad arguments.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("PlatoD2GL sources not found under " + os.path.join(ROOT, "src"))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "-j", "4",
                   "--target", "pd2gl_e2e"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "pd2gl_e2e")


def parse_report(stdout):
    """The record pd2gl_e2e prints as `key value...` lines."""
    record = {"provenance": {}, "violation_messages": [], "metrics": {}}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key == "metric":
            name, value, unit = rest.split(" ")
            record["metrics"][name] = {"value": float(value), "unit": unit}
        elif key == "provenance":
            name, _, value = rest.partition(" ")
            record["provenance"][name] = value
        elif key == "violation":
            record["violation_messages"].append(rest)
        elif key in ("attempted", "failed", "violations"):
            record[key] = int(rest)
    return record


def run_workload(binary, workload, args, spec):
    """Runs one workload; returns its record with metrics checked against
    BENCHMARK.json (per-layer metrics of idle layers filled with 0)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--duration", str(args.seconds)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace", os.path.join(
            out_dir, "spans-%s-seed%d.json" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in %d s" % (workload, BINARY_TIMEOUT_S))
    record = parse_report(proc.stdout)
    if proc.returncode not in (0, 1) or "violations" not in record:
        fail("%s exited with %d" % (workload, proc.returncode))
    record.update(workload=workload, seed=args.seed, duration_s=args.seconds,
                  traced=bool(args.trace))
    record["correct"] = proc.returncode == 0 and record["violations"] == 0

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = record["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            fail("%s reported %s [%s], not declared in BENCHMARK.json"
                 % (workload, name, m["unit"]))
    metrics = {}
    for m in declared:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("%s did not report %s" % (workload, m["name"]))
    record["metrics"] = metrics
    for message in record["violation_messages"]:
        print("%s: check failed: %s" % (workload, message), file=sys.stderr)
    return record


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory to store each run's record")
    args = parser.parse_args()

    binary = build()
    workloads = names if args.workload == "all" else [args.workload]
    records = [run_workload(binary, w, args, spec) for w in workloads]

    for record in records:
        for name, m in record["metrics"].items():
            print("%s %s %r %s" % (record["workload"], name, m["value"],
                                   m["unit"]))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "%s-seed%d-trace%d-%d.json" % (
                record["workload"], args.seed, args.trace, time.time_ns()))
            with open(path, "w") as f:
                json.dump(record, f, indent=1)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s/%s" % (r["workload"], name): m
                   for r in records for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
