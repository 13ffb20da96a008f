#!/usr/bin/env python3
"""Repository benchmark driver (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

A run builds perfbench/ (and the ifet sources it links) into .bench_build/,
prepares the workload's input for the seed's data variant once, runs the
workload in its own process, checks its outputs and prints a report whose last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
report the end-to-end metrics of BENCHMARK.json, traced runs the per-layer
metrics; a traced run first makes an untraced run of the same seed, and the
difference between the two is the tracing overhead. --out FILE appends the
run to a JSON-lines result set, which --compare reads.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "ifet_perfbench")
INPUTS = os.path.join(BUILD, "inputs")
TRACES = os.path.join(BUILD, "traces")
WORKLOADS = ("playback_256", "classify_256", "server_mix_128")
# Run seeds share prepared inputs: seed % DATA_VARIANTS picks the data, the
# full seed everything else, so a set of runs prepares each workload's input
# at most this many times.
DATA_VARIANTS = 4
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ifet sources under {ROOT}/src; run from a full checkout", 2)
    build_dir = os.path.join(BUILD, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", build_dir, "--target",
                      "ifet_perfbench", "--parallel", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (see .bench_build/build.log)")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def prepared_files(prefix):
    return sorted(glob.glob(glob.escape(prefix) + "*.cvol"))


def prepare(workload, seed):
    """Prepares the input of the seed's data variant once; checks its hash
    after. Returns (prefix of the prepared files, data seed)."""
    os.makedirs(INPUTS, exist_ok=True)
    data_seed = seed % DATA_VARIANTS
    prefix = os.path.join(INPUTS, f"{workload}-data{data_seed}")
    manifest = prefix + ".sha256.json"
    if os.path.exists(manifest):
        with open(manifest) as f:
            expected = json.load(f)
        for name, digest in expected.items():
            path = os.path.join(INPUTS, name)
            if not os.path.exists(path) or sha256(path) != digest:
                fail(f"prepared input {name} does not match its recorded "
                     f"hash; delete {prefix}.* to prepare it again")
    else:
        started = time.monotonic()
        cmd = [BINARY, "prepare", "--workload", workload, "--seed",
               str(data_seed), "--prefix", prefix]
        if subprocess.run(cmd).returncode != 0:
            fail(f"preparing {workload} data seed {data_seed} failed")
        hashes = {os.path.basename(p): sha256(p) for p in prepared_files(prefix)}
        with open(manifest, "w") as f:
            json.dump(hashes, f, indent=1)
        print(f"prepared {workload} data seed {data_seed} in "
              f"{time.monotonic() - started:.1f} s (outside every metric)")
    return prefix, data_seed


def check_digests(workload, seed, digests):
    """Per-client digest sequences must repeat across runs of one seed."""
    path = os.path.join(INPUTS, f"{workload}-{seed}.digests.json")
    reference = []
    if os.path.exists(path):
        with open(path) as f:
            reference = json.load(f)
    ok = len(reference) in (0, len(digests))
    compared = 0
    for client, seq in enumerate(digests):
        if client < len(reference):
            common = min(len(seq), len(reference[client]))
            ok = ok and seq[:common] == reference[client][:common]
            compared += common
    merged = [seq if client >= len(reference) or len(seq) >= len(reference[client])
              else reference[client] for client, seq in enumerate(digests)]
    with open(path, "w") as f:
        json.dump(merged, f)
    detail = (f"{compared} digests compared with earlier runs of this seed"
              if reference else "first run of this seed; sequence recorded")
    return {"name": "digests_repeat", "ok": ok, "detail": detail}


def layer_value(name, raw, trace_info):
    if name in raw["values"]:
        return raw["values"][name]
    if name in raw["samples"]:
        return stats.median(raw["samples"][name])
    if name == "failed_frac":
        return stats.failed_frac(raw["attempted"], raw["failed"])
    if name in trace_info:
        return trace_info[name]
    return 0.0  # the layer is idle on this workload


def trace_summary(trace_path, raw, untraced_raw):
    """Per-layer self time per span, span count and tracing overhead: the
    traced run's median op over the untraced run's, minus one."""
    info = {}
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        spans[e["cat"]] = spans.get(e["cat"], 0) + 1
    for layer, micros in stats.self_times(events).items():
        info[f"trace.self_ms.{layer}"] = micros / 1e3 / spans[layer]
    info["trace.spans"] = len(events)
    info["trace.overhead_pct"] = stats.overhead_pct(untraced_raw["op_ms"],
                                                    raw["op_ms"])
    return info


def shape_lines(workload, raw):
    """The paper's relative-cost shape (reported, not gated)."""
    lines = []

    def line(ok, claim):
        lines.append(f"  [shape {'OK  ' if ok else 'FAIL'}] {claim}")

    samples, values = raw["samples"], raw["values"]
    frame = stats.median(raw["op_ms"])
    if workload == "playback_256":
        evaluate = stats.median(samples.get("iatf.evaluate_ms", []))
        overlay = stats.median(samples.get("playback.overlay_frame_ms_p50", []))
        line(evaluate < 0.01 * frame,
             f"IATF synthesis {evaluate:.4f} ms < 1% of the {frame:.1f} ms frame")
        line(overlay < 2 * frame,
             f"overlay frame {overlay:.1f} ms < 2 x IATF frame {frame:.1f} ms")
        lines.append(f"  render skip rate: key-frame TF "
                     f"{values.get('render.skip_rate.static', 0):.3f}, IATF TF "
                     f"{values.get('render.skip_rate.iatf', 0):.3f}")
    elif workload == "classify_256":
        seconds = stats.median(samples.get("classify.ms", [])) / 1e3
        line(seconds >= 0.1,
             f"256^3 classification takes {seconds:.2f} s per step "
             "(seconds, not milliseconds)")
    return lines


def run_workload(args, prepared, trace, trace_path, timeout):
    """Runs the workload in its own process; returns (ok, raw samples)."""
    prefix, data_seed = prepared
    cmd = [BINARY, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--prefix", prefix, "--data-seed", str(data_seed),
           "--trace-out", trace_path]
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:.0f} s")
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} run failed with exit code {child.returncode}")
    raw = json.loads(lines[-1])
    for text in lines[:-1]:
        print(text)
    checks = list(raw["checks"])
    if raw["digests"]:
        checks.append(check_digests(args.workload, args.seed, raw["digests"]))
        print(f"  [check {'OK  ' if checks[-1]['ok'] else 'FAIL'}] "
              f"digests_repeat: {checks[-1]['detail']}")
    return child.returncode == 0 and all(c["ok"] for c in checks), raw


def run(args):
    spec = load_spec()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", 2)
    build()
    started = time.monotonic()  # the 180 s limit excludes the first build
    prepared = prepare(args.workload, args.seed)
    os.makedirs(TRACES, exist_ok=True)
    trace_path = os.path.join(TRACES, f"{args.workload}-{args.seed}.trace.json")
    untraced = None
    if args.trace:
        print("untraced run of the same seed, for the tracing overhead:")
        untraced_ok, untraced = run_workload(
            args, prepared, 0, trace_path,
            RUN_TIMEOUT_S - (time.monotonic() - started))
        print("traced run:")
    correct, raw = run_workload(args, prepared, args.trace, trace_path,
                                RUN_TIMEOUT_S - (time.monotonic() - started))
    if untraced is not None:
        correct = correct and untraced_ok

    metrics = {}
    if args.trace:
        info = trace_summary(trace_path, raw, untraced)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer_value(m["name"], raw, info),
                                  "unit": m["unit"]}
        print(f"trace: {info['trace.spans']} spans in {trace_path}")
    else:
        tail_value, tail_pct, count = stats.tail(raw["op_ms"])
        derived = {
            "setup_s": stats.median(raw["setup_s"]),
            "op_ms_p50": stats.median(raw["op_ms"]),
            "op_ms_tail": tail_value,
            "ops_per_s": raw["ops_per_s"],
            "peak_rss_mb": raw["values"]["peak_rss_mb"],
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": derived[m["name"]], "unit": m["unit"]}
        beyond = sum(1 for v in raw["op_ms"] if v > tail_value)
        print(f"op_ms_tail is p{tail_pct:.4g} of {count} ops, {beyond} beyond it"
              + (" (under 100 ops: fewer than 10 beyond)" if count < 100 else ""))
    for line in shape_lines(args.workload, raw):
        print(line)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")

    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def compare(parent_path, change_path):
    spec = load_spec()
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        sets = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    for name, m in r["result"]["metrics"].items():
                        sets.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
        return sets

    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':16s} {'metric':34s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        m = kinds.get(name, {"better": "lower"})
        p = stats.quartiles(list(parent[key].values()))
        c = stats.quartiles(list(change[key].values()))
        v = stats.verdict(parent[key], change[key], m["better"], m.get("bound"))
        print(f"{workload:16s} {name:34s} "
              f"{p[0]:10.4g}/{p[1]:10.4g}/{p[2]:10.4g} "
              f"{c[0]:10.4g}/{c[1]:10.4g}/{c[2]:10.4g}  {v}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
