#!/usr/bin/env python3
"""dLSM benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload get_uniform --seed 1 --seconds 10 \
        --trace 0

Builds perfbench/ (and the engine from src/) into .bench_build/perfbench,
runs the driver, checks its answers, and prints one JSON object as the
last stdout line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are END_TO_END; with --trace 1 they are PER_LAYER,
the driver's counter deltas plus the Chrome trace folded into per-span
self time per op. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Leave nothing beside the sources.

import fold  # noqa: E402

WORKLOADS = ["get_uniform", "get_zipf_cache", "put_heavy", "scan_short"]

END_TO_END = ["kops_s", "p50_us", "p99_us", "wire_bytes_per_op", "setup_s"]

# Per-layer metric -> engine span whose self time per op it reports.
SPAN_SELF_US = {
    "db_impl.get_self_us": "Get",
    "db_impl.multiget_self_us": "MultiGet",
    "db_impl.mem_probe_us": "mem_probe",
    "db_impl.l0_wave_us": "l0_wave",
    "db_impl.level_wave_us": "level_wave",
    "table_reader.table_probe_us": "table_probe",
    "block_cache.miss_fill_us": "cache_miss_fill",
    "db_impl.write_self_us": "Write",
    "table_sink.flush_us": "flush",
    "table_sink.flush_drain_us": "flush_drain",
    "memory_node_service.exec_compaction_us": "exec_compaction",
    "rpc.handle_us": "rpc_handle",
    "db_iter.new_iterator_us": "NewIterator",
    "table_reader.scan_prefetch_wait_us": "scan_prefetch_wait",
}

# Per-layer metrics the driver computes from counter deltas.
DRIVER_PER_LAYER = [
    "bench.untraced_kops_s", "bench.traced_kops_s", "bench.trace_overhead",
    "bench.failed_op_frac", "trace.dropped_events",
    "client.get_p50_us", "client.get_p99_us",
    "client.multiget_p50_us", "client.multiget_p99_us",
    "client.put_p50_us", "client.put_p99_us",
    "client.scan_p50_us", "client.scan_p99_us",
    "bloom.skips_per_get", "rdma.read_verbs_per_get",
    "rdma.read_bytes_per_get", "rdma.read_wire_p50_us",
    "rdma.read_wire_p99_us", "block_cache.hit_ratio",
    "block_cache.evictions_per_op", "block_cache.admission_reject_ratio",
    "rdma.atomic_per_put", "rdma.write_bytes_per_put",
    "db_impl.stall_us_per_put", "db_impl.drain_s", "table_sink.flushes",
    "memory_node_service.compactions", "memory_node_service.cpu_util",
    "compaction.write_amp", "compaction.rpc_inflight_peak", "rpc.retries",
    "version.l0_files_end", "version.space_amp",
    "db_iter.read_bytes_per_entry",
]

# Per-layer metrics folded from the trace besides span self times.
TRACE_COUNTS = ["rpc.calls_per_op", "rdma.max_outstanding"]

PER_LAYER = DRIVER_PER_LAYER + list(SPAN_SELF_US) + TRACE_COUNTS

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one dLSM benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=_uint)
    p.add_argument("--seconds", required=True, type=_seconds)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return p.parse_args(argv)


def _uint(text):
    if not text.isdigit() or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"'{text}' is not a 64-bit unsigned integer")
    return int(text)


def _seconds(text):
    value = _uint(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError("seconds must be in [1, 60]")
    return value


def _run(cmd, **kwargs):
    """Runs cmd with output on stderr; raises BenchError on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            check=False, **kwargs)
    if result.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {result.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"engine sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        _run(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], timeout=600)
    _run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
          "-j", "4"], timeout=850)


def run_driver(args, trace_file):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_file:
        cmd += ["--trace_out", trace_file]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=DRIVER_TIMEOUT_S,
                                check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver timed out after {DRIVER_TIMEOUT_S} s") from e
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise BenchError(f"driver exited {result.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"driver result is not JSON: {lines[-1]!r}") from e


def fold_trace(path, key_ops):
    """Per-layer metrics from the traced run's Chrome trace."""
    spans, processes = fold.load_events(path)
    folded = fold.fold_self_time(spans)
    print(f"{'span':<28} {'count':>9} {'self us/op':>12} {'total us/op':>12}")
    for name, (count, total, self_ns) in sorted(
            folded.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<28} {count:>9} {self_ns / 1e3 / key_ops:>12.4f} "
              f"{total / 1e3 / key_ops:>12.4f}")
    metrics = {}
    for metric, span in SPAN_SELF_US.items():
        self_ns = folded.get(span, (0, 0, 0))[2]
        metrics[metric] = (self_ns / 1e3 / key_ops, "us")
    rpc_calls = folded.get("rpc_handle", (0, 0, 0))[0]
    metrics["rpc.calls_per_op"] = (rpc_calls / key_ops, "count")
    compute = {pid for pid, name in processes.items() if name == "compute"}
    metrics["rdma.max_outstanding"] = (
        fold.peak_concurrency(spans, compute), "count")
    return metrics


def measure(args):
    build()
    trace_file = None
    if args.trace == 1:
        trace_file = os.path.join(BUILD_DIR, f"trace-{args.workload}.json")
    raw = run_driver(args, trace_file)
    metrics = {name: (m["value"], m["unit"])
               for name, m in raw["metrics"].items()}
    samples = raw.get("samples", {})
    correct = bool(raw["correct"])
    if args.trace == 1:
        trace = raw["trace"]
        if trace["dropped_events"] != 0:
            print(f"warning: {trace['dropped_events']} trace events dropped; "
                  "span self times are incomplete")
        metrics.update(fold_trace(trace["file"], max(trace["key_ops"], 1)))
        wanted = PER_LAYER
    else:
        wanted = END_TO_END
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise BenchError(f"driver did not report {missing}")
    for name in wanted:
        value, unit = metrics[name]
        n = samples.get(name)
        count = f" (n={n})" if n is not None else ""
        print(f"metric {name} = {value:.6g} {unit}{count}")
    return {
        "correct": correct and raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in wanted},
    }


def main(argv):
    args = parse_args(argv)
    try:
        result = measure(args)
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
