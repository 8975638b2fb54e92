"""Seeded, closed-loop benchmark of the linkrisk pipeline.

Run from the root of a source tree (the directory holding `src/linkrisk` and
`BENCHMARK.json`):

    python3 perfbench/run.py --workload eval-synth500 --seed 42 --seconds 30 --trace 0

One run makes the workload's inputs from the seed in a set-up process of its
own (three times, to time set-up and to check that the inputs repeat), then
starts a fresh process that runs the workload's CLI sequence in-process
(`linkrisk.cli.dispatch`), one sequence at a time, until `--seconds` have
passed and at least three sequences have run, and checks every output.  With
`--trace 1` that process instead makes one untraced pass, one traced pass
and, where the workload has a `--workers` option, one traced pass at
`--workers 1`, and reports the per-layer metrics.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 2
means the source tree or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
MIN_SEQUENCES = 3  # a median of at least three, and outputs compared across sequences
WORKERS = 2  # the reference machine has two cores
RUN_DEADLINE_S = 170.0

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def import_linkrisk() -> SimpleNamespace:
    """Import linkrisk's layer modules from this tree's `src`, never from an installed copy."""
    sys.path.insert(0, SRC)
    import linkrisk
    from linkrisk import anonymity, cli, corpus, evaluation, lm, metric

    if not os.path.abspath(linkrisk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported linkrisk from {linkrisk.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, corpus=corpus, lm=lm, metric=metric,
                           anonymity=anonymity, evaluation=evaluation)


def code_hash() -> str:
    """sha256 over the library and the benchmark sources, to key stored output hashes."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "linkrisk"), HERE):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode("utf-8") + b"\0")
                digest.update(workloads.sha256_file(path).encode("ascii"))
    return digest.hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# --- child roles -------------------------------------------------------------------


def role_setup(args) -> dict:
    lr = import_linkrisk()
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.inputs, exist_ok=True)
    start = time.perf_counter()
    workload.generate(lr, args.seed, args.inputs)
    seconds = time.perf_counter() - start
    hashes = {name: workloads.sha256_file(os.path.join(args.inputs, name))
              for name in sorted(os.listdir(args.inputs))}
    return {"seconds": seconds, "inputs": hashes}


def _pass(workload, cli, state, args, out, workers):
    shutil.rmtree(out, ignore_errors=True)
    it = workload.iterate(cli, state, args.inputs, out, workers)
    return it, workloads.output_hashes(out, workload.outputs, it)


def _compare(ops, first: dict, hashes: dict, what: str) -> None:
    for name, digest in first.items():
        ops.check(hashes.get(name) == digest, f"{name} differs {what}")


def _compare_record(ops, args, inputs: dict, outputs: dict) -> None:
    """Outputs of the same seed, code and inputs must repeat across runs."""
    records = os.path.join(STATE, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{args.workload}-s{args.seed}.json")
    record = {"code": code_hash(), "inputs": inputs, "outputs": outputs}
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        if previous["code"] == record["code"] and previous["inputs"] == inputs:
            _compare(ops, previous["outputs"], outputs, "from an earlier run of this seed")
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(record, fh, sort_keys=True)
    os.replace(tmp, path)


def role_timed(args) -> dict:
    lr = import_linkrisk()
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops()
    cli = workloads.Cli(lr.cli, ops)
    state = {"seed": args.seed}
    out = os.path.join(args.work, "out")
    walls, latencies, first = [], [], None
    start = time.perf_counter()
    while len(walls) < MIN_SEQUENCES or time.perf_counter() - start < args.seconds:
        it, hashes = _pass(workload, cli, state, args, out, WORKERS)
        walls.append(it.wall_s)
        latencies.extend(it.latencies_ms)
        if first is None:
            first = hashes
        else:
            _compare(ops, first, hashes, f"between sequences 1 and {len(walls)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = workload.check(ops, state, out, it)
    _compare_record(ops, args, json.loads(args.input_hashes), first)
    return {"walls": walls, "latencies_ms": latencies, "items": items, "peak_rss_mb": peak_rss_mb,
            "attempted": ops.attempted, "failed": ops.failed, "messages": ops.messages}


def role_trace(args) -> dict:
    import spans

    lr = import_linkrisk()
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops()
    cli = workloads.Cli(lr.cli, ops)
    state = {"seed": args.seed}
    out = os.path.join(args.work, "out")
    trace_path = os.path.join(STATE, "trace", f"{args.workload}-s{args.seed}.jsonl")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    if os.path.exists(trace_path):
        os.remove(trace_path)

    untraced, first = _pass(workload, cli, state, args, out, WORKERS)
    tracers = {}
    passes = [("traced", WORKERS)] + ([("traced-w1", 1)] if workload.uses_workers else [])
    for run_id, workers in passes:
        tracer = tracers[run_id] = spans.Tracer(run_id)
        tracer.install(lr)
        try:
            it, hashes = _pass(workload, cli, state, args, out, workers)
        finally:
            tracer.uninstall()
        tracer.write(trace_path)
        _compare(ops, first, hashes, f"between the untraced pass and the {run_id} pass")
        if run_id == "traced":
            traced_wall = it.wall_s
    workload.check(ops, state, out, it)
    _compare_record(ops, args, json.loads(args.input_hashes), first)

    layer = spans.layer_metrics(tracers["traced"])
    layer["trace.overhead_s"] = (traced_wall - untraced.wall_s, "s")
    layer["trace.untraced_wall_s"] = (untraced.wall_s, "s")
    layer["trace.traced_wall_s"] = (traced_wall, "s")
    if "traced-w1" in tracers:
        layer["metric.speedup_w2"] = (
            spans.matrix_seconds(tracers["traced-w1"]) / spans.matrix_seconds(tracers["traced"]), "x")
    boundary = getattr(workload, "boundary_disagreements", None)
    layer["anonymity.boundary_disagreements"] = (
        boundary(lr, state, out, it) if boundary else 0, "count")
    return {"layer": {k: list(v) for k, v in layer.items()},
            "attempted": ops.attempted, "failed": ops.failed, "messages": ops.messages,
            "trace_file": os.path.relpath(trace_path, ROOT)}


# --- parent ------------------------------------------------------------------------


def spawn(role: str, args, deadline: float, **extra) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {role} process of {args.workload} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"error: {role} process of {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(args) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "linkrisk", "cli.py")) or not os.path.isfile(bench_path):
        print(f"error: run from a linkrisk source tree; no src/linkrisk or BENCHMARK.json in {ROOT}",
              file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(STATE, "work", f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.Ops()

    role = "trace" if args.trace else "timed"
    try:
        setups = [spawn("setup", args, deadline, inputs=os.path.join(work, f"in{i}"))
                  for i in range(SETUP_REPEATS)]
        inputs = setups[0]["inputs"]
        for i, setup in enumerate(setups[1:], start=2):
            ops.check(setup["inputs"] == inputs, f"set-up {i} made other inputs than set-up 1")
        child = spawn(role, args, deadline, work=work, inputs=os.path.join(work, "in0"),
                      input_hashes=json.dumps(inputs))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = ops.attempted + child["attempted"]
    failed = ops.failed + child["failed"]

    lines = [f"workload {args.workload}  seed {args.seed}  mode {role}"]
    lines += [f"input {name} sha256 {digest}" for name, digest in inputs.items()]
    if args.trace:
        layer = {name: tuple(v) for name, v in child["layer"].items()}
        for name in sorted(layer):
            value, unit = layer[name]
            note = "  (computed from support sizes)" if name == "metric.support_elems" else ""
            lines.append(f"{name} = {_fmt(value)} {unit}{note}")
        lines.append(f"spans written to {child['trace_file']}")
        wanted = bench["per_layer"]
    else:
        walls = child["walls"]
        work_rates = [child["items"] / w for w in walls]
        setup_s = [s["seconds"] for s in setups]
        layer = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "work_per_s": (statistics.median(work_rates), "1/s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        }
        samples = {"setup_s": f"median of {len(setup_s)}", "wall_s": f"median of {len(walls)}",
                   "work_per_s": f"median of {len(walls)}", "peak_rss_mb": "1 sample"}
        for name, (value, unit) in layer.items():
            lines.append(f"{name} = {_fmt(value)} {unit}  ({samples[name]})")
        lines.append(f"{workload.work_unit}_per_s = {_fmt(layer['work_per_s'][0])} 1/s  "
                     f"({child['items']} {workload.work_unit} per sequence, median of {len(walls)})")
        lines.append("setup_s per set-up = " + " ".join(_fmt(s) for s in setup_s))
        lines.append("wall_s per sequence = " + " ".join(_fmt(w) for w in walls))
        lat = child["latencies_ms"]
        if lat:
            lines.append(f"query_p50_ms = {_fmt(statistics.median(lat))} ms  (n={len(lat)})")
            lines.append(f"query_p99_ms = {_fmt(percentile(lat, 99))} ms  (n={len(lat)})")
        wanted = bench["end_to_end"]
    lines.append(f"failed_frac = {_fmt(failed / attempted)}  ({failed} of {attempted} operations)")
    lines += [f"FAILED: {m}" for m in child["messages"] + ops.messages]
    print("\n".join(lines))

    metrics = {}
    for spec in wanted:
        value, unit = layer[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit(f"error: {spec['name']} is in {unit}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "timed", "trace"), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--input-hashes", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


if __name__ == "__main__":
    ARGS = parse_args(sys.argv[1:])
    if ARGS.role is None:
        sys.exit(main(ARGS))
    result = {"setup": role_setup, "timed": role_timed, "trace": role_trace}[ARGS.role](ARGS)
    print(json.dumps(result))
