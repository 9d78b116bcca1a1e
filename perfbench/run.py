"""finitetop benchmark: timed passes from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's inputs
for the seed under ``.perfbench_work/``, then starts one fresh
interpreter per pass (perfbench/passrun.py) until the time is spent and
at least MIN_PASSES passes are in.  Every op runs once per pass.  Each
time is scaled to the reference speed by the calibration kernel timed
around it (see ``at_reference``), and an op's latency is the median of
its passes.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, and
``--trace 1`` the per-layer ones, from traced passes alternated with
untraced ones.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import gen
from layers import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "finitetop")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_PASSES = 3       # passes per run at the least, so every op has a median of three
KERNEL_REF_S = 0.010   # passrun.kernel() takes about this long on the reference machine
SETUP_SAMPLES = 6    # set-up-only interpreters per run, besides one per pass
PROBE_SAMPLES = 5    # interpreter start and import probes in a traced run
PASS_TIMEOUT = 170
HARD_STOP_S = 120    # no new pass starts this long after measuring began


def run_pass(workload, directory, *flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py"), workload, directory, *flags],
        capture_output=True, text=True, timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    for error in result.get("errors", ()):
        sys.stderr.write(error)
    return result


def until_spent(seconds, step):
    """Call step() until the time is spent and MIN_PASSES rounds have run.

    Another round starts only when a round as long as the last one would
    still fit in the time left.
    """
    start = perf_counter()
    rounds = 0
    while True:
        begin = perf_counter()
        step()
        rounds += 1
        last = perf_counter() - begin
        elapsed = perf_counter() - start
        if elapsed > HARD_STOP_S:
            return
        if rounds >= MIN_PASSES and elapsed + last > seconds:
            return


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def at_reference(seconds, kernel_s):
    """A time measured while the kernel took kernel_s, at the reference speed.

    A shared machine's speed drifts by up to 1.6x over seconds to minutes,
    and the kernel's time drifts with it; the scaled time keeps the
    program's cost and drops the machine's speed of the moment.
    """
    return seconds * KERNEL_REF_S / kernel_s


def op_latencies(passes):
    """Each op's latency at reference speed, median over the passes, in op order."""
    scaled = [[at_reference(t, k) for t, k in zip(p["latencies"], p["kernels"])]
              for p in passes]
    return [statistics.median(times) for times in zip(*scaled)]


def setup_time(result):
    return at_reference(result["setup_s"], result["setup_kernel_s"])


def timed(workload, directory, seconds):
    def setup_only(count):
        return [setup_time(run_pass(workload, directory, "--setup-only"))
                for _ in range(count)]

    # set-up samples on both sides of the passes, besides one per pass
    setups = setup_only(SETUP_SAMPLES // 2)
    passes = []
    until_spent(seconds, lambda: passes.append(run_pass(workload, directory)))
    setups += setup_only(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    ops = op_latencies(passes)
    metrics = {
        "setup_s": statistics.median(setups + [setup_time(p) for p in passes]),
        "wall_s": sum(ops),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_p90_ms": 1000 * p90(ops),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # every pass as measured, for a closer look
    with open(os.path.join(directory, "passes.json"), "w", encoding="utf-8") as handle:
        json.dump(passes, handle)
    return passes, metrics


def probe(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(PROBE_SAMPLES):
        begin = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
        times.append(perf_counter() - begin)
    return statistics.median(times)


def source_lines():
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                out[f"src.{name[:-3]}.lines"] = handle.read().count(b"\n")
    out["src.lines"] = sum(out.values())
    return out


def derived(table):
    """Layer totals and ratios computed from one traced pass's table."""
    get = table.get

    def ratio(a, b):
        return get(a, 0) / get(b) if get(b) else 0.0

    out = dict(table)
    for module in MODULES:
        out[f"{module}.self_s"] = sum(v for k, v in table.items()
                                      if k.startswith(module + ".") and k.endswith(".self_s"))
    out["bench.self_s"] = get("bench.op.self_s", 0.0)
    out["jsonio.parse.self_s"] = sum(v for k, v in table.items()
                                     if k.startswith("jsonio.") and k.endswith("_from_json.self_s"))
    out["jsonio.emit.self_s"] = sum(v for k, v in table.items()
                                    if k.startswith("jsonio.") and k.endswith("_to_json.self_s"))
    out["intmat.smith_normal_form.max_entry_bits"] = get(
        "intmat.smith_normal_form.max_entry_bits.max", 0)
    out["enumeration.canonical_form.calls_per_class"] = ratio(
        "enumeration.canonical_form@enumeration.census", "enumeration.census.classes")
    out["ktheory.is_exact_at.snf_per_call"] = ratio(
        "intmat.smith_normal_form@ktheory.is_exact_at", "ktheory.is_exact_at.calls")
    out["ktheory.snf_per_cycle"] = ratio(
        "intmat.smith_normal_form@ktheory.verify_six_term", "ktheory.verify_six_term.calls")
    out["completion.candidates_per_filter"] = ratio("completion.attempts",
                                                    "completion.filters")
    return out


def layer_table(result):
    """A traced pass's table, times scaled to the reference speed; empty on cli_cold."""
    factor = KERNEL_REF_S / statistics.median(result["kernels"])
    table = {k: v * factor if k.endswith(".self_s") else v
             for k, v in result.get("layers", {}).items()}
    table["cli.output_bytes"] = result["output_bytes"]
    return table


def traced(workload, directory, seconds):
    plain, marked = [], []

    def step():
        plain.append(run_pass(workload, directory))
        marked.append(run_pass(workload, directory, "--trace"))

    until_spent(seconds, step)
    tables = [derived(layer_table(p)) for p in marked]
    keys = set().union(*tables)
    layer = {k: statistics.median(t.get(k, 0) for t in tables) for k in keys}
    layer["trace.overhead_ratio"] = sum(op_latencies(marked)) / sum(op_latencies(plain))
    start = probe("pass")
    layer["cli_cold.python_start_s"] = start
    layer["cli_cold.import_s"] = probe("import finitetop.cli") - start
    layer.update(source_lines())
    # the full table, every traced function included, for a closer look
    with open(os.path.join(directory, "layers.json"), "w", encoding="utf-8") as handle:
        json.dump(layer, handle, indent=1, sort_keys=True)
    return plain + marked, layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no finitetop sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    directory = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    gen.build(args.workload, args.seed, directory)
    if args.trace:
        passes, values = traced(args.workload, directory, args.seconds)
        wanted = spec["per_layer"]
    else:
        passes, values = timed(args.workload, directory, args.seconds)
        wanted = spec["end_to_end"]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a layer never called on this workload has no entry: it did 0 work
        "metrics": {m["name"]: {"value": values[m["name"]] if not args.trace
                                else values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
