"""One pass over a workload's ops in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD INPUT_DIR [--trace] [--setup-only]

INPUT_DIR holds the files and ``ops.json`` that gen.py wrote.  The pass
imports finitetop from ``src/`` of the checkout, loads its inputs, runs
one untimed warm-up op, then runs every op once, in order, each starting
when the previous one has returned.  Between ops it times a fixed kernel
of the benchmark's own code (``Calibrator``), at most every
CALIBRATE_EVERY_S seconds.  It prints one JSON line: set-up time, pass
time, per-op latencies, the kernel time around each op, failed ops, peak
resident set and, with --trace, the per-layer table.  --setup-only stops
after set-up.
"""

import bisect
import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import oracle
from checks import check
from gen import WARMUP, antichain, fan

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_cli(main, argv):
    """finitetop's main() in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_cold(argv, env=None):
    """finitetop's command line in a new interpreter, as a shell user runs it."""
    proc = subprocess.run([sys.executable, "-m", "finitetop.cli", *argv],
                          capture_output=True, text=True, env=env or cli_env(),
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


CALIBRATE_EVERY_S = 0.1
KERNEL_UP = antichain(6)
KERNEL_OPENS = oracle.opens_of(fan(4))


def kernel():
    """Fixed work in plain Python: bit masks, sets, lists and dicts, as in finitetop."""
    for _ in range(3):
        opens = oracle.opens_of(KERNEL_UP)
        oracle.relative_pairs(opens, oracle.locally_closed(opens))
    for _ in range(10):
        oracle.admissible_filters(KERNEL_OPENS)


class Calibrator:
    """Times the kernel between ops, to follow the machine's speed.

    A shared machine runs this benchmark at changing speed, in stretches
    from under a second to minutes.  The kernel's time moves with it, so
    an op's latency divided by the kernel's time around the op is its cost
    with the machine's speed of the moment taken out.
    """

    def __init__(self):
        self.starts, self.times = [], []
        kernel()  # untimed: the first call warms the interpreter's caches

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()  # a collection would charge the program's heap to the kernel
        start = perf_counter()
        kernel()
        self.times.append(perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def due(self):
        if not self.starts or perf_counter() - self.starts[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def around(self, start, end):
        """Mean kernel time of the samples just before start and just after end."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        return (self.times[before] + self.times[after]) / 2


class CensusOps:
    """Library calls: census slices and homeomorphism queries."""

    def __init__(self, ft, ops):
        self.ft = ft
        load = ft.jsonio.space_from_json
        self.spaces = {op["id"]: (load(op["a"]), load(op["b"]))
                       for op in ops if op["kind"] == "homeo"}

    def warm_up(self):
        self.ft.enumeration.census(3)
        point = self.ft.spaces.FiniteSpace.point()
        self.ft.enumeration.are_homeomorphic(point, point)

    def execute(self, op):
        if op["kind"] == "census":
            n, connected, t0 = op["args"]
            row = self.ft.enumeration.census(n, connected=connected, t0=t0)
            return {"labeled": row.labeled_count, "classes": row.class_count()}, 0
        a, b = self.spaces[op["id"]]
        return self.ft.enumeration.are_homeomorphic(a, b), 0

    @staticmethod
    def check(op, result):
        return result == op["expect"]


class CliOps:
    """finitetop's command line called in this process."""

    def __init__(self, ft, ops):
        self.ft = ft

    def warm_up(self):
        run_cli(self.ft.cli.main, ["validate", WARMUP])

    def execute(self, op):
        code, out, err = run_cli(self.ft.cli.main, op["argv"])
        return (code, out, err), len(out) + len(err)

    @staticmethod
    def check(op, result):
        return check(op, *result)


class ColdOps(CliOps):
    """finitetop's command line, one new interpreter per op."""

    def __init__(self, ft, ops):
        self.env = cli_env()

    def warm_up(self):
        run_cold(["validate", WARMUP], self.env)

    def execute(self, op):
        code, out, err = run_cold(op["argv"], self.env)
        return (code, out, err), len(out) + len(err)


RUNNERS = {"census": CensusOps, "datum": CliOps, "spaces": CliOps,
           "cli_cold": ColdOps}


def run_ops(ops, runner, calibrator, tracer=None):
    """Run every op in order; a crash or a wrong answer is a failed op.

    Returns the latencies, the kernel time around each op, the failed
    count, the bytes the ops printed and the tracebacks of ops that raised.
    """
    latencies, spans, failed, out_bytes, errors = [], [], 0, 0, []
    for op in ops:
        calibrator.due()
        root = tracer.begin_op() if tracer else None
        start = perf_counter()
        try:
            result, size = runner.execute(op)
        except Exception:  # the program under test raised: record it, go on
            result, size = None, 0
            errors.append(f"op {op.get('id')}: {traceback.format_exc()}")
        end = perf_counter()
        latencies.append(end - start)
        spans.append((start, end))
        if tracer:
            tracer.end_op(root)
        out_bytes += size
        try:
            ok = result is not None and runner.check(op, result)
        except Exception:  # a checker that trips on odd output fails the op
            ok = False
            errors.append(f"check of op {op.get('id')}: {traceback.format_exc()}")
        failed += not ok
    calibrator.sample()
    kernels = [calibrator.around(start, end) for start, end in spans]
    return latencies, kernels, failed, out_bytes, errors


def install_hooks(tracer):
    def snf_bits(args, result):
        return {"intmat.smith_normal_form.max_entry_bits.max":
                max((abs(v).bit_length() for m in result for row in m.entries
                     for v in row), default=0)}

    def rhs_columns(args, result):
        rhs = args[1]
        return {"intmat.solve.rhs_columns": rhs.cols if hasattr(rhs, "cols") else 1}

    def completion(args, result):
        nonempty = sum(1 for u in args[0].opens if u)
        # build_yprime tests each subset of nonempty opens holding the full set
        return {"completion.filters": len(result.points),
                "completion.opens": len(result.space.opens),
                "completion.attempts": 1 << max(nonempty - 1, 0)}

    tracer.hook("intmat.smith_normal_form", snf_bits)
    tracer.hook("intmat.solve", rhs_columns)
    tracer.hook("completion.build_yprime", completion)
    tracer.hook("spaces.alexandrov_topology",
                lambda args, result: {"spaces.alexandrov_topology.opens": len(result.opens)})
    tracer.hook("enumeration.census",
                lambda args, result: {"enumeration.census.classes": result.class_count()})


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(argv):
    workload, directory = argv[0], argv[1]
    traced, setup_only = "--trace" in argv, "--setup-only" in argv
    calibrator = Calibrator()
    calibrator.sample()
    start = perf_counter()
    os.chdir(directory)
    finitetop = None
    if workload != "cli_cold":  # cold ops import finitetop in their own process
        sys.path.insert(0, SRC)
        import finitetop
        import finitetop.cli
    with open("ops.json", encoding="utf-8") as handle:
        ops = json.load(handle)
    runner = RUNNERS[workload](finitetop, ops)
    runner.warm_up()
    setup_s = perf_counter() - start
    calibrator.sample()
    tracer = None
    if traced and finitetop is not None:  # after set-up: only the ops count
        from layers import Tracer
        tracer = Tracer()
        tracer.install(finitetop)
        install_hooks(tracer)
    result = {"setup_s": setup_s, "setup_kernel_s": sum(calibrator.times) / 2}
    if not setup_only:
        begin = perf_counter()
        latencies, kernels, failed, out_bytes, errors = run_ops(ops, runner, calibrator,
                                                                tracer)
        result.update(wall_s=perf_counter() - begin, latencies=latencies,
                      kernels=kernels, failed=failed, errors=errors[:3],
                      peak_rss_mb=peak_rss_mb(), output_bytes=out_bytes)
        if tracer:
            result["layers"] = tracer.table()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
