"""foldcc benchmark: one workload, one seed, one JSON line of results.

    python3 foldbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from its
src/ directory.  The program builds the workload's inputs (set-up) once
or several times, and setup_s is the median of the program's time over
the set-ups.  Then whole rounds of the workload's operations run, one
program process at a time, until S seconds have passed; every output is
checked by foldbench/checks.py.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics (medians over the run's repetitions), with
--trace 1 the per-layer metrics of the traced processes (one set-up plus
one round, averaged over the run).  See foldbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CLI_CODES = (0, 1, 2, 64, 65)   # foldcc's exit-code contract
OP_TIMEOUT = 150   # seconds; no operation comes near it
END_TO_END = ["setup_s", "validate_s", "verdict_s", "decompose_s",
              "witness_s", "sweep_s", "peak_rss_mb"]
TRACEBACK = "Traceback (most recent call last)"


class Op:
    """A finished program process."""

    def __init__(self, code, out, err, seconds):
        self.code = code
        self.out = out
        self.err = err
        self.seconds = seconds


class Runner:
    """Starts program processes, times them and keeps the run's tallies."""

    def __init__(self, seed, trace, work):
        self.rng = random.Random(seed)
        self.trace = trace
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")
        self.samples = {name: [] for name in END_TO_END}
        self.peak_kb = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.traces = []
        self.counting = False   # set-up operations are not counted
        self.setup_seconds = 0.0
        self.check_seconds = 0.0

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def permutation(self, n):
        perm = list(range(n))
        self.rng.shuffle(perm)
        return perm

    def _spawn(self, kind, args):
        trace_file = self.path("trace.json")
        spawn = time.monotonic()
        if self.trace:
            argv = [sys.executable, os.path.join(BENCH, "tracer.py"),
                    trace_file, repr(spawn), kind] + args
        elif kind == "cli":
            argv = [sys.executable, "-m", "foldcc"] + args
        else:
            argv = [sys.executable, os.path.join(BENCH, "lib_worker.py")] + args
        with open(self.path("op.out"), "w+") as out, \
                open(self.path("op.err"), "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    cwd=self.work, env=self.env)
            timer = threading.Timer(OP_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            op = Op(proc.returncode, out.read(), err.read(), seconds)
        if proc.returncode == -9:
            raise SystemExit("operation %r timed out" % (args,))
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if self.trace and os.path.exists(trace_file):
            with open(trace_file) as fh:
                self.traces.append(json.load(fh))
            os.remove(trace_file)
        return op

    def _finish(self, op, metric, codes, check, args):
        if not self.counting:
            if TRACEBACK in op.err or op.code not in codes:
                raise SystemExit("set-up operation %r failed (exit %d): %s"
                                 % (args, op.code, op.err[-400:]))
            self.setup_seconds += op.seconds
            return op
        self.attempted += 1
        if TRACEBACK in op.err or op.code not in codes:
            self.failed += 1
            return op
        if metric is not None:
            self.samples[metric].append(op.seconds)
        if check is not None:
            t0 = time.perf_counter()
            try:
                check(op)
            except (checks.CheckFailed, OSError, ValueError, KeyError,
                    IndexError) as exc:
                self.errors.append("%s: %s: %s" % (" ".join(args),
                                                   type(exc).__name__, exc))
            self.check_seconds += time.perf_counter() - t0
        return op

    def cli(self, args, metric=None, check=None):
        """One foldcc command; a traceback or an exit code outside CLI_CODES
        counts the operation as failed, and its outputs are not checked."""
        return self._finish(self._spawn("cli", args), metric, CLI_CODES,
                            check, args)

    def lib(self, args, check=None):
        """One library worker command; its result file is loaded into
        op.result, and a sweep's own pass time is a sweep_s sample."""
        op = self._spawn("lib", args)
        op.result = None
        if op.code == 0 and args[0] == "sweep":
            with open(self.path(args[1])) as fh:
                op.result = json.load(fh)
            op.seconds = op.result["seconds"]
        return self._finish(op, "sweep_s" if args[0] == "sweep" else None,
                            (0,), check, args)


def run(name, seed, seconds, trace):
    work = os.path.join(BENCH, "_work", "%s-%d" % (name, os.getpid()))
    os.makedirs(work)
    try:
        r = Runner(seed, trace, work)
        wl = workloads.WORKLOADS[name](r)
        setup_times = []
        for _ in range(wl.setups):
            r.setup_seconds = 0.0
            wl.setup()
            setup_times.append(r.setup_seconds)
        setup_traces, r.traces = r.traces, []
        t0 = time.perf_counter()
        try:
            wl.prepare()
        except checks.CheckFailed as exc:
            raise SystemExit("set-up output is wrong: %s" % exc)
        r.check_seconds += time.perf_counter() - t0
        r.counting = True
        start = time.perf_counter()
        round_times = []
        while True:
            t0 = time.perf_counter()
            wl.round()
            round_times.append(time.perf_counter() - t0)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rounds = len(round_times)
    print("%s seed %d trace %d: set-ups %s s, rounds %s s, checks %.2f s"
          % (name, seed, trace, " ".join("%.2f" % t for t in setup_times),
             " ".join("%.2f" % t for t in round_times), r.check_seconds),
          file=sys.stderr)
    for err in r.errors:
        print("check failed: " + err, file=sys.stderr)
    if trace:
        merged = tracer.merge([(t, 1.0 / wl.setups) for t in setup_traces]
                              + [(t, 1.0 / rounds) for t in r.traces])
        metrics = tracer.layer_values(merged)
    else:
        r.samples["setup_s"] = setup_times
        metrics = {}
        for metric in END_TO_END[:-1]:
            samples = r.samples[metric]
            if not samples:
                raise SystemExit("no sample of %s" % metric)
            metrics[metric] = {"value": statistics.median(samples), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": r.peak_kb / 1024.0, "unit": "MB"}
    return {"correct": not r.errors, "attempted": r.attempted,
            "failed": r.failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "foldcc", "cli.py")):
        print("error: no foldcc sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
