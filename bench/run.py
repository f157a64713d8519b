"""The sdreal benchmark: one workload per invocation, in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--short]

Run from the root of a source checkout; the program is imported from its
`src/`.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace is 0 and the per-layer metrics when it is 1.  A copy with
every pass time goes to .bench_results/, with the spans of a traced run.
See bench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 165

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_ms": "ms",
    "exprdsl.compile_ms": "ms",
    "sdstream.input_digits": "count",
    "sdstream.convert_ms": "ms",
    "ctree.apply.output_digits": "count",
    "ctree.apply.walk_ms": "ms",
    "ctree.compose.expansions": "count",
    "digitsys.quad.expansions": "count",
    "digitsys.build_tree.expansions": "count",
    "expand_ms": "ms",
    "integrate.fold_visits": "count",
    "integrate.fold_ms": "ms",
    "ctree.modulus_ms": "ms",
    "rationals.render_ms": "ms",
    "gc.collections": "count",
    "gc.pause_ms": "ms",
    "memory.bytes_per_expansion": "B",
    "trace.overhead_s": "s",
}


WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


def worker_cmd(args, *role):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *role]
    return cmd + ["--short"] if args.short else cmd


def worker(args, *role):
    """Run bench/worker.py in a fresh process with a fixed hash seed; its
    last stdout line, parsed.  Raises on a non-zero exit or a timeout."""
    proc = subprocess.run(worker_cmd(args, *role), cwd=ROOT, env=WORKER_ENV,
                          text=True, capture_output=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {role} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class WarmProcess:
    """bench/worker.py --warm, kept running so that its warm passes fall
    between the cold passes, in the same stretch of time."""

    def __init__(self, args):
        cmd = worker_cmd(args, "--warm", *(["--trace"] if args.trace else []))
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.watchdog = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        self.reply()

    def reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"warm worker stopped:\n{self.proc.stderr.read()}")
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self):
        self.watchdog.cancel()
        self.proc.kill()
        self.proc.communicate()


def measure(args):
    """Set-up probes; then rounds of a cold pass in a fresh process and
    warm passes in the long-lived warm process, until --seconds have
    gone.  One more set-up probe goes before each round, so that the
    probes too sample the whole run."""
    setups, imports = [], []

    def probe():
        start = time.monotonic()
        ready = worker(args, "--probe")
        setups.append(ready["ready"] - start)
        imports.append(ready["import_ms"])
        return ready["warm_passes"]

    for _ in range(SETUP_PROBES):
        warm_passes = probe()
    warm = WarmProcess(args)
    try:
        colds, warms = [], []

        def one_round(*role):
            colds.append(worker(args, *role))
            warms.append(warm.ask(f"run {warm_passes}"))

        # a traced run starts with one untraced pass, its reference
        least = 2 if args.trace else 1
        start = time.monotonic()
        while len(colds) < least or time.monotonic() - start < args.seconds:
            probe()
            one_round("--cold", *(["--trace"] if args.trace and colds else []))
        if args.trace:
            one_round("--memory")
        answers = [None] * len(colds[0]["codes"])
        errors = []
        for c in colds:
            for i, (code, answer) in enumerate(zip(c["codes"], c["answers"])):
                if code != 0:
                    continue
                if answers[i] is None:
                    answers[i] = answer
                elif answer != answers[i]:
                    errors.append(f"op {i}: cold answers differ between passes")
        end = warm.ask("check " + json.dumps(answers))
    finally:
        warm.close()
    end["pass_s"] = [t for w in warms for t in w["pass_s"]]
    end["layers"] = [m for w in warms for m in w["layers"]]
    return setups, imports, colds, end, errors + end["errors"]


def per_layer(colds, warm, imports):
    """Per-pass layer totals: medians over traced cold passes and over
    warm passes.  Counts must repeat exactly from pass to pass."""
    traced = [c["layers"] for c in colds if "spans" in c]
    values, errors = {}, []
    for rows in (traced, warm["layers"]):
        for name in rows[0]:
            got = [r[name] for r in rows]
            if PER_LAYER[name] == "count" and name != "gc.collections" \
                    and len(set(got)) != 1:
                errors.append(f"{name} differs between passes: {got}")
            value = statistics.median(got)
            values[name] = int(value) if value == int(value) else value
    values["memory.bytes_per_expansion"] = \
        colds[-1]["layers"]["memory.bytes_per_expansion"]
    values["cli.import_ms"] = statistics.median(imports)
    values["trace.overhead_s"] = (
        statistics.median(c["pass_s"] for c in colds if "spans" in c)
        - colds[0]["pass_s"]
    )
    return values, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--short", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sdreal" / "__init__.py").is_file():
        print(f"error: no sdreal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, imports, colds, warm, errors = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.trace:
        values, layer_errors = per_layer(colds, warm, imports)
        errors += layer_errors
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "cold_s": statistics.median(c["pass_s"] for c in colds),
            "warm_s": statistics.median(warm["pass_s"]),
            "peak_rss_mb": statistics.median(c["rss_mb"] for c in colds),
        }
        units = END_TO_END
    line = {
        "correct": not errors,
        "attempted": sum(len(c["codes"]) for c in colds) + warm["attempted"],
        "failed": sum(code != 0 for c in colds for code in c["codes"]),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        spans = {f"cold{i}": c.pop("spans") for i, c in enumerate(colds) if "spans" in c}
        spans["warm"] = warm.pop("spans")
        (RESULTS / f"trace-{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": spans}))
    detail = dict(line, errors=errors, setup_s=setups, import_ms=imports,
                  cold=colds, warm=warm)
    (RESULTS / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
