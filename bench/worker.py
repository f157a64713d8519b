"""One process of the benchmark; `run.py` starts it in four roles.

    python3 bench/worker.py --workload NAME --seed N ROLE [--trace] [--short]

ROLE is one of
  --probe          set up (start, import sdreal, generate inputs), print when
                   that was done, and stop;
  --cold           one cold pass: every operation compiled from text and
                   answered, as a user's fresh process does;
  --memory         one cold pass under tracemalloc: bytes retained per node
                   expansion;
  --warm           compile the trees once and expand them, then serve
                   commands from stdin: `run PASSES` runs that many warm
                   passes; `check ANSWERS` checks the cold answers and ends.

Each role prints one JSON line per result.  Garbage is collected before every
operation, outside the timed region; inside it the collector runs as it
does for a user.  With --trace the cold and warm passes are split into
calls into each layer and timed as spans.
"""

import argparse
import gc
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

_start = time.perf_counter()
import sdreal  # noqa: E402
import sdreal.cli  # noqa: E402

IMPORT_MS = (time.perf_counter() - _start) * 1000

from sdreal.ctree import expansion_count  # noqa: E402
from sdreal.sdstream import DigitStream  # noqa: E402

import workloads  # noqa: E402

EXPANSION_METRIC = {
    "compose": "ctree.compose.expansions",
    "quad": "digitsys.quad.expansions",
    "build_tree": "digitsys.build_tree.expansions",
}
WARM_METRIC = {
    "integrate.fold": "integrate.fold_ms",
    "ctree.modulus": "ctree.modulus_ms",
}


class Tracer:
    """Spans (name, start, end, parent, operation id) kept in memory,
    and the garbage-collector pauses that fall inside operations."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.gc_active = False
        self.gc_collections = 0
        self.gc_pause = 0.0
        self._gc_start = None
        gc.callbacks.append(self.on_gc)

    def call(self, name, op_id, fn, *args):
        """fn(*args) inside a span: (result, seconds)."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, start, end, parent, op_id)
        return result, end - start

    def on_gc(self, phase, info):
        if not self.gc_active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_collections += 1
            self.gc_pause += time.perf_counter() - self._gc_start
            self._gc_start = None


def counted(stream, tally):
    """`stream` with every forced tail counted in tally[0]."""

    def tail():
        tally[0] += 1
        return counted(stream.tail, tally)

    return DigitStream(stream.head, tail)


def cold_pass(ops):
    codes, answers, total = [], [], 0.0
    for op in ops:
        gc.collect()
        start = time.perf_counter()
        try:
            code, answer = op.cold()
        except Exception as e:  # a crash is a failed operation
            code, answer = -1, repr(e)
        total += time.perf_counter() - start
        codes.append(code)
        answers.append(answer)
    return {"codes": codes, "answers": answers, "pass_s": total}


def traced_cold_pass(ops):
    """The cold pass split into layer calls, each operation in a span of
    its own; the garbage collector is watched while operations run."""
    tr = Tracer()
    m = dict.fromkeys(("exprdsl.compile_ms", "expand_ms", "rationals.render_ms",
                       *EXPANSION_METRIC.values()), 0.0)
    codes, answers, total = [], [], 0.0
    for i, op in enumerate(ops):
        gc.collect()
        tr.gc_active = True
        (code, answer, seconds), _ = tr.call("operation", i, traced_cold_op, tr, m, i, op)
        tr.gc_active = False
        codes.append(code)
        answers.append(answer)
        total += seconds
    m["gc.collections"] = tr.gc_collections
    m["gc.pause_ms"] = tr.gc_pause * 1000
    return {"codes": codes, "answers": answers, "pass_s": total,
            "layers": m, "spans": tr.spans}


def traced_cold_op(tr, m, i, op):
    """Compile from text (timed, then dropped), build the same tree from
    the builders keeping the leaves, answer it cold, answer it again warm,
    render.  Expansion time is the cold answer minus the warm one.
    Returns (exit code, answer, seconds a user would have waited)."""
    if not op.warm_able:
        (code, answer), dt = tr.call("cli.main", i, op.cold)
        return code, answer, dt
    if op.evaluator is None:
        _, dt = tr.call("exprdsl.compile", i, op.compile)
        m["exprdsl.compile_ms"] += dt * 1000
    else:
        _, dt = tr.call("digitsys.tree_from_modulus", i, op.compile)
    leaves = []
    tree = op.build(leaves)
    value, dt_cold = tr.call(op.layer + ".cold", i, op.answer, tree)
    _, dt_warm = tr.call(op.layer + ".warm", i, op.answer, tree)
    answer, dt_render = tr.call(op.render_layer, i, op.render, value)
    m["expand_ms"] += (dt_cold - dt_warm) * 1000
    if op.render_layer == "rationals.render":
        m["rationals.render_ms"] += dt_render * 1000
    for family, n in workloads.expansions_by_builder(tree, leaves).items():
        m[EXPANSION_METRIC[family]] += n
    return 0, answer, dt + dt_cold + dt_render


def memory_pass(ops):
    """A cold pass under tracemalloc, built from the builders so that
    every expansion is counted: retained bytes per expansion."""
    codes, answers = [], []
    retained = expansions = 0
    for op in ops:
        gc.collect()
        if not op.warm_able:
            code, answer = op.cold()
            codes.append(code)
            answers.append(answer)
            continue
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            leaves = []
            tree = op.build(leaves)
            answer = op.render(op.answer(tree))
            gc.collect()
            retained += tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        expansions += sum(workloads.expansions_by_builder(tree, leaves).values())
        codes.append(0)
        answers.append(answer)
        del tree, leaves
    return {"codes": codes, "answers": answers,
            "layers": {"memory.bytes_per_expansion": retained / max(expansions, 1)}}


class Warm:
    """Trees compiled once and expanded, the warm passes over them, and
    the checks of the cold answers."""

    def __init__(self, ops):
        self.ops = ops
        self.errors = []
        self.trees = [op.compile() if op.warm_able else None for op in ops]
        self.answers = [op.warm(t) if t is not None else None
                        for op, t in zip(ops, self.trees)]
        self.input_digits = {}
        self.attempted = 0
        # what the benchmark keeps from here on is no work of a later pass
        gc.collect()
        gc.freeze()

    def check(self, cold_answers):
        """Check each operation's answer; cold and warm must agree."""
        for i, (op, tree) in enumerate(zip(self.ops, self.trees)):
            if tree is None:
                continue
            if cold_answers[i] is not None:
                self.compare(i, cold_answers[i])
            if not op.check(self.answers[i], tree):
                self.errors.append(f"op {i}: answer {self.answers[i][:60]!r} fails its check")

    def compare(self, i, answer):
        if answer != self.answers[i]:
            self.errors.append(f"op {i}: warm and cold answers differ")

    def expansions(self):
        return [expansion_count(t) for t in self.trees if t is not None]

    def run(self, passes, tracer=None):
        times, layers = [], []
        for _ in range(passes):
            before = self.expansions()
            if tracer is None:
                times.append(self.plain_pass())
            else:
                layers.append(self.traced_pass(tracer))
            if self.expansions() != before:
                self.errors.append("a warm pass expanded new nodes")
        return times, layers

    def plain_pass(self):
        total = 0.0
        for i, (op, tree) in enumerate(zip(self.ops, self.trees)):
            if tree is None:
                continue
            gc.collect()
            self.attempted += 1
            start = time.perf_counter()
            answer = op.warm(tree)
            total += time.perf_counter() - start
            self.compare(i, answer)
        return total

    def traced_pass(self, tr):
        w = dict.fromkeys(("sdstream.input_digits", "sdstream.convert_ms",
                           "ctree.apply.output_digits", "ctree.apply.walk_ms",
                           "integrate.fold_visits", *WARM_METRIC.values()), 0.0)
        for i, (op, tree) in enumerate(zip(self.ops, self.trees)):
            if tree is None:
                continue
            gc.collect()
            self.attempted += 1
            answer, _ = tr.call("operation", i, self.traced_op, tr, w, i, op, tree)
            self.compare(i, answer)
        return w

    def traced_op(self, tr, w, i, op, tree):
        """Eval and digits walks are split into converting the input to
        the digits the walk pulls, then walking on those digits."""
        if isinstance(op, workloads.EvalOp):
            n = self.digits_needed(i, op, tree)
            stream = op.input_stream()
            _, dt = tr.call("sdstream.convert", i, stream.drop, n - 1)
            w["sdstream.convert_ms"] += dt * 1000
            value, dt = tr.call("ctree.apply.walk", i, op.answer, tree, stream)
            w["ctree.apply.walk_ms"] += dt * 1000
            w["sdstream.input_digits"] += n
            w["ctree.apply.output_digits"] += op.prec
        else:
            value, dt = tr.call(op.layer, i, op.answer, tree)
            w[WARM_METRIC[op.layer]] += dt * 1000
            if isinstance(op, workloads.IntegrateOp):
                w["integrate.fold_visits"] += value.nodes_visited
        answer, _ = tr.call(op.render_layer, i, op.render, value)
        return answer

    def digits_needed(self, i, op, tree):
        """Input digits the walk of op i pulls, counted once."""
        if i not in self.input_digits:
            tally = [0]
            op.answer(tree, counted(op.input_stream(), tally))
            self.input_digits[i] = tally[0] + 1
        return self.input_digits[i]


def serve_warm(warm, tracer):
    """Answer `run PASSES` with those passes' figures, until `check
    ANSWERS` (the cold answers, as JSON), which ends the process."""
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command, _, arg = line.partition(" ")
        if command == "run":
            times, layers = warm.run(int(arg), tracer)
            out = {"pass_s": times, "layers": layers}
        else:
            warm.check(json.loads(arg))
            out = {"attempted": warm.attempted, "errors": warm.errors,
                   "spans": tracer.spans if tracer else [],
                   "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        print(json.dumps(out), flush=True)
        if command != "run":
            return


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    role = ap.add_mutually_exclusive_group(required=True)
    role.add_argument("--probe", action="store_true")
    role.add_argument("--cold", action="store_true")
    role.add_argument("--memory", action="store_true")
    role.add_argument("--warm", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args(argv)
    if Path(sdreal.__file__).resolve().parent != SRC / "sdreal":
        sys.exit(f"sdreal was imported from {sdreal.__file__}, not {SRC}")
    ops, warm_passes = workloads.make(args.workload, args.seed, args.short)
    if args.probe:
        out = {"ready": time.monotonic(), "import_ms": IMPORT_MS,
               "warm_passes": warm_passes}
    elif args.cold:
        gc.collect()
        gc.freeze()
        out = (traced_cold_pass if args.trace else cold_pass)(ops)
    elif args.memory:
        out = memory_pass(ops)
    else:
        serve_warm(Warm(ops), Tracer() if args.trace else None)
        return
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
