"""peirce-lab benchmark: seeded closed-loop workloads, checked answers, layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-test

One process sends one op at a time and starts the next only when the previous
one has finished (a closed loop with a single client).  The ``peirce`` caches
are cleared before every op, because every ``peirce-lab`` invocation starts
cold.  Only whole cycles of a workload are run (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  ``ops_per_s`` is the run's ops
over their summed latency.  ``op_p50_ms`` and ``op_tail_ms`` (the fixed
percentile ``TAIL_PERCENTILE``) are computed for each cycle and reported as
the mean over the cycles of the run.  A cycle takes a few seconds, so the ops
of one cycle keep their cost order and a percentile picks the same slot in
every cycle.  ``setup_s`` is the median time of a fresh import, the
workload's one-time construction and the generation of one cycle's inputs;
this set-up is done ``SETUP_REPEATS`` times at the start and once more before
every further cycle.  ``peak_rss_mb`` is the peak resident set.  The failure
ratio is ``failed / attempted`` in the result line.

Times are reported at a fixed reference speed of the machine.  On a shared
host the speed of a vCPU moves by up to a factor of two in phases of tens of
seconds to minutes, and that would swamp the program's own differences.  So
right before every op (and every set-up) the runner times a probe: fixed work
of the benchmark's own that never touches ``peirce_lab``.  In-process ops use
``speed_probe`` (pure Python like the library's); the ``cli`` workload's
subprocess ops use ``interpreter_probe`` (a bare interpreter start), since a
process start slows down less than pure Python does.  A probe returns its
time over its reference time, and each measured time is divided by the
interquartile mean of those ratios over the same cycle (or over the probes
right before the same set-up); the interquartile mean drops the odd probe
that a hiccup of the host stretches.  A change to the program moves the
scaled times exactly as it moves the measured ones; a change in the
machine's speed moves the probe too and cancels.  The unscaled values and
the speed factors are printed beside the metrics and kept in the report.

``--trace 1`` runs every op of a fixed number of cycles twice in a row, once
untraced and once with spans around every public function in
``spans.TARGETS``, checks that both passes give identical results, and prints
the per-layer metrics; the tracing overhead compares the two passes.

The last line of stdout is one JSON object; a report with every op's input
descriptors and result digest goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
# p90 is the highest of p90/p99 with at least ten samples beyond it, pooled
# over a run, on every workload at 36 s per run (140 to 740 ops on peirce-lab
# 1.0.0).  It is fixed so that a faster program, which completes more ops,
# reports the same statistic.
TAIL_PERCENTILE = 90
# Cycles in a traced run, so that the same seed traces exactly the same inputs
# and counts repeat exactly; both passes together take 20-25 s with
# peirce-lab 1.0.0 on a 2-vCPU machine.
TRACE_CYCLES = {"symbolic": 7, "concrete": 5, "cli": 10}
# The probes' times at the reference speed: about their medians on an idle
# 2-vCPU VM (Intel Xeon, Python 3.11.7).  Only the scale of the reported
# times depends on them.
SPEED_PROBE_NS = 1_500_000
INTERPRETER_PROBE_NS = 50_000_000
SETUP_PROBES = 5
_PROBE_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(6))
                      for i in range(6))


def speed_probe() -> float:
    """Time of fixed pure-Python work like peirce_lab's own, over its reference.

    An integer loop, exact Fraction elimination of a 6x6 matrix and products
    of dict-keyed polynomials: the interpreter paths the library spends its
    time on, in the benchmark's own code, so no change to the program can
    change this time.
    """
    start = time.perf_counter_ns()
    s = 0
    for i in range(6000):
        s += i * i % 7
    rows = [list(r) for r in _PROBE_MATRIX]
    for c in range(6):
        p = next(r for r in range(c, 6) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(6):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    q = one = {(0,): 1, (1,): Fraction(1, 2)}
    for _ in range(7):
        q = workloads._pmul(q, one)
    return (time.perf_counter_ns() - start) / SPEED_PROBE_NS


def interpreter_probe() -> float:
    """Time of a bare interpreter start (``python -c pass``), over its reference."""
    start = time.perf_counter_ns()
    exit_code, _ = workloads.run_child([sys.executable, "-c", "pass"], cwd=ROOT)
    if exit_code:
        raise RuntimeError(f"python -c pass exited with {exit_code}")
    return (time.perf_counter_ns() - start) / INTERPRETER_PROBE_NS


@dataclass
class Record:
    kind: str
    ns: int
    ok: bool
    digest: str
    desc: dict
    error: str = ""
    cycle: int = 0
    slowness: float = 1.0  # the probe's ratio to its reference, right before the op


# (dict, its contents at import) for every module-level ``*_cache`` dict, such
# as ``magma._enum_cache``; clear_caches() puts each back to its import state.
_DICT_CACHES: list[tuple[dict, dict]] = []


def fresh_import():
    """Import peirce_lab and its six modules from the checkout, as a new process would."""
    for name in [n for n in sys.modules if n == "peirce_lab" or n.startswith("peirce_lab.")]:
        del sys.modules[name]
    pl = importlib.import_module("peirce_lab")
    for module in spans.MODULES:
        importlib.import_module(f"peirce_lab.{module}")
    _DICT_CACHES[:] = [(value, dict(value))
                       for name, module in sys.modules.items()
                       if module is not None and name.startswith("peirce_lab")
                       for attr, value in vars(module).items()
                       if attr.endswith("_cache") and isinstance(value, dict)]
    return pl


def clear_caches() -> None:
    """Cold start: clear every functools cache and ``*_cache`` dict of peirce_lab."""
    for cache, at_import in _DICT_CACHES:
        cache.clear()
        cache.update(at_import)
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("peirce_lab"):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                clear()


def run_op(pl, op, tracer=None, inproc=False, probe=speed_probe) -> Record:
    clear_caches()
    slowness = probe()
    # Every op starts with empty young generations, so the collector does the
    # same work inside an op whatever ran before it.
    gc.collect()
    call = op.inproc if inproc and op.inproc is not None else op.call
    result, error = None, ""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter_ns()
    try:
        result = call()
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    ns = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.active = False
        info = getattr(getattr(pl.peirce, "peirce_symbol", None), "cache_info", None)
        if info is not None:
            info = info()
            tracer.count("peirce.peirce_symbol.hits", info.hits)
            tracer.count("peirce.peirce_symbol.misses", info.misses)
            tracer.peak("peirce.peirce_symbol.cache_size", info.currsize)
    # The oracle must not sit on top of the op's caches in peak_rss_mb.
    clear_caches()
    ok, text = False, error
    if not error:
        try:
            ok, text = op.check(result)
        except Exception as exc:  # a result the oracle cannot read is a wrong answer
            ok, text = False, f"check {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(f"{op.kind}|{text}".encode()).hexdigest()[:16]
    return Record(op.kind, ns, bool(ok), digest, op.desc, error, slowness=slowness)


def timed_setup(workload: str, seed: int, cycle: int):
    """Fresh import, set-up and the inputs of `cycle`.

    Returns them and the seconds taken, scaled to the reference speed by
    ``SETUP_PROBES`` speed probes made right before (set-up is in-process
    Python on every workload).
    """
    setup, make_cycle = workloads.WORKLOADS[workload]
    gc.unfreeze()
    gc.collect()  # frees the modules and inputs of the previous set-up, untimed
    slowness = interquartile_mean([speed_probe() for _ in range(SETUP_PROBES)])
    start = time.perf_counter()
    pl = fresh_import()
    ctx = setup(pl, seed)
    ops = make_cycle(pl, ctx, seed, cycle)
    seconds = (time.perf_counter() - start) / slowness
    clear_caches()
    gc.collect()
    gc.freeze()  # objects from set-up are not rescanned by the per-op collections
    return pl, ctx, ops, seconds


def run_cycles(pl, ctx, workload, seed, first_ops, *, budget_s=None, cycles=None,
               tracer=None, inproc=False, setup_times=None) -> tuple[list[Record], list[Record], int]:
    """Whole cycles until `budget_s` has passed, or exactly `cycles` cycles.

    With `setup_times`, every cycle after the first starts from its own timed
    set-up, whose time is appended there.  With a tracer every op runs twice
    in a row, untraced and then traced, so that a drift in machine speed
    reaches both passes alike.  Returns the untraced records, the traced
    records and the number of cycles.
    """
    _setup, make_cycle = workloads.WORKLOADS[workload]
    probe = interpreter_probe if workload == "cli" and not inproc else speed_probe
    plain: list[Record] = []
    traced: list[Record] = []
    start = time.perf_counter()
    done = 0
    while (done < cycles) if cycles is not None else (time.perf_counter() - start < budget_s):
        if done == 0 and first_ops:
            ops = first_ops
        elif setup_times is not None:
            pl, ctx, ops, seconds = timed_setup(workload, seed, done)
            setup_times.append(seconds)
        else:
            ops = make_cycle(pl, ctx, seed, done)
        for op in ops:
            plain.append(run_op(pl, op, None, inproc, probe))
            plain[-1].cycle = done
            if tracer is not None:
                tracer.op_id = len(traced)
                traced.append(run_op(pl, op, tracer, inproc, probe))
                traced[-1].cycle = done
        done += 1
    return plain, traced, done


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def interquartile_mean(values: list[float]) -> float:
    """Mean of `values` without their lowest and highest quarter."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def interpreter_and_import_seconds(repeats: int = 7) -> tuple[float, float]:
    """Medians of a bare interpreter and of importing peirce_lab.cli, interleaved."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times: dict[str, list[float]] = {"pass": [], "import peirce_lab.cli": []}
    for i in range(repeats + 1):
        for code, samples in times.items():
            start = time.perf_counter()
            exit_code, _ = workloads.run_child([sys.executable, "-c", code], cwd=ROOT, env=env)
            if exit_code:
                raise RuntimeError(f"python -c {code!r} exited with {exit_code}")
            if i:  # the first round only warms the file cache
                samples.append(time.perf_counter() - start)
    bare = statistics.median(times["pass"])
    return bare, statistics.median(times["import peirce_lab.cli"]) - bare


def repeated_subtree_share(records) -> float | None:
    """Share of the ops with a monomial input that has a repeated product subtree."""
    shaped = [r.desc["repeated_subtrees"] for r in records if "repeated_subtrees" in r.desc]
    return sum(shaped) / len(shaped) if shaped else None


def end_to_end(workload, records, setup_times) -> tuple[dict, dict]:
    cycles: dict[int, list[Record]] = {}
    for r in records:
        cycles.setdefault(r.cycle, []).append(r)
    # Each cycle's latencies, divided by the cycle's typical slowness.
    factors = {c: 1 / interquartile_mean([r.slowness for r in rs]) for c, rs in cycles.items()}
    scaled = {c: [r.ns / 1e6 * factors[c] for r in rs] for c, rs in cycles.items()}
    raw = {c: [r.ns / 1e6 for r in rs] for c, rs in cycles.items()}
    pct = TAIL_PERCENTILE

    def summary(by_cycle) -> dict:
        every = [ms for c in by_cycle.values() for ms in c]
        return {"ops_per_s": len(every) / (sum(every) / 1e3),
                "op_p50_ms": statistics.fmean(nearest_rank(ms, 50) for ms in by_cycle.values()),
                "op_tail_ms": statistics.fmean(nearest_rank(ms, pct) for ms in by_cycle.values())}

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in summary(scaled).items()}
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
    latencies_ms = [ms for c in scaled.values() for ms in c]
    pooled_tail = nearest_rank(latencies_ms, pct)
    beyond = sum(1 for v in latencies_ms if v > pooled_tail)
    notes = {"tail_percentile": pct, "pooled_tail_ms": pooled_tail, "tail_samples_beyond": beyond,
             "ops": len(records), "cycles": len(cycles),
             "fail_ratio": sum(not r.ok for r in records) / len(records),
             "repeated_subtree_share": repeated_subtree_share(records),
             "setup_runs_s": setup_times,
             "unscaled": summary(raw),
             "speed_factor_by_cycle": list(factors.values())}
    return metrics, notes


def per_layer(workload, tracer, records_plain, records_traced) -> tuple[dict, dict]:
    stats, c = tracer.stats, tracer.counters
    metrics = {}

    def stat(name, field, scale=1.0):
        return getattr(stats[name], field) * scale if name in stats else 0

    for name in spans.TARGETS:
        metrics[f"{name}.self_s"] = (stat(name, "self_ns", 1e-9), "s")
    for name in ("algebras.StructureAlgebra.multiply", "algebras.solve", "poly.rational_roots",
                 "poly.divide_exact"):
        metrics[f"{name}.calls"] = (stat(name, "calls"), "count")
    hits, misses = c.get("peirce.peirce_symbol.hits", 0), c.get("peirce.peirce_symbol.misses", 0)
    metrics["peirce.peirce_symbol.misses"] = (misses, "count")
    metrics["peirce.peirce_symbol.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0, "ratio")
    metrics["peirce.peirce_symbol.cache_size"] = (c.get("peirce.peirce_symbol.cache_size", 0), "count")
    symbols = c.get("poly.Poly3.terms.symbols", 0)
    metrics["poly.Poly3.terms"] = (c.get("poly.Poly3.terms.total", 0) / symbols if symbols else 0, "count")
    metrics["poly.rational_roots.input_bits"] = (c.get("poly.rational_roots.input_bits", 0), "bits")
    metrics["identities.fusion_table.y_evals"] = (c.get("identities.fusion_table.y_evals", 0), "count")
    for module, seconds in tracer.self_seconds_by_module().items():
        metrics[f"{module}.self_s"] = (seconds, "s")
    interpreter, import_s = interpreter_and_import_seconds()
    metrics["cli.interpreter_s"] = (interpreter, "s")
    metrics["cli.import_s"] = (import_s, "s")

    def rate(records):
        return len(records) / (sum(r.ns for r in records) / 1e9)

    plain, traced = rate(records_plain), rate(records_traced)
    metrics["trace.overhead_pct"] = ((plain - traced) / plain * 100, "%")

    op_seconds = sum(r.ns for r in records_traced) / 1e9
    layer_share = {m: s / op_seconds for m, s in tracer.self_seconds_by_module().items()}
    uncalled = sorted(n for n, w in spans.TARGETS.items()
                      if w == workload and n in stats and stats[n].calls == 0)
    notes = {"absent": tracer.absent, "uncalled": uncalled, "layer_share_of_op_time": layer_share,
             "ops_per_s_untraced": plain, "ops_per_s_traced": traced,
             "repeated_subtree_share": repeated_subtree_share(records_traced),
             "nesting_problems": tracer.check_nesting()[:20]}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "peirce_lab" / "__init__.py").is_file():
        print(f"error: no peirce_lab sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "peirce_lab", quiet=1)
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        pl, ctx, first, seconds = timed_setup(args.workload, args.seed, 0)
        setup_times.append(seconds)
    if not Path(pl.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported peirce_lab from {pl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace == 0:
        records, _, cycles = run_cycles(pl, ctx, args.workload, args.seed, first, budget_s=args.seconds,
                                        setup_times=setup_times)
        metrics, notes = end_to_end(args.workload, records, setup_times)
        mismatches = 0
    else:
        # The cli workload runs main(argv) in-process here: spans need the call stack.
        inproc = args.workload == "cli"
        cycles = TRACE_CYCLES[args.workload]
        tracer = spans.Tracer()
        tracer.install(pl)
        try:
            plain, records, _ = run_cycles(pl, ctx, args.workload, args.seed, first, cycles=cycles,
                                           tracer=tracer, inproc=inproc)
        finally:
            tracer.uninstall()
        mismatches = sum(a.digest != b.digest for a, b in zip(plain, records))
        metrics, notes = per_layer(args.workload, tracer, plain, records)
        notes["trace_mismatches"] = mismatches
        records = plain + records

    failed = sum(not r.ok for r in records)
    correct = failed == 0 and mismatches == 0 and not notes.get("nesting_problems")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "cycles": cycles, "metrics": metrics, "notes": notes,
              "ops": [r.__dict__ for r in records]}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(
            {"names": tracer.names, "spans": tracer.spans}, separators=(",", ":")))

    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>14.6g} {unit}")
    if args.trace == 0:
        print(f"op_tail_ms is the mean over {notes['cycles']} cycles of each cycle's "
              f"p{notes['tail_percentile']}; pooled over {notes['ops']} ops it is "
              f"{notes['pooled_tail_ms']:.6g} ms ({notes['tail_samples_beyond']} beyond); fail_ratio {notes['fail_ratio']:.4g}; "
              f"ops with repeated subtrees {notes['repeated_subtree_share']}")
        factors = notes["speed_factor_by_cycle"]
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in notes["unscaled"].items())
              + f"; speed factor per cycle {min(factors):.3g}..{max(factors):.3g}")
    else:
        for key in ("absent", "uncalled", "trace_mismatches", "layer_share_of_op_time"):
            print(f"{key}: {notes[key]}")
    for r in records:
        if not r.ok:
            print(f"FAILED {r.kind} {r.desc} {r.error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
