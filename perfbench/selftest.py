"""Checks of the benchmark itself; run with ``python3 perfbench/run.py --self-test``.

* the same seed gives byte-identical generated inputs, also in a fresh
  process with another hash seed, and another seed gives other inputs;
* a corrupted result, and an op that raises, are counted as failures;
* traced spans nest, self times are >= 0, every wrapper and call counter
  records calls on the workload it is meant for, a missing function is
  reported as absent,
  and tracing leaves every op result unchanged;
* the spin-factor payloads are ``algebra_to_json(spin_factor(d))`` in a
  shuffled basis;
* scaling by the speed probe cancels a slower machine and keeps a slower
  program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def inputs_digest(pl, workload: str, seed: int, cycles: int = 2) -> str:
    setup, make_cycle = workloads.WORKLOADS[workload]
    ctx = setup(pl, seed)
    h = hashlib.sha256()
    for cycle in range(cycles):
        for op in make_cycle(pl, ctx, seed, cycle):
            h.update(f"{op.kind}\0{op.inputs}\n".encode())
    return h.hexdigest()


def digest_in_child(workload: str, seed: int, hash_seed: str) -> str:
    code = (f"import sys; sys.path[:0] = [{HERE!r}, {str(run.SRC)!r}]; import run, selftest; "
            f"print(selftest.inputs_digest(run.fresh_import(), {workload!r}, {seed}))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.strip()


def corrupt(result):
    """A wrong answer of the same shape as `result`."""
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], int):
        return result[0], result[1] + "x\n"  # cli: (exit code, stdout)
    if isinstance(result, tuple) and len(result) == 2:
        roots, residual = result  # rational_roots
        return roots[:-1], residual
    if isinstance(result, tuple):
        rho, report, sym, tables = result  # symbolic
        return rho + 1, report, sym, tables
    if hasattr(result, "eigenbases"):
        lam = result.eigenvalues[0]
        return dataclasses.replace(result, eigenbases={**result.eigenbases, lam: result.eigenbases[lam][:-1]})
    return dataclasses.replace(result, ok=not result.ok)  # a verification report


def check_failure_accounting(pl, workload: str, ops) -> None:
    wrong = 0
    for op in ops:
        call = op.inproc or op.call
        result = call()
        bad = dataclasses.replace(op, call=lambda r=corrupt(result): r, inproc=None)
        wrong += not run.run_op(pl, bad).ok
    expect(wrong == len(ops), f"{workload}: {wrong} of {len(ops)} corrupted results counted as failed")

    def boom():
        raise RuntimeError("injected")

    record = run.run_op(pl, dataclasses.replace(ops[0], call=boom, inproc=None))
    expect(not record.ok and "injected" in record.error, f"{workload}: an op that raises counts as failed")


def check_tracing(pl, workload: str) -> None:
    setup, _ = workloads.WORKLOADS[workload]
    ctx = setup(pl, 1)
    inproc = workload == "cli"
    tracer = spans.Tracer()
    tracer.install(pl)
    try:
        plain, traced, _ = run.run_cycles(pl, ctx, workload, 1, None, cycles=1, tracer=tracer, inproc=inproc)
    finally:
        tracer.uninstall()
    expect(all(r.ok for r in plain + traced), f"{workload}: every op of one cycle is correct")
    expect([r.digest for r in plain] == [r.digest for r in traced],
           f"{workload}: tracing leaves every op result unchanged")
    problems = tracer.check_nesting()
    expect(not problems and tracer.spans, f"{workload}: {len(tracer.spans)} spans nest, self time >= 0 {problems[:3]}")
    uncalled = [n for n, w in spans.TARGETS.items()
                if w == workload and n not in tracer.absent and tracer.stats[n].calls == 0]
    expect(not uncalled, f"{workload}: every wrapper meant for it records calls {uncalled}")
    uncounted = [c for c, (_, target) in spans.CALL_COUNTS.items()
                 if spans.TARGETS[target] == workload and not tracer.counters.get(c)]
    expect(not uncounted, f"{workload}: every call counter meant for it counts calls {uncounted}")
    expect(not tracer._patches, f"{workload}: uninstall restores every patched name")


def check_absent(pl) -> None:
    saved = pl.algebras.solve
    del pl.algebras.solve
    try:
        tracer = spans.Tracer()
        tracer.install(pl)
        tracer.uninstall()
    finally:
        pl.algebras.solve = saved
    expect(tracer.absent == ["algebras.solve"], "a function the library lacks is reported absent")


def check_spin_payload(pl) -> None:
    for d in (2, 3, 5):
        text, perm, idem = workloads.spin_payload(d, random.Random(d))
        payload = json.loads(text)
        want = pl.algebra_to_json(pl.spin_factor(d))["structure"]
        n = d + 1
        got = [[[payload["structure"][perm[i]][perm[j]][perm[k]] for k in range(n)]
                for j in range(n)] for i in range(n)]
        alg = pl.algebra_from_json(text)
        c = alg.idempotents[0]
        expect(got == want and alg.multiply(c, c) == c,
               f"spin_factor({d}) payload matches algebra_to_json in a shuffled basis")


def check_descriptors() -> None:
    z = "z"
    expect(workloads.shape_of(((z, z), z)) == "principal" and workloads.shape_of(((z, z), (z, z))) == "plenary"
           and workloads.shape_of((((z, z), z), (z, z))) == "other", "shape classification")
    expect(workloads.has_repeated_subtree(((z, z), (z, z))) and not workloads.has_repeated_subtree(((z, z), z)),
           "repeated-subtree detection")
    expect(workloads.parse_rendered("-3/2*a^2*b + p - 4", "abp")
           == {(2, 1, 0): Fraction(-3, 2), (0, 0, 1): 1, (0, 0, 0): -4}, "rendered polynomial parser")


def check_speed_scaling() -> None:
    def records(op_ms, cycles=(1,)):  # cycle c runs on a machine `slowness` times slower
        return [run.Record("op", int(ms * slowness * 1e6), True, "", {}, cycle=c, slowness=slowness)
                for c, slowness in enumerate(cycles) for ms in op_ms]

    def metrics(rs):
        return {k: v for k, (v, _) in run.end_to_end("symbolic", rs, [1.0])[0].items() if k != "peak_rss_mb"}

    base = metrics(records([1, 2, 3, 50]))
    slow_machine = metrics(records([1, 2, 3, 50], cycles=(1, 2)))
    slow_program = metrics(records([2, 4, 6, 100]))
    expect(all(math.isclose(base[k], slow_machine[k], rel_tol=1e-6) for k in base),
           "a machine half as fast in one cycle leaves the scaled metrics unchanged")
    expect(math.isclose(slow_program["op_p50_ms"], 2 * base["op_p50_ms"], rel_tol=1e-6)
           and math.isclose(slow_program["ops_per_s"], base["ops_per_s"] / 2, rel_tol=1e-6),
           "a program half as fast doubles the scaled latency and halves ops_per_s")


def main() -> int:
    pl = run.fresh_import()
    check_descriptors()
    check_speed_scaling()
    check_spin_payload(pl)
    check_absent(pl)
    for workload in workloads.WORKLOADS:
        here = inputs_digest(pl, workload, 7)
        expect(here == inputs_digest(pl, workload, 7) == digest_in_child(workload, 7, "12345"),
               f"{workload}: seed 7 gives byte-identical inputs, in-process and in a fresh process")
        expect(here != inputs_digest(pl, workload, 8), f"{workload}: seed 8 gives other inputs")
        setup, make_cycle = workloads.WORKLOADS[workload]
        ops = make_cycle(pl, setup(pl, 3), 3, 0)
        check_failure_accounting(pl, workload, ops)
        check_tracing(pl, workload)
    print(f"self-test: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0
