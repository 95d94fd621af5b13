"""toilcast benchmark: end-to-end round-time ratio and a traced per-layer breakdown.

    python3 perfbench/run.py --workload train|rollout|grid [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-reference

Workloads (the data is the 60-day synthetic set of the example config, made
from --seed; BLAS threads are pinned to 1):

- train: fixed-epoch training of ann, tcn and tide at the example sizes.
  Forward primitives, the conv VJP, `backward` and Adam carry the cost; there
  is no batch-1 inference.
- rollout: autoregressive rollout of four trained fixture checkpoints (ann,
  ann with a quantile head, tcn, tide) over the first 6 days (1,728 points)
  of the validation split, then `iec_predict` and `evaluate`. Batch-1 forward only: per-op tape overhead, the scaling in
  `predict_window` and the rolling loop carry the cost.
- grid: the example 27-trial ANN grid through `grid_search`, one epoch per
  trial, on the first 2 training days and a 400-point validation head. The
  only workload that re-windows per look-back, varies model shape and
  alternates training with rollout in one process.

An untraced run (--trace 0) sets up `setup_repeats` times for the program and
for the frozen copy of the library in perfbench/frozen, in alternating
order, and reports as `setup_s` the median program/frozen set-up time ratio
times the frozen copy's set-up time on the host the benchmark was defined
on (`frozen_setup_s` in workload.json), and the process's peak memory. It then repeats its
workload's unit (one "round") until --seconds have passed and at least three
rounds have run, each piece of a round (a family's training, a fixture's
rollout, the IEC/evaluate tail, the grid search) running twice back to back:
once with the program in src/ and once with the frozen copy of the library
in perfbench/frozen, the order alternating from round to round, and each
starting from a collected heap. It reports `round_time_ratio`, the program's
round time as a share of the frozen copy's: the median over rounds of each
piece's program/frozen time ratio, weighted by the frozen copy's median
piece time, with the first round left out as a warm-up. Below 1 the program
is faster than the library as it stood when the benchmark was defined. The
peak memory includes the frozen copy's inputs, which equal the program's.

Why a ratio: on a shared host the same code runs at speeds up to about 2x
apart that change over seconds to minutes, so a run's absolute times are
mostly a measure of the host. Both copies of a piece run within seconds of
each other on the same core and see the same host speed, which cancels in
their ratio; set-up is paired the same way. The program's and the frozen
copy's median piece times and set-up times, and their ratios, are printed or
written to perfbench/out/.

A traced run (--trace 1) times one untraced round, installs span wrappers
around the library's public functions (see tracing.py), repeats set-up and
the rounds under tracing, and reports per-layer metrics per round (set-up
layers per set-up), plus the traced to untraced wall-time ratio. A layer the
workload never calls reports 0.

Outputs are checked on every round: against the stored reference for the
default seed (reference.npz, recorded with --record-reference), against the
run's first round, and by invariants that hold for any seed. Each training,
rollout, grid trial or fixture verification is one operation; a failed check
fails its operation. The last stdout line is the JSON result; a fuller
record, with the environment manifest, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import workload as wl
import units
from tracing import PRIMITIVES, SpanTable, Tracer

REFERENCE = wl.BENCH_DIR / "reference.npz"
OUT_DIR = wl.BENCH_DIR / "out"


def load_reference(kind: str) -> dict:
    if not REFERENCE.exists():
        return {}
    prefix = f"{kind}/"
    with np.load(REFERENCE, allow_pickle=False) as ref:
        return {k[len(prefix):]: ref[k] for k in ref.files if k.startswith(prefix)}


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def manifest(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_env": {v: os.environ.get(v) for v in wl.THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": wl.blas_info(), "git_sha": wl.git_sha(),
            "src_lines": wl.src_line_count()}


class Tally:
    """Operations attempted and failure messages over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures += failures


def timed_setup(spec, seed, kind, repeats, tally, tracer=None) -> tuple[list[float], object]:
    times, inp = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        with tracer.span("setup") if tracer else nullcontext():
            inp = units.setup(spec, seed, kind)
        times.append(perf_counter() - t0)
    tally.add(len(inp.fixtures), inp.setup_failures)
    return times, inp


def execute(kind, spec, inp, seed, tally, reference, first=None, tracer=None):
    """Run one round of the unit, check its outputs and return its result."""
    if tracer:
        tracer.counters.clear()
    t0 = perf_counter()
    with tracer.span("round") if tracer else nullcontext():
        res = units.run_unit(kind, spec, inp, seed)
    if tracer:
        res.extra["counters"] = dict(tracer.counters)
    res.extra["wall_s"] = perf_counter() - t0
    tally.add(*units.check(kind, res, reference, first))
    return res


def run_rounds(kind, spec, inp, seed, seconds, tally, reference, first=None, tracer=None):
    """Run rounds until `seconds` have passed (at least one)."""
    results = []
    t_start = perf_counter()
    while not results or perf_counter() - t_start < seconds:
        results.append(execute(kind, spec, inp, seed, tally, reference,
                               first or (results[0] if results else None), tracer))
    return results


MIN_PAIRED_ROUNDS = 3   # a warm-up round and two timed ones


def run_paired_rounds(kind, spec, inps, seed, seconds, tally, reference):
    """Paired rounds of the program (inps[0]) and the frozen copy (inps[1])
    until `seconds` have passed and at least MIN_PAIRED_ROUNDS have run; the
    order within a pair alternates."""
    program, frozen = [], []
    t_start = perf_counter()
    while len(program) < MIN_PAIRED_ROUNDS or perf_counter() - t_start < seconds:
        res, ref = units.run_paired(kind, spec, inps, seed, flip=len(program) % 2 == 1)
        tally.add(*units.check(kind, res, reference, program[0] if program else None))
        tally.failures += [f"frozen copy: {op}: {msg}" for op, msg in ref.errors.items()]
        program.append(res)
        frozen.append(ref)
    return program, frozen


def time_ratio(program, frozen) -> tuple[float, dict]:
    """The program's round time as a share of the frozen copy's.

    Each piece's ratio is the median, over rounds, of its program time over
    the frozen copy's time in the same round; the round ratio weights the
    piece ratios by the frozen copy's median piece times. The first round
    warms both copies up and is left out when at least two others remain."""
    if len(program) >= MIN_PAIRED_ROUNDS:
        program, frozen = program[1:], frozen[1:]
    per_piece, num, den = {}, 0.0, 0.0
    for name in program[0].piece_s:
        p = np.array([r.piece_s[name] for r in program])
        f = np.array([r.piece_s[name] for r in frozen])
        ratio, weight = float(np.median(p / f)), float(np.median(f))
        per_piece[name] = {"ratio": ratio, "program_s": float(np.median(p)),
                           "frozen_s": weight,
                           "work": program[0].extra.get("work", {}).get(name)}
        num += ratio * weight
        den += weight
    return num / den, per_piece


# -------- per-layer metrics from the traced rounds --------

def layer_metrics(workload: str, tracer: Tracer, table: SpanTable, rounds, setup_roots,
                  round_roots, tally: Tally) -> dict[str, tuple[float, str]]:
    def ids(*wanted):
        return table.ids(lambda n: n in wanted)

    def prefixed(prefix):
        return table.ids(lambda n: n.startswith(prefix))

    def med(values):
        return float(np.median(values)) if len(values) else 0.0

    def per_round(idset, field="self"):
        return med(table.per_root(round_roots, idset, field))

    def per_setup(idset, field="dur"):
        return med(table.per_root(setup_roots, idset, field))

    def count(label, idset):
        c = table.per_root(round_roots, idset, "count")
        if len(set(c.tolist())) > 1:
            tally.failures.append(f"trace: {label} differs across rounds: {c.tolist()}")
        return float(c[0]) if len(c) else 0.0

    fwd = ids(*(f"autodiff.{p}" for p in PRIMITIVES))
    vjp = table.ids(lambda n: n.startswith("autodiff.") and n.endswith(".vjp"))
    conv = ids("autodiff.causal_conv1d")
    m: dict[str, tuple[float, str]] = {
        "autodiff.causal_conv1d.fwd_s": (per_round(conv), "s"),
        "autodiff.causal_conv1d.vjp_s": (per_round(ids("autodiff.causal_conv1d.vjp"), "dur"), "s"),
        "autodiff.causal_conv1d.calls": (count("causal_conv1d calls", conv), "count"),
    }
    ratios = []
    for r in rounds:
        c = r.extra["counters"]
        if c.get("conv_positions"):
            ratios.append(tracer.tcn_useful_per_row * c["tcn_rows"] / c["conv_positions"])
    m["autodiff.causal_conv1d.useful_ratio"] = (med(ratios), "ratio")
    m["autodiff.matmul.self_s"] = (per_round(ids("autodiff.matmul")), "s")
    m["autodiff.matmul.calls"] = (count("matmul calls", ids("autodiff.matmul")), "count")
    m["autodiff.backward.self_s"] = (per_round(ids("autodiff.backward")), "s")
    m["autodiff.vjp_s"] = (per_round(vjp, "dur"), "s")
    graph = "forward" if workload == "rollout" else "loss"
    for fam in wl.FAMILIES:
        m[f"autodiff.tensors_per_step.{fam}"] = (
            float(tracer.graph_nodes.get((graph, fam), 0)), "count")
    m["autodiff.op_calls"] = (count("primitive calls", fwd), "count")
    m["nn.adam_update.self_s"] = (per_round(ids("nn.adam_update")), "s")
    m["nn.adam_update.calls"] = (count("adam_update calls", ids("nn.adam_update")), "count")
    m["nn.layer_norm.self_s"] = (per_round(ids("nn.layer_norm")), "s")
    for fam in wl.FAMILIES:
        m[f"models.forward.self_s.{fam}"] = (per_round(ids(f"models.forward.{fam}")), "s")
    m["models.predict_window.self_s"] = (per_round(prefixed("models.predict_window.")), "s")
    for name in wl.FIXTURES:
        d = table.durations(round_roots, ids(f"models.predict_window.{name}")) * 1e6
        m[f"models.predict_window.p50_us.{name}"] = (
            float(np.percentile(d, 50)) if len(d) else 0.0, "us")
        m[f"models.predict_window.p99_us.{name}"] = (
            float(np.percentile(d, 99)) if len(d) else 0.0, "us")
    m["models.load_checkpoint.s"] = (per_setup(ids("models.load_checkpoint")), "s")
    m["rolling.autoregressive_predict.self_s"] = (
        per_round(ids("rolling.autoregressive_predict")), "s")
    m["rolling.evaluate.s"] = (per_round(ids("rolling.evaluate"), "dur"), "s")
    m["rolling.iec_predict.s"] = (per_round(ids("rolling.iec_predict"), "dur"), "s")
    for fam in wl.FAMILIES:
        m[f"training.train.self_s.{fam}"] = (per_round(ids(f"training.train.{fam}")), "s")
    trial_s = np.concatenate([r.extra.get("trial_s", np.empty(0)) for r in rounds])
    m["training.grid_search.trial_s.p50"] = (med(trial_s), "s")
    m["training.grid_search.trial_s.max"] = (float(trial_s.max()) if len(trial_s) else 0.0, "s")
    fit = table.per_root(round_roots, ids("training.fit_dataset"), "dur")
    search = table.per_root(round_roots, ids("training.grid_search"), "dur")
    m["training.grid_search.train_share"] = (
        med(fit[search > 0] / search[search > 0]), "ratio")
    m["training.grid_search.failed_trials"] = (
        float(max((sum(t.status != "ok" for t in r.extra.get("ranked", ())) for r in rounds),
                  default=0)), "count")
    for name in ("series.make_windows", "series.scale_windows"):
        in_rounds = table.per_root(round_roots, ids(name), "count").sum() > 0
        m[f"{name}.s"] = ((per_round(ids(name), "dur") if in_rounds
                           else per_setup(ids(name))), "s")
    m["synth.gen_dataset.s"] = (per_setup(ids("synth.gen_dataset")), "s")
    m["iec.simulate.s"] = (per_setup(ids("iec.simulate")), "s")
    return m


# -------- the two kinds of run --------

def untraced_run(args, spec, tally) -> tuple[dict, dict]:
    kind = args.workload
    setup_times = {wl.PROGRAM.name: [], wl.FROZEN.name: []}
    for i in range(spec["bench"]["setup_repeats"]):
        for lib in (wl.PROGRAM, wl.FROZEN)[::-1 if i % 2 else 1]:
            t0 = perf_counter()
            built = units.setup(spec, args.seed, kind, lib)
            setup_times[lib.name].append(perf_counter() - t0)
            if lib is wl.PROGRAM:
                inp = built
            else:
                frozen_inp = built
    setup_ratio = np.median(np.divide(setup_times[wl.PROGRAM.name], setup_times[wl.FROZEN.name]))
    tally.add(len(inp.fixtures), inp.setup_failures)
    tally.failures += [f"frozen copy: {m}" for m in frozen_inp.setup_failures]
    reference = load_reference(kind) if args.seed == spec["default_seed"] else None
    program, frozen = run_paired_rounds(kind, spec, [inp, frozen_inp], args.seed, args.seconds,
                                        tally, reference)
    ratio, per_piece = time_ratio(program, frozen)
    metrics = {"setup_s": (float(setup_ratio) * spec["bench"]["frozen_setup_s"][kind], "s"),
               "peak_rss_mb": (peak_rss_mb(), "MiB"),
               "round_time_ratio": (ratio, "ratio")}
    detail = {"setup_s": setup_times, "setup_ratio": setup_ratio, "rounds": len(program),
              "pieces": per_piece,
              "program_piece_s": [r.piece_s for r in program],
              "frozen_piece_s": [r.piece_s for r in frozen]}
    return metrics, detail


def traced_run(args, spec, tally) -> tuple[dict, dict]:
    kind = args.workload
    reference = load_reference(kind) if args.seed == spec["default_seed"] else None
    _, inp = timed_setup(spec, args.seed, kind, 1, tally)
    baseline = execute(kind, spec, inp, args.seed, tally, reference)
    tracer = Tracer()
    tracer.install()
    try:
        _, inp = timed_setup(spec, args.seed, kind, spec["bench"]["setup_repeats"], tally,
                             tracer)
        rounds = run_rounds(kind, spec, inp, args.seed, args.seconds, tally, reference,
                            first=baseline, tracer=tracer)
    finally:
        tracer.uninstall()
    table = SpanTable(tracer)
    tally.failures += [f"trace: {e}" for e in table.check()]
    roots = np.flatnonzero(table.parent < 0)
    root_names = [table.names[i] for i in table.name_id[roots]]
    setup_roots = roots[[n == "setup" for n in root_names]]
    round_roots = roots[[n == "round" for n in root_names]]
    if len(roots) != len(setup_roots) + len(round_roots):
        tally.failures.append("trace: spans recorded outside the set-up and round spans")
    metrics = layer_metrics(kind, tracer, table, rounds, setup_roots, round_roots, tally)
    overhead = statistics.median(r.extra["wall_s"] for r in rounds) / baseline.extra["wall_s"]
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{kind}.spans.npz")
    detail = {"n_spans": len(table.dur), "rounds": [r.extra["wall_s"] for r in rounds],
              "untraced_round_s": baseline.extra["wall_s"]}
    return metrics, detail


def record_reference(spec) -> int:
    """Write reference.npz from one round of every unit at the default seed."""
    seed = spec["default_seed"]
    arrays = {}
    tally = Tally()
    for kind in units.KINDS:
        inp = units.setup(spec, seed, kind)
        tally.add(len(inp.fixtures), inp.setup_failures)
        res = units.run_unit(kind, spec, inp, seed)
        tally.add(*units.check(kind, res, None, None))
        arrays.update({f"{kind}/{k}": np.asarray(v) for k, v in res.outputs.items()})
        if kind == "grid":
            maes = sorted(r.val_mae for r in res.extra["ranked"])
            print(f"grid: smallest gap between ranked MAEs {min(np.diff(maes)):.3g} K",
                  flush=True)
    if tally.failures:
        print("\n".join(tally.failures), file=sys.stderr)
        return 1
    np.savez_compressed(REFERENCE, **arrays)
    print(f"wrote {len(arrays)} reference arrays to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toilcast benchmark")
    parser.add_argument("--workload", choices=units.KINDS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the example config's seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    spec = wl.load_spec()
    if args.record_reference:
        return record_reference(spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is None:
        args.seed = spec["default_seed"]

    tally = Tally()
    env = manifest(args)
    print("manifest " + json.dumps(env, sort_keys=True), flush=True)
    run = traced_run if args.trace else untraced_run
    metrics, detail = run(args, spec, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit}")
    for name, p in detail.get("pieces", {}).items():
        print(f"  {name:25s} program {p['program_s']:8.3f} s  frozen {p['frozen_s']:8.3f} s  "
              f"ratio {p['ratio']:.4f}  work {p['work']}")
    for msg in tally.failures:
        print(f"FAILED {msg}")
    failed = min(len(tally.failures), tally.attempted)
    result = {"correct": not tally.failures, "attempted": tally.attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, manifest=env, detail=detail, failures=tally.failures)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
