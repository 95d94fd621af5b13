"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Runs every unit at toy size, takes its outputs as the reference, and shows
that the output checks pass on a rerun, still pass when the reference is
moved within tolerance, and fail when it is moved beyond tolerance. It then
makes two traced toy runs and checks that their span trees are consistent and
that the count metrics repeat exactly, and that a corrupted span tree and a
tampered fixture are caught. A paired toy round must give the same outputs
from the program and from the frozen copy.
"""

from __future__ import annotations

import argparse
import copy
import sys

import numpy as np

import workload as wl
import run
import units
from tracing import SpanTable, Tracer

TOY_SEED = 11  # not the default seed, so no stored reference is consulted


def toy_spec() -> dict:
    spec = wl.load_spec()
    b = spec["bench"]
    b["setup_repeats"] = 2
    b["train"] = {"epochs": 1, "train_days": 3}
    b["rollout"] = {"valid_points": 120}
    b["grid"] = {"epochs": 1, "train_days": 2, "valid_points": 120}
    spec["grid"] = {"n_neurons": [8], "n_layers": [1]}
    return spec


class Report:
    def __init__(self):
        self.failed = 0

    def expect(self, label: str, ok: bool, detail: str = "") -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}", flush=True)
        self.failed += not ok


def perturbations(kind: str, outputs: dict) -> list[tuple[str, dict, bool]]:
    """(label, perturbed reference, should the check still pass)."""
    cases = []

    def moved(key, fn):
        ref = copy.deepcopy(outputs)
        ref[key] = fn(np.array(ref[key]))
        return ref

    if kind == "train":
        cases += [("loss within rtol", moved("train.tcn.losses", lambda a: a * (1 + 1e-12)), True),
                  ("loss beyond rtol", moved("train.tcn.losses", lambda a: a * (1 + 1e-6)), False)]
    elif kind == "rollout":
        cases += [("trace within 1e-12 K", moved("rollout.ann.values", lambda a: a + 1e-13), True),
                  ("trace beyond 1e-12 K", moved("rollout.tcn.values", lambda a: a + 1e-9), False),
                  ("quantile beyond 1e-12 K",
                   moved("rollout.ann-q.quantiles", lambda a: a - 1e-9), False),
                  ("MAE beyond rtol", moved("rollout.evaluate.tide.mae", lambda a: a * 1.001), False),
                  ("PICP differs", moved("rollout.evaluate.ann-q.picp", lambda a: a - 0.01), False)]
    else:
        cases += [("val MAE beyond rtol", moved("grid.trial00.val_mae", lambda a: a * 1.0001), False),
                  ("ranking swapped", moved("grid.ranking", lambda a: a[[1, 0, *range(2, len(a))]]),
                   False)]
    return cases


def check_outputs(spec: dict, rep: Report) -> None:
    for kind in units.KINDS:
        inp = units.setup(spec, TOY_SEED, kind)
        if kind == "rollout":
            rep.expect("fixtures verify", not inp.setup_failures, "; ".join(inp.setup_failures))
            fixtures = inp.fixtures
        first = units.run_unit(kind, spec, inp, TOY_SEED)
        attempted, failed = units.check(kind, first, None, None)
        rep.expect(f"{kind}: invariants hold at toy size ({attempted} operations)", not failed,
                   "; ".join(failed))
        again = units.run_unit(kind, spec, inp, TOY_SEED)
        _, failed = units.check(kind, again, first.outputs, first)
        rep.expect(f"{kind}: rerun matches its own reference", not failed, "; ".join(failed))
        for label, ref, should_pass in perturbations(kind, first.outputs):
            _, failed = units.check(kind, again, ref, None)
            rep.expect(f"{kind}: {label} {'passes' if should_pass else 'fails'}",
                       (not failed) == should_pass, f"{len(failed)} failed operations")
    for kind in units.KINDS:
        inps = [units.setup(spec, TOY_SEED, kind, lib) for lib in (wl.PROGRAM, wl.FROZEN)]
        res, ref = units.run_paired(kind, spec, inps, TOY_SEED, flip=True)
        _, failed = units.check(kind, res, ref.outputs, ref)
        rep.expect(f"{kind}: paired round matches the frozen copy", not failed,
                   "; ".join(failed))
        rep.expect(f"{kind}: paired round times every piece of both copies",
                   set(res.piece_s) == set(ref.piece_s) == {p[0] for p in units.pieces(kind)})
    model = fixtures["tcn"]
    expected = {"config_hash": model.config_hash, "param_checksum": "0" * 64}
    rep.expect("tampered fixture checksum is caught",
               bool(units.verify_fixture("tcn", model, expected)))


def check_tracing(spec: dict, rep: Report) -> None:
    counts = []
    for kind in units.KINDS:
        per_run = []
        for _ in range(2):
            args = argparse.Namespace(workload=kind, seed=TOY_SEED, seconds=0.0, trace=1)
            tally = run.Tally()
            metrics, _ = run.traced_run(args, spec, tally)
            rep.expect(f"{kind}: traced toy run is consistent", not tally.failures,
                       "; ".join(tally.failures))
            per_run.append({n: v for n, (v, u) in metrics.items() if u == "count"})
        rep.expect(f"{kind}: count metrics repeat exactly across two traced runs",
                   per_run[0] == per_run[1], f"{per_run[0]} vs {per_run[1]}")
        counts.append(per_run[0])
    rep.expect("traced runs record primitive calls", all(c["autodiff.op_calls"] > 0 for c in counts))

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("round"):
            units.run_unit("train", spec, units.setup(spec, TOY_SEED, "train"), TOY_SEED)
    finally:
        tracer.uninstall()
    table = SpanTable(tracer)
    rep.expect("span tree of a train round is consistent", not table.check(),
               "; ".join(table.check()))
    child = int(np.flatnonzero(table.parent >= 0)[-1])
    tracer.end[child] = tracer.end[table.parent[child]] + 1.0
    rep.expect("a child span outside its parent is caught", bool(SpanTable(tracer).check()))


def main() -> int:
    spec = toy_spec()
    rep = Report()
    check_outputs(spec, rep)
    check_tracing(spec, rep)
    print(f"{'all checks passed' if not rep.failed else f'{rep.failed} checks FAILED'}")
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
