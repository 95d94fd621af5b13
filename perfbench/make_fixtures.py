"""Regenerate the rollout workload's trained checkpoints.

Each fixture is trained through the public training API (`fit_dataset`) on
the default-seed synthetic dataset with the example config's sizes, epochs
and learning rates, and saved with `save_checkpoint`. The manifest records
each checkpoint's config fingerprint and parameter checksum; the benchmark
recomputes both before timing, so a stale fixture fails loudly.

    python3 perfbench/make_fixtures.py [ann ann-q tcn tide]

Training all four takes about ten minutes on two cores (TCN is most of it).
"""

from __future__ import annotations

import argparse
import json
import time

import workload as wl
from toilcast.models import save_checkpoint
from toilcast.training import fit_dataset


def make_fixture(spec: dict, name: str) -> dict:
    family, loss = wl.FIXTURES[name]
    seed = spec["default_seed"]
    train_ds, _ = wl.dataset(spec, seed)
    cfg = wl.train_config(spec, family, seed, loss)
    t0 = time.perf_counter()
    trained, report = fit_dataset(family, wl.model_config(spec, family, loss), train_ds,
                                  wl.scaler(spec), cfg)
    wall = time.perf_counter() - t0
    save_checkpoint(wl.FIXTURE_DIR / f"{name}.checkpoint.json", trained)
    return {"family": family, "loss": loss, "seed": seed, "epochs": report.epochs_run,
            "learning_rate": cfg.learning_rate, "batch_size": cfg.batch_size,
            "final_loss": report.epoch_losses[-1], "config_hash": trained.config_hash,
            "param_checksum": report.param_checksum, "train_wall_s": round(wall, 1),
            "git_sha": wl.git_sha()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=list(wl.FIXTURES),
                        choices=list(wl.FIXTURES))
    args = parser.parse_args(argv)
    spec = wl.load_spec()
    wl.FIXTURE_DIR.mkdir(exist_ok=True)
    for name in args.names:
        entry = make_fixture(spec, name)
        print(name, json.dumps(entry), flush=True)
        # re-read so that fixtures trained by concurrent invocations are kept
        manifest = (json.loads(wl.FIXTURE_MANIFEST.read_text())
                    if wl.FIXTURE_MANIFEST.exists() else {})
        manifest[name] = entry
        wl.FIXTURE_MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
