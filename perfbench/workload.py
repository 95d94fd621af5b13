"""Workload definition shared by the benchmark scripts.

Importing this module pins the BLAS/OpenMP thread pools to one thread (which
must happen before numpy is first imported) and puts the checkout's own
`src/` first on `sys.path`, so the benchmark always measures the source tree
it sits in, never an installed copy. `PROGRAM` is that library and `FROZEN`
the benchmark's frozen copy of it (perfbench/frozen); the helpers below take
either.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import toilcast  # noqa: E402

if Path(toilcast.__file__).resolve().parent != ROOT / "src" / "toilcast":
    raise ImportError(f"imported toilcast from {toilcast.__file__}, not from {ROOT / 'src'}")

LIB_MODULES = ("autodiff", "iec", "metrics", "models", "nn", "rolling", "series", "synth",
               "training")


def load_lib(package: str) -> SimpleNamespace:
    """The library's modules under `package`, as attributes, plus its name."""
    return SimpleNamespace(name=package, **{m: importlib.import_module(f"{package}.{m}")
                                            for m in LIB_MODULES})


PROGRAM = load_lib("toilcast")
FROZEN = load_lib("frozen")

FIXTURE_DIR = BENCH_DIR / "fixtures"
FIXTURE_MANIFEST = FIXTURE_DIR / "manifest.json"
# rollout fixture name -> (family, loss)
FIXTURES = {"ann": ("ann", "point"), "ann-q": ("ann", "quantile"),
            "tcn": ("tcn", "point"), "tide": ("tide", "point")}
FAMILIES = ("ann", "tcn", "tide")


def load_spec(path: Path = BENCH_DIR / "workload.json") -> dict:
    with open(path) as fh:
        return json.load(fh)


def dataset(spec: dict, seed: int, lib=PROGRAM):
    """The synthetic dataset generated from `seed`, cut into (train, valid)."""
    ds, _, _ = lib.synth.gen_dataset(
        lib.synth.SynthSpec.from_config(dict(spec["synth"], seed=int(seed))))
    s = spec["split"]
    return lib.series.split(ds, lib.series.SplitSpec.from_isoformat(tuple(s["train"]),
                                                                    tuple(s["valid"])))


def scaler(spec: dict, lib=PROGRAM):
    return lib.series.AffineScaler.from_config(spec["scaling"])


def iec_params(spec: dict, lib=PROGRAM):
    return lib.iec.IecParams(**spec["iec_params"])


def model_config(spec: dict, family: str, loss: str = "point", lib=PROGRAM):
    raw = dict(spec["models"][family])
    n_cov = len(lib.training.COVARIATES)
    if family == "tide":
        raw.setdefault("n_covariates", n_cov)
    else:
        raw.setdefault("n_channels", len(lib.training.TARGET_CHANNELS_SINGLE) + n_cov)
    if loss == "quantile":
        raw["quantiles"] = tuple(spec["quantiles"])
    return lib.models.config_from_dict(family, raw)


def train_config(spec: dict, family: str, seed: int, loss: str = "point",
                 max_epochs: int | None = None, lib=PROGRAM):
    raw = spec["train"][family]
    return lib.training.TrainConfig(batch_size=int(raw["batch_size"]),
                       max_epochs=int(max_epochs or raw["max_epochs"]),
                       learning_rate=float(raw["learning_rate"]), seed=int(seed),
                       loss=loss, quantiles=tuple(spec["quantiles"]))


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_sha() -> str:
    """HEAD's commit id read from `.git`, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: f"{v.get('name')} {v.get('version')}" for k, v in deps.items()
                if k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError) as exc:  # numpy without mode="dicts"
        return {"error": repr(exc)}
