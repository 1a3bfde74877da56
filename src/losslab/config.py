"""INI experiment configs: dataset, model, training, losses, analyses.

A config file has four fixed sections plus a [losses] section mapping run
names to loss lines:

    [dataset]
    kind = blobs
    classes = 10
    features = 32
    per_class = 500
    eval_per_class = 100
    spread = 1.0
    seed = 0

    [model]
    hidden = 64, 64

    [train]
    epochs = 40
    batch_size = 128
    peak_lr = 0.05
    schedule = cosine

    [experiment]
    seeds = 0, 1, 2
    output = out
    analyses = separation, cka, calibration, agreement

    [losses]
    softmax = softmax
    smooth = label_smoothing alpha=0.1
    cos05 = cosine_softmax temperature=0.05 +logit_penalty=6e-4

Unknown sections or keys are hard errors so a typo in a hyperparameter
grid fails fast instead of silently training with defaults. So is a
[dataset] key that its kind does not read, such as spread for a csv.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass

from .agreement import AGREEMENT_VARIANTS
from .checks import check_range, check_ranges
from .losses import LOSS_KINDS, LOSS_PARAMS, PENALTY_KINDS, LossSpec, PenaltySpec
from .training import TrainConfig

ANALYSES = (
    "separation",
    "cka",
    "sparsity",
    "calibration",
    "agreement",
    "avh",
    "spectra",
    "transfer",
)
DATASET_KINDS = ("blobs", "csv")

_RUN_NAME = re.compile(r"^[a-z0-9][a-z0-9_\-]*$")


def parse_loss_line(text: str) -> LossSpec:
    """``kind [param=value ...] [+penalty=value ...]`` -> LossSpec.

    Penalty tokens start with ``+`` and append to extra_penalties in the
    order written; plain tokens set the kind's own knobs, and a knob its
    kind does not read (``losses.LOSS_PARAMS``) is an error.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty loss line")
    kind = parts[0]
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; choose from {LOSS_KINDS}")
    fields = {name: field for name, field, _ in LOSS_PARAMS[kind]}
    params = {}
    penalties = []
    for tok in parts[1:]:
        name, eq, val = tok.lstrip("+").partition("=")
        if not eq or not val:
            raise ValueError(f"malformed token {tok!r} in loss line {text!r}")
        if tok.startswith("+"):
            if name not in PENALTY_KINDS:
                raise ValueError(
                    f"unknown penalty {name!r}; choose from {PENALTY_KINDS}"
                )
            penalties.append(PenaltySpec(name, float(val)))
        else:
            if name not in fields:
                raise ValueError(
                    f"unknown loss parameter {name!r} for {kind}; "
                    f"choose from {tuple(fields)}"
                )
            if fields[name] in params:
                raise ValueError(f"duplicate parameter {name!r} in {text!r}")
            params[fields[name]] = float(val)
    return LossSpec(kind, extra_penalties=tuple(penalties), **params)


def _number(x: float) -> str:
    """x as ``:g`` when that reads back as x, else as its repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def format_loss_line(spec: LossSpec) -> str:
    """Inverse of parse_loss_line, canonical key order."""
    toks = [spec.kind]
    for name, field, _ in LOSS_PARAMS[spec.kind]:
        toks.append(f"{name}={_number(getattr(spec, field))}")
    for pen in spec.extra_penalties:
        toks.append(f"+{pen.kind}={_number(pen.value)}")
    return " ".join(toks)


# blobs DatasetConfig field -> checks.RANGES key
_BLOBS_RANGES = {
    "classes": ">= 2",
    "features": ">= 1",
    "per_class": ">= 1",
    "eval_per_class": ">= 1",
    "spread": "finite and >= 0",
    "seed": ">= 0",
}


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "blobs"
    # blobs
    classes: int = 10
    features: int = 32
    per_class: int = 500
    eval_per_class: int = 100
    spread: float = 1.0
    seed: int = 0
    # csv
    path: str | None = None
    eval_path: str | None = None

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"dataset kind must be one of {DATASET_KINDS}")
        if self.kind == "blobs":
            check_ranges(self, _BLOBS_RANGES)
        else:
            if not self.path or not self.eval_path:
                raise ValueError(f"{self.kind} datasets need path and eval_path")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    hidden: tuple
    train: dict  # TrainConfig knobs minus loss and seed
    seeds: tuple
    losses: tuple  # ((name, LossSpec), ...)
    output_dir: str
    analyses: tuple = ()
    agreement_variant: str = "same_top1"
    transfer_merge: int = 5

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds")
        check_range("seeds", min(self.seeds), ">= 0")
        if not self.losses:
            raise ValueError("need at least one loss")
        names = [name for name, _ in self.losses]
        if len(set(names)) != len(names):
            raise ValueError("duplicate loss names")
        for name in names:
            if not _RUN_NAME.match(name):
                raise ValueError(
                    f"loss name {name!r} must match {_RUN_NAME.pattern}"
                )
        if not self.hidden:
            raise ValueError("hidden needs at least one width")
        check_range("hidden widths", min(self.hidden), ">= 1")
        # the knobs are shared by every run, so one TrainConfig checks them all
        TrainConfig(loss=self.losses[0][1], seed=self.seeds[0], **self.train)
        for a in self.analyses:
            if a not in ANALYSES:
                raise ValueError(f"unknown analysis {a!r}; choose from {ANALYSES}")
        if len(set(self.analyses)) != len(self.analyses):
            raise ValueError(f"duplicate analyses in {self.analyses}")
        if self.agreement_variant not in AGREEMENT_VARIANTS:
            raise ValueError(
                f"agreement_variant must be one of {AGREEMENT_VARIANTS}"
            )
        check_range("transfer_merge", self.transfer_merge, ">= 2")


def _parse_section(parser, section, converters, required=()):
    """Pull a section dict through per-key converters; unknown keys raise."""
    if not parser.has_section(section):
        if required:
            raise ValueError(f"missing required [{section}] section")
        return {}
    out = {}
    for key, raw in parser.items(section):
        if key not in converters:
            raise ValueError(
                f"unknown key {key!r} in [{section}]; "
                f"choose from {tuple(converters)}"
            )
        try:
            out[key] = converters[key](raw)
        except ValueError as exc:
            raise ValueError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    for key in required:
        if key not in out:
            raise ValueError(f"[{section}] is missing required key {key!r}")
    return out


def _int_list(raw):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _str_list(raw):
    return tuple(tok for tok in raw.replace(",", " ").split())


def _opt_float(raw):
    return None if raw.strip() in ("", "none") else float(raw)


_BLOBS_KEYS = {
    "classes": int,
    "features": int,
    "per_class": int,
    "eval_per_class": int,
    "spread": float,
    "seed": int,
}
_FILE_KEYS = {"path": str, "eval_path": str}
_DATASET_KEYS = {"kind": str, **_BLOBS_KEYS, **_FILE_KEYS}
# the [dataset] keys each kind reads besides kind; any other key is an error
_KIND_KEYS = {"blobs": _BLOBS_KEYS, "csv": _FILE_KEYS}
_MODEL_KEYS = {"hidden": _int_list}
_TRAIN_KEYS = {
    "epochs": int,
    "batch_size": int,
    "peak_lr": float,
    "schedule": str,
    "warmup_epochs": float,
    "decay_per_epoch": float,
    "momentum": float,
    "weight_decay": float,
    "ema_momentum": _opt_float,
}
_EXPERIMENT_KEYS = {
    "seeds": _int_list,
    "output": str,
    "analyses": _str_list,
    "agreement_variant": str,
    "transfer_merge": int,
}
_SECTIONS = ("dataset", "model", "train", "experiment", "losses")


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown section [{section}]; choose from {_SECTIONS}"
            )

    ds = _parse_section(parser, "dataset", _DATASET_KEYS)
    kind = ds.get("kind", DatasetConfig.kind)
    for key in ds:
        # an unknown kind is DatasetConfig's error
        if kind in _KIND_KEYS and key not in ("kind", *_KIND_KEYS[kind]):
            raise ValueError(
                f"[dataset] key {key!r} is not read by kind = {kind}; "
                f"choose from {tuple(_KIND_KEYS[kind])}"
            )
    model = _parse_section(parser, "model", _MODEL_KEYS, required=("hidden",))
    train = _parse_section(parser, "train", _TRAIN_KEYS,
                           required=("epochs", "batch_size", "peak_lr"))
    exp = _parse_section(parser, "experiment", _EXPERIMENT_KEYS,
                         required=("seeds", "output"))
    # TrainConfig calls the product-form knob weight_decay_product
    if "weight_decay" in train:
        train["weight_decay_product"] = train.pop("weight_decay")

    if not parser.has_section("losses") or not parser.items("losses"):
        raise ValueError("missing [losses] section with at least one loss line")
    losses = tuple(
        (name, parse_loss_line(line)) for name, line in parser.items("losses")
    )

    # keys the file leaves out take ExperimentConfig's defaults
    exp["output_dir"] = exp.pop("output")
    return ExperimentConfig(dataset=DatasetConfig(**ds), hidden=model["hidden"],
                            train=train, losses=losses, **exp)
