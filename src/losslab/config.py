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

A key outside [losses] fills the field of its name in DatasetConfig,
TrainConfig or ExperimentConfig (weight_decay fills weight_decay_product,
output fills output_dir): the field's annotation picks its parser, and a
field with no default makes it required. Unknown sections or keys are hard errors so a
typo in a hyperparameter grid fails fast instead of silently training with
defaults. So is a [dataset] key that its kind does not read, such as
spread for a csv.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import MISSING, dataclass, fields

from .agreement import AGREEMENT_VARIANTS
from .checks import check_fields, check_range, ranged
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
# the [dataset] keys each kind reads besides kind; any other key is an error
_KIND_KEYS = {"blobs": ("classes", "features", "per_class", "eval_per_class",
                        "spread", "seed"),
              "csv": ("path", "eval_path")}
DATASET_KINDS = tuple(_KIND_KEYS)

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


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "blobs"
    # blobs
    classes: int = ranged(">= 2", 10)
    features: int = ranged(">= 1", 32)
    per_class: int = ranged(">= 1", 500)
    eval_per_class: int = ranged(">= 1", 100)
    spread: float = ranged("finite and >= 0", 1.0)
    seed: int = ranged(">= 0", 0)
    # csv
    path: str | None = None
    eval_path: str | None = None

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"dataset kind must be one of {DATASET_KINDS}")
        if self.kind == "blobs":
            check_fields(self)
        elif not self.path or not self.eval_path:
            raise ValueError(f"{self.kind} datasets need path and eval_path")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    hidden: tuple[int, ...]
    train: dict  # TrainConfig knobs minus loss and seed
    seeds: tuple[int, ...]
    losses: tuple  # ((name, LossSpec), ...)
    output_dir: str
    analyses: tuple[str, ...] = ()
    agreement_variant: str = "same_top1"
    transfer_merge: int = ranged(">= 2", 5)

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
        check_fields(self)


# field annotation -> parser of the INI value that fills the field; list
# items are separated by commas, blanks or both
_PARSERS = {
    "int": int,
    "float": float,
    "float | None": lambda raw: None if raw.strip() in ("", "none") else float(raw),
    "str": str,
    "str | None": str,
    "tuple[int, ...]": lambda raw: tuple(map(int, raw.replace(",", " ").split())),
    "tuple[str, ...]": lambda raw: tuple(raw.replace(",", " ").split()),
}
# the two fields whose INI key has another name -> that key
_RENAMED_KEYS = {"weight_decay_product": "weight_decay", "output_dir": "output"}
# section -> the fields its keys fill; [losses] holds loss lines instead
_SECTION_FIELDS = {
    "dataset": fields(DatasetConfig),
    "model": [f for f in fields(ExperimentConfig) if f.name == "hidden"],
    "train": [f for f in fields(TrainConfig) if f.name not in ("loss", "seed")],
    "experiment": [f for f in fields(ExperimentConfig)
                   if f.name not in ("dataset", "hidden", "train", "losses")],
}
_SECTIONS = (*_SECTION_FIELDS, "losses")


def _parse_section(parser, section) -> dict:
    """[section] as field -> value, each value read by the parser of its
    field's annotation. An unknown key raises, and so does a missing key
    whose field has no default, or a missing section that has such a key."""
    keys = {_RENAMED_KEYS.get(f.name, f.name): f for f in _SECTION_FIELDS[section]}
    required = [key for key, f in keys.items()
                if f.default is MISSING and f.default_factory is MISSING]
    if not parser.has_section(section):
        if required:
            raise ValueError(f"missing required [{section}] section")
        return {}
    out = {}
    for key, raw in parser.items(section):
        if key not in keys:
            raise ValueError(
                f"unknown key {key!r} in [{section}]; choose from {tuple(keys)}"
            )
        try:
            out[keys[key].name] = _PARSERS[keys[key].type](raw)
        except ValueError as exc:
            raise ValueError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    for key in required:
        if keys[key].name not in out:
            raise ValueError(f"[{section}] is missing required key {key!r}")
    return out


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

    ds = _parse_section(parser, "dataset")
    kind = ds.get("kind", DatasetConfig.kind)
    for key in ds:
        # an unknown kind is DatasetConfig's error
        if kind in _KIND_KEYS and key not in ("kind", *_KIND_KEYS[kind]):
            raise ValueError(
                f"[dataset] key {key!r} is not read by kind = {kind}; "
                f"choose from {_KIND_KEYS[kind]}"
            )
    model = _parse_section(parser, "model")
    train = _parse_section(parser, "train")
    exp = _parse_section(parser, "experiment")

    if not parser.has_section("losses") or not parser.items("losses"):
        raise ValueError("missing [losses] section with at least one loss line")
    losses = []
    for name, line in parser.items("losses"):
        try:
            losses.append((name, parse_loss_line(line)))
        except ValueError as exc:
            raise ValueError(f"[losses] {name} = {line!r}: {exc}") from exc

    # keys the file leaves out take the dataclasses' defaults
    return ExperimentConfig(dataset=DatasetConfig(**ds), train=train,
                            losses=tuple(losses), **model, **exp)
