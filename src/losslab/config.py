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
TrainConfig or ExperimentConfig, or whose line names it (weight_decay
fills weight_decay_product, output fills output_dir): the field's
annotation picks its parser, and a field with no default makes it
required. Unknown sections or keys are hard errors so a typo in a
hyperparameter grid fails fast instead of silently training with
defaults. So is a [dataset] key or loss-line knob that its kind does not
read, such as spread for a csv (checks.kind_fields). Keys and loss names
are read as written: Epochs is an unknown key, and a loss named Plain
breaks the run-name rule.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import MISSING, dataclass, fields

from .agreement import AGREEMENT_VARIANTS
from .checks import check_choice, check_fields, check_read, chosen, kind_fields, ranged
from .losses import LOSS_KINDS, LossSpec, PenaltySpec
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
    kind does not read is an error.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty loss line")
    # LossSpec checks the kind too, but the kind's knobs are read first
    kind = check_choice("kind", parts[0], LOSS_KINDS)
    fields = kind_fields(LossSpec, kind)
    params = {}
    penalties = []
    for tok in parts[1:]:
        name, eq, val = tok.lstrip("+").partition("=")
        if not eq or not val:
            raise ValueError(f"malformed token {tok!r} in loss line {text!r}")
        if tok.startswith("+"):
            penalties.append(PenaltySpec(name, float(val)))
        else:
            field = fields[check_read(name, kind, tuple(fields))]
            if field in params:
                raise ValueError(f"duplicate parameter {name!r} in {text!r}")
            params[field] = float(val)
    return LossSpec(kind, extra_penalties=tuple(penalties), **params)


def _number(x: float) -> str:
    """x as ``:g`` when that reads back as x, else as its repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def format_loss_line(spec: LossSpec) -> str:
    """Inverse of parse_loss_line, canonical key order."""
    toks = [spec.kind]
    for key, name in kind_fields(LossSpec, spec.kind).items():
        toks.append(f"{key}={_number(getattr(spec, name))}")
    for pen in spec.extra_penalties:
        toks.append(f"+{pen.kind}={_number(pen.value)}")
    return " ".join(toks)


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = chosen(DATASET_KINDS, "blobs")
    # check_fields holds the blobs ranges for every kind
    classes: int = ranged(">= 2", 10, kinds=("blobs",))
    features: int = ranged(">= 1", 32, kinds=("blobs",))
    per_class: int = ranged(">= 1", 500, kinds=("blobs",))
    eval_per_class: int = ranged(">= 1", 100, kinds=("blobs",))
    spread: float = ranged("finite and >= 0", 1.0, kinds=("blobs",))
    seed: int = ranged(">= 0", 0, kinds=("blobs",))
    path: str | None = ranged(default=None, kinds=("csv",))
    eval_path: str | None = ranged(default=None, kinds=("csv",))

    def __post_init__(self):
        check_fields(self)
        if self.kind != "blobs" and not (self.path and self.eval_path):
            raise ValueError(f"{self.kind} datasets need path and eval_path")

    def record(self) -> dict:
        """The kind and only the fields it reads, as metadata.json names
        the task."""
        return {"kind": self.kind,
                **{k: getattr(self, k) for k in kind_fields(self, self.kind).values()}}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    hidden: tuple[int, ...] = ranged(">= 1")
    train: TrainConfig  # the recipe every (loss, seed) run shares
    seeds: tuple[int, ...] = ranged(">= 0")
    losses: tuple  # ((name, LossSpec), ...)
    output_dir: str = ranged(key="output")
    analyses: tuple[str, ...] = chosen(ANALYSES, ())
    agreement_variant: str = chosen(AGREEMENT_VARIANTS, "same_top1")
    transfer_merge: int = ranged(">= 2", 5)

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.train, TrainConfig):
            raise TypeError(f"train must be a TrainConfig, got {self.train!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds")
        if not self.losses:
            raise ValueError("need at least one loss")
        for pair in self.losses:
            if not isinstance(pair, tuple) or tuple(map(type, pair)) != (str, LossSpec):
                raise TypeError(f"losses must hold (name, LossSpec) pairs, got {pair!r}")
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
        if len(set(self.analyses)) != len(self.analyses):
            raise ValueError(f"duplicate analyses in {self.analyses}")


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
# section -> the fields its keys fill; [losses] holds loss lines instead
_SECTION_FIELDS = {
    "dataset": fields(DatasetConfig),
    "model": [f for f in fields(ExperimentConfig) if f.name == "hidden"],
    "train": fields(TrainConfig),
    "experiment": [f for f in fields(ExperimentConfig)
                   if f.name not in ("dataset", "hidden", "train", "losses")],
}
_SECTIONS = (*_SECTION_FIELDS, "losses")


def _parse_section(parser, section) -> dict:
    """[section] as field -> value, each value read by the parser of its
    field's annotation. An unknown key raises, and so does a missing key
    whose field has no default, or a missing section that has such a key."""
    keys = {f.metadata.get("key", f.name): f for f in _SECTION_FIELDS[section]}
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
    # with no default section, [DEFAULT] is one more unknown section, not
    # keys merged into every other section
    parser = configparser.ConfigParser(interpolation=None, default_section=None)
    parser.optionxform = str  # keys and loss names as written, not lowercased
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
    if kind in DATASET_KINDS:  # an unknown kind is DatasetConfig's error
        keys = tuple(kind_fields(DatasetConfig, kind))
        try:
            for key in ds:
                if key != "kind":
                    check_read(key, kind, keys)
        except ValueError as exc:
            raise ValueError(f"[dataset] {exc}") from exc
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
    return ExperimentConfig(dataset=DatasetConfig(**ds), train=TrainConfig(**train),
                            losses=tuple(losses), **model, **exp)
