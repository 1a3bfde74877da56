"""Loss-line and INI experiment config parsing."""

import ast
import configparser
import math
import re
from dataclasses import MISSING, fields, replace

import pytest

from losslab import config
from losslab.config import (
    ANALYSES,
    DatasetConfig,
    ExperimentConfig,
    format_loss_line,
    load_config,
    parse_loss_line,
)
from losslab.agreement import AGREEMENT_VARIANTS
from losslab.checks import kind_fields
from losslab.losses import LOSS_KINDS, PENALTY_KINDS, LossSpec, PenaltySpec
from losslab.probe import ProbeConfig
from losslab.training import TrainConfig


class TestLossLines:
    def test_bare_kind(self):
        assert parse_loss_line("softmax") == LossSpec("softmax")

    def test_param_sets_field(self):
        spec = parse_loss_line("label_smoothing alpha=0.2")
        assert spec.kind == "label_smoothing"
        assert spec.alpha == 0.2

    def test_lambda_maps_to_lambda_final(self):
        assert parse_loss_line("extra_final_l2 lambda=0.001").lambda_final == 0.001

    def test_penalties_append_in_order(self):
        spec = parse_loss_line(
            "softmax +logit_penalty=0.0006 +extra_final_l2=0.0008"
        )
        assert spec.extra_penalties == (
            PenaltySpec("logit_penalty", 0.0006),
            PenaltySpec("extra_final_l2", 0.0008),
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                f"kind must be one of {LOSS_KINDS}, got 'hinge'")):
            parse_loss_line("hinge")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "key 'gamma' is not read by kind = softmax; choose from ()")):
            parse_loss_line("softmax gamma=2")

    def test_unknown_penalty_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                f"kind must be one of {PENALTY_KINDS}, got 'ridge'")):
            parse_loss_line("softmax +ridge=0.1")

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError, match="malformed token"):
            parse_loss_line("softmax alpha")

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            parse_loss_line("label_smoothing alpha=0.1 alpha=0.2")

    def test_empty_line_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_loss_line("   ")

    @pytest.mark.parametrize("line", [
        "softmax",
        "label_smoothing alpha=0.15",
        "dropout keep_prob=0.8",
        "cosine_softmax temperature=0.03",
        "squared_error kappa=9 target_magnitude=10 loss_scale=0.5",
        "sigmoid +logit_penalty=0.001",
        "extra_final_l2 lambda=0.002",
        "logit_penalty beta=0.001 +logit_penalty=0.0002 +extra_final_l2=0.0001",
        "logit_norm temperature=0.1 +extra_final_l2=0.0005",
    ])
    def test_format_parse_round_trip(self, line):
        spec = parse_loss_line(line)
        assert parse_loss_line(format_loss_line(spec)) == spec

    def test_format_starts_with_kind(self):
        spec = LossSpec("cosine_softmax", temperature=0.05)
        assert format_loss_line(spec) == "cosine_softmax temperature=0.05"

    @pytest.mark.parametrize("line", [
        "softmax temperature=0.1",
        "cosine_softmax alpha=0.5",
        "sigmoid kappa=2",
        "label_smoothing lambda=0.001",
    ])
    def test_param_of_another_kind_rejected(self, line):
        kind, token = line.split()
        key = token.partition("=")[0]
        with pytest.raises(ValueError, match=re.escape(
                f"key {key!r} is not read by kind = {kind}; choose from ")):
            parse_loss_line(line)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_every_kind_round_trips_at_defaults(self, kind):
        spec = LossSpec(kind)
        assert parse_loss_line(format_loss_line(spec)) == spec

    def test_format_keeps_every_digit(self):
        spec = LossSpec(
            "label_smoothing", alpha=0.123456789,
            extra_penalties=(PenaltySpec("logit_penalty", 1 / 3),),
        )
        line = format_loss_line(spec)
        assert line == (
            "label_smoothing alpha=0.123456789 +logit_penalty=0.3333333333333333"
        )
        assert parse_loss_line(line) == spec


GOOD_INI = """\
[dataset]
kind = blobs
classes = 4
features = 8
per_class = 30
eval_per_class = 10
spread = 0.8
seed = 3

[model]
hidden = 16, 16

[train]
epochs = 6
batch_size = 32
peak_lr = 0.05

[experiment]
seeds = 0, 1
output = out
analyses = separation, calibration

[losses]
plain = softmax
smooth = label_smoothing alpha=0.1
"""


def write_ini(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_happy_path(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, GOOD_INI))
        assert cfg.dataset.kind == "blobs"
        assert cfg.dataset.classes == 4
        assert cfg.hidden == (16, 16)
        assert cfg.train == TrainConfig(epochs=6, batch_size=32, peak_lr=0.05)
        assert cfg.seeds == (0, 1)
        assert [name for name, _ in cfg.losses] == ["plain", "smooth"]
        assert cfg.losses[1][1].alpha == 0.1
        assert cfg.analyses == ("separation", "calibration")
        assert cfg.output_dir == "out"
        assert cfg.agreement_variant == "same_top1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini")

    def test_unknown_section_rejected(self, tmp_path):
        path = write_ini(tmp_path, GOOD_INI + "\n[extras]\nfoo = 1\n")
        with pytest.raises(ValueError, match=r"unknown section \[extras\]"):
            load_config(path)

    @pytest.mark.parametrize("keys", ["seed = 3\n", "epochs = 3\n", ""],
                             ids=["seed", "epochs", "empty"])
    def test_default_section_rejected(self, tmp_path, keys):
        # configparser would merge its keys into every section
        path = write_ini(tmp_path, f"[DEFAULT]\n{keys}\n" + GOOD_INI)
        with pytest.raises(ValueError, match=re.escape(
                f"unknown section [DEFAULT]; choose from {config._SECTIONS}")):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        bad = GOOD_INI.replace("peak_lr = 0.05", "peak_lr = 0.05\nlr_decay = 2")
        with pytest.raises(ValueError, match=r"unknown key 'lr_decay' in \[train\]"):
            load_config(write_ini(tmp_path, bad))

    def test_missing_required_key_rejected(self, tmp_path):
        bad = GOOD_INI.replace("epochs = 6\n", "")
        with pytest.raises(ValueError, match=r"\[train\] is missing required key"):
            load_config(write_ini(tmp_path, bad))

    @pytest.mark.parametrize("good, bad, match", [
        ("plain = softmax", "Plain = softmax", "loss name 'Plain' must match"),
        ("epochs = 6", "Epochs = 6", r"unknown key 'Epochs' in \[train\]"),
        ("seed = 3", "Seed = 3", r"unknown key 'Seed' in \[dataset\]"),
    ])
    def test_keys_and_loss_names_read_as_written(self, tmp_path, good, bad, match):
        with pytest.raises(ValueError, match=match):
            load_config(write_ini(tmp_path, GOOD_INI.replace(good, bad)))

    def test_bad_value_names_section_and_key(self, tmp_path):
        bad = GOOD_INI.replace("epochs = 6", "epochs = six")
        with pytest.raises(ValueError, match=r"\[train\] epochs = 'six'"):
            load_config(write_ini(tmp_path, bad))

    def test_bad_schedule_rejected(self, tmp_path):
        bad = GOOD_INI.replace("peak_lr = 0.05", "peak_lr = 0.05\nschedule = step")
        with pytest.raises(ValueError, match="schedule must be one of"):
            load_config(write_ini(tmp_path, bad))

    @pytest.mark.parametrize("good, bad, match", [
        ("epochs = 6", "epochs = -1", "epochs must be >= 0"),
        ("hidden = 16, 16", "hidden = 16, 0", "hidden must be >= 1, got 0"),
        ("peak_lr = 0.05", "peak_lr = nan", "peak_lr must be finite and > 0"),
        ("peak_lr = 0.05", "peak_lr = inf", "peak_lr must be finite and > 0"),
        ("peak_lr = 0.05", "peak_lr = 0.05\nschedule = warmup_exp\n"
         "decay_per_epoch = -0.5", "decay_per_epoch must be finite and > 0"),
        ("peak_lr = 0.05", "peak_lr = 0.05\nschedule = warmup_exp\n"
         "warmup_epochs = nan", "warmup_epochs must be finite and >= 0"),
        ("peak_lr = 0.05", "peak_lr = 0.05\nweight_decay = nan",
         "weight_decay_product must be finite and >= 0"),
        ("hidden = 16, 16", "hidden =", "hidden needs at least one width"),
        ("separation, calibration", "spectra, spectra", "duplicate analyses"),
        ("spread = 0.8", "spread = nan", "spread must be finite and >= 0"),
        ("spread = 0.8", "spread = inf", "spread must be finite and >= 0"),
        ("seed = 3", "seed = -1", "seed must be >= 0"),
        ("seeds = 0, 1", "seeds = -1", "seeds must be >= 0"),
        ("classes = 4", "classes = 1", "classes must be >= 2"),
        ("features = 8", "features = 0", "features must be >= 1"),
        ("per_class = 30", "per_class = 0", "per_class must be >= 1"),
        ("eval_per_class = 10", "eval_per_class = 0", "eval_per_class must be >= 1"),
        ("batch_size = 32", "batch_size = 0", "batch_size must be >= 1"),
        ("peak_lr = 0.05", "peak_lr = 0", "peak_lr must be finite and > 0"),
        ("peak_lr = 0.05", "peak_lr = 0.05\nmomentum = 1.0",
         r"momentum must be in \[0, 1\)"),
        ("peak_lr = 0.05", "peak_lr = 0.05\nema_momentum = 1.0",
         r"ema_momentum must be in \[0, 1\)"),
        ("peak_lr = 0.05", "peak_lr = 0.05\nschedule = warmup_exp\n"
         "decay_per_epoch = 0", "decay_per_epoch must be finite and > 0"),
        ("peak_lr = 0.05", "peak_lr = 0.05\nweight_decay = -1e-300",
         "weight_decay_product must be finite and >= 0"),
        ("output = out", "output = out\ntransfer_merge = 1", "transfer_merge must be >= 2"),
    ])
    def test_bad_train_or_model_value_rejected(self, tmp_path, good, bad, match):
        with pytest.raises(ValueError, match=match):
            load_config(write_ini(tmp_path, GOOD_INI.replace(good, bad)))

    def test_csv_dataset_rejects_blobs_keys(self, tmp_path):
        # spread = nan used to pass and reach metadata.json as the token NaN
        ini = GOOD_INI.replace(GOOD_INI.split("\n\n")[0], (
            "[dataset]\nkind = csv\npath = train.csv\neval_path = eval.csv\n"
            "spread = nan"))
        with pytest.raises(ValueError, match="'spread' is not read by kind = csv"):
            load_config(write_ini(tmp_path, ini))
        good = load_config(write_ini(tmp_path, ini.replace("spread = nan\n", "")))
        assert good.dataset.path == "train.csv"

    @pytest.mark.parametrize("kind, key", [
        *(("csv", k) for k in ("classes", "features", "per_class",
                               "eval_per_class", "spread", "seed")),
        ("blobs", "path"),
        ("blobs", "eval_path"),
    ])
    def test_dataset_key_unread_by_kind_rejected(self, tmp_path, kind, key):
        lines = {"blobs": "kind = blobs",
                 "csv": "kind = csv\npath = a.csv\neval_path = b.csv"}
        ini = GOOD_INI.replace(GOOD_INI.split("\n\n")[0], (
            f"[dataset]\n{lines[kind]}\n{key} = 1"))
        with pytest.raises(ValueError, match=f"'{key}' is not read by kind = {kind}"):
            load_config(write_ini(tmp_path, ini))

    def test_idx_kind_rejected(self, tmp_path):
        ini = GOOD_INI.replace(GOOD_INI.split("\n\n")[0], (
            "[dataset]\nkind = idx\npath = a.idx\neval_path = b.idx"))
        with pytest.raises(ValueError,
                           match=r"kind must be one of \('blobs', 'csv'\), got 'idx'"):
            load_config(write_ini(tmp_path, ini))

    def test_weight_decay_key_renamed_for_trainer(self, tmp_path):
        ini = GOOD_INI.replace("peak_lr = 0.05", "peak_lr = 0.05\nweight_decay = 0.99")
        cfg = load_config(write_ini(tmp_path, ini))
        assert cfg.train.weight_decay_product == 0.99

    def test_missing_losses_rejected(self, tmp_path):
        bad = GOOD_INI.split("[losses]")[0]
        with pytest.raises(ValueError, match=r"missing \[losses\]"):
            load_config(write_ini(tmp_path, bad))

    @pytest.mark.parametrize("line, match", [
        ("label_smoothing alpha=abc", "could not convert string to float: 'abc'"),
        ("label_smoothing alpha=1.5", r"alpha must be in \[0, 1\), got 1.5"),
        ("hinge", re.escape(f"kind must be one of {LOSS_KINDS}, got 'hinge'")),
    ], ids=["bad-number", "out-of-range", "unknown-kind"])
    def test_bad_loss_line_names_its_entry(self, tmp_path, line, match):
        bad = GOOD_INI.replace("label_smoothing alpha=0.1", line)
        prefix = re.escape(f"[losses] smooth = {line!r}: ")
        with pytest.raises(ValueError, match=prefix + match):
            load_config(write_ini(tmp_path, bad))

    def test_unknown_analysis_rejected(self, tmp_path):
        bad = GOOD_INI.replace("separation, calibration", "separation, vibes")
        with pytest.raises(ValueError, match=re.escape(
                f"analyses must be one of {ANALYSES}, got 'vibes'")):
            load_config(write_ini(tmp_path, bad))

    def test_percent_literal_survives(self, tmp_path):
        # interpolation is off, so % needs no escaping in paths
        ini = GOOD_INI.replace("output = out", "output = out%run")
        assert load_config(write_ini(tmp_path, ini)).output_dir == "out%run"


class TestExperimentConfigValidation:
    def base_kwargs(self):
        return dict(
            dataset=DatasetConfig(kind="blobs"),
            hidden=(16,),
            train=TrainConfig(epochs=1, batch_size=8, peak_lr=0.1),
            seeds=(0,),
            losses=(("plain", LossSpec("softmax")),),
            analyses=(),
            output_dir="out",
        )

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            ExperimentConfig(**{**self.base_kwargs(), "seeds": ()})

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            ExperimentConfig(**{**self.base_kwargs(), "seeds": (1, 1)})

    def test_duplicate_loss_names_rejected(self):
        losses = (("a", LossSpec("softmax")), ("a", LossSpec("sigmoid")))
        with pytest.raises(ValueError, match="duplicate loss names"):
            ExperimentConfig(**{**self.base_kwargs(), "losses": losses})

    def test_bad_loss_name_rejected(self):
        losses = (("Bad Name", LossSpec("softmax")),)
        with pytest.raises(ValueError, match="must match"):
            ExperimentConfig(**{**self.base_kwargs(), "losses": losses})

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="agreement_variant"):
            ExperimentConfig(**{**self.base_kwargs(), "agreement_variant": "x"})

    def test_small_merge_rejected(self):
        with pytest.raises(ValueError, match="transfer_merge"):
            ExperimentConfig(**{**self.base_kwargs(), "transfer_merge": 1})

    # the INI parses these keys with int(), so only a config built in code
    # can hand them a float
    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5),
        ("batch_size", 8.5),
        ("hidden", (16.5,)),
        ("seeds", (0.5,)),
        ("transfer_merge", 2.5),
    ], ids=["epochs", "batch_size", "hidden", "seeds", "transfer_merge"])
    def test_fractional_count_rejected(self, field, value):
        kwargs = self.base_kwargs()
        with pytest.raises(ValueError, match="must be an integer, got"):
            if hasattr(kwargs["train"], field):
                replace(kwargs["train"], **{field: value})
            else:
                ExperimentConfig(**{**kwargs, field: value})

    # each entry of a tuple knob is held to the field's rule, not just the
    # smallest one; these used to build and fail inside a run
    @pytest.mark.parametrize("field, value, match", [
        ("seeds", (0, 1.5), "seeds must be an integer, got 1.5"),
        ("hidden", (8, 16.5), "hidden must be an integer, got 16.5"),
        ("analyses", ("cka", "vibes"),
         f"analyses must be one of {ANALYSES}, got 'vibes'"),
    ], ids=["seeds", "hidden", "analyses"])
    def test_every_tuple_entry_checked(self, field, value, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            ExperimentConfig(**{**self.base_kwargs(), field: value})

    @pytest.mark.parametrize("entry", [
        ("a", "softmax"), ("a",), ["a", LossSpec("softmax")], (1, LossSpec("softmax")),
    ], ids=["str-spec", "no-spec", "list", "int-name"])
    def test_loss_entry_must_be_a_name_and_spec(self, entry):
        # such an entry used to build, and failed only inside its first run
        losses = (("plain", LossSpec("softmax")), entry)
        with pytest.raises(TypeError, match=re.escape(
                f"losses must hold (name, LossSpec) pairs, got {entry!r}")):
            ExperimentConfig(**{**self.base_kwargs(), "losses": losses})

    def test_train_dict_rejected(self):
        with pytest.raises(TypeError, match="train must be a TrainConfig"):
            ExperimentConfig(**{**self.base_kwargs(),
                                "train": dict(epochs=1, batch_size=8, peak_lr=0.1)})

    def test_tuple_field_needs_a_tuple(self):
        # a str would pass the choice as one entry, then read as letters
        with pytest.raises(TypeError, match="analyses must be a tuple, got 'cka'"):
            ExperimentConfig(**{**self.base_kwargs(), "analyses": "cka"})

    def test_all_analyses_accepted(self):
        cfg = ExperimentConfig(**{**self.base_kwargs(), "analyses": ANALYSES})
        assert cfg.analyses == ANALYSES


# every kind's keys, in the order loss lines and metadata.json write them
KIND_KEYS = {
    (LossSpec, "softmax"): (),
    (LossSpec, "label_smoothing"): ("alpha",),
    (LossSpec, "dropout"): ("keep_prob",),
    (LossSpec, "extra_final_l2"): ("lambda",),
    (LossSpec, "logit_penalty"): ("beta",),
    (LossSpec, "logit_norm"): ("temperature",),
    (LossSpec, "cosine_softmax"): ("temperature",),
    (LossSpec, "sigmoid"): (),
    (LossSpec, "squared_error"): ("kappa", "target_magnitude", "loss_scale"),
    (DatasetConfig, "blobs"): ("classes", "features", "per_class", "eval_per_class",
                               "spread", "seed"),
    (DatasetConfig, "csv"): ("path", "eval_path"),
}
KINDED = (LossSpec, DatasetConfig)


def kind_choices(cls):
    return next(f for f in fields(cls) if f.name == "kind").metadata["choices"]


def test_kind_fields_are_the_kind_keys():
    assert {(cls, kind): tuple(kind_fields(cls, kind))
            for cls in KINDED for kind in kind_choices(cls)} == KIND_KEYS


@pytest.mark.parametrize("cls", KINDED, ids=lambda c: c.__name__)
def test_every_kinds_entry_is_a_kind(cls):
    for f in fields(cls):
        assert set(f.metadata.get("kinds", ())) <= set(kind_choices(cls)), f.name


@pytest.mark.parametrize("knob, value, match", [
    ("alpha", 1.5, "alpha must be in [0, 1), got 1.5"),
    ("keep_prob", 0.0, "keep_prob must be in (0, 1], got 0.0"),
    ("temperature", -1.0, "temperature must be finite and > 0, got -1.0"),
])
def test_every_loss_kind_holds_every_range(knob, value, match):
    # like DatasetConfig, a spec holds every knob to its range whatever the
    # kind, so no out-of-range knob rides along unread
    with pytest.raises(ValueError, match=re.escape(match)):
        LossSpec("softmax", **{knob: value})


class TestDatasetConfig:
    def test_blobs_defaults(self):
        ds = DatasetConfig(kind="blobs")
        assert ds.classes >= 2 and ds.per_class >= 1

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "kind must be one of ('blobs', 'csv'), got 'imagenet'")):
            DatasetConfig(kind="imagenet")

    def test_csv_needs_paths(self):
        with pytest.raises(ValueError, match="path"):
            DatasetConfig(kind="csv")

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError, match="spread"):
            DatasetConfig(kind="blobs", spread=-1.0)

    @pytest.mark.parametrize("knob, value, match", [
        ("spread", math.nan, "spread must be finite and >= 0, got nan"),
        ("classes", 1, "classes must be >= 2, got 1"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_csv_holds_the_blobs_ranges(self, knob, value, match):
        # check_fields holds every field to its range whatever the kind,
        # so a csv config built in code carries no blobs knob out of range
        with pytest.raises(ValueError, match=re.escape(match)):
            DatasetConfig(kind="csv", path="a.csv", eval_path="b.csv",
                          **{knob: value})


# section -> the fields its keys fill; the rest are set in code
SECTION_FIELDS = {
    "dataset": fields(DatasetConfig),
    "model": [f for f in fields(ExperimentConfig) if f.name == "hidden"],
    "train": fields(TrainConfig),
    "experiment": [f for f in fields(ExperimentConfig)
                   if f.name not in ("dataset", "hidden", "train", "losses")],
}
# the two INI keys named apart from the fields they fill
RENAMES = {"weight_decay_product": "weight_decay", "output_dir": "output"}
# annotation -> (INI text, parsed value) that every field so annotated accepts
SAMPLES = {
    "int": ("3", 3),
    "float": ("0.5", 0.5),
    "float | None": ("0.5", 0.5),
    "str | None": ("x.csv", "x.csv"),
    "tuple[int, ...]": ("3, 4", (3, 4)),
    "tuple[str, ...]": ("cka, spectra", ("cka", "spectra")),
}
DATASET_LINES = {"blobs": {"kind": "blobs"},
                 "csv": {"kind": "csv", "path": "a.csv", "eval_path": "b.csv"}}


def ini_key(f):
    return RENAMES.get(f.name, f.name)


def sample(f):
    """(INI text, value) for field f; a str field takes its default, which
    is one of its choices, or else a path."""
    if f.type == "str":
        text = "out" if f.default is MISSING else f.default
        return text, text
    return SAMPLES[f.type]


def good_sections(kind="blobs"):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(GOOD_INI)
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    sections["dataset"] = dict(DATASET_LINES[kind])
    return sections


def load_sections(tmp_path, sections):
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())
    return load_config(write_ini(tmp_path, text))


def accepted_keys(tmp_path, section, kind="blobs"):
    """The keys of [section] that load_config reads with [dataset]'s kind,
    as its error for an unread key lists them."""
    # [dataset] lists them when given a field of another kind, the other
    # sections when given an unknown key
    if section == "dataset":
        error = f"is not read by kind = {kind}; choose from "
        tries = [(f.name, sample(f)[0])
                 for f in SECTION_FIELDS["dataset"] if f.name != "kind"]
    else:
        error = f"unknown key 'bogus' in [{section}]; choose from "
        tries = [("bogus", "1")]
    for key, text in tries:
        sections = good_sections(kind)
        sections[section][key] = text
        try:
            load_sections(tmp_path, sections)
        except ValueError as exc:
            if error in str(exc):
                listed = ast.literal_eval(str(exc).split(error)[1])
                return ("kind", *listed) if section == "dataset" else listed
    pytest.fail(f"no key of [{section}] is rejected with {error!r}")


def field_value(cfg, section, name):
    if section == "dataset":
        return getattr(cfg.dataset, name)
    if section == "train":
        return getattr(cfg.train, name)
    return getattr(cfg, name)


class TestSchema:
    """Each key of [dataset], [model], [train] and [experiment] is a field of
    the dataclass it fills, and its parser, default and range come from that
    field, so a knob added there is covered here without a new case."""

    @pytest.mark.parametrize("section", ["model", "train", "experiment"])
    def test_keys_are_the_fields_they_fill(self, tmp_path, section):
        keys = accepted_keys(tmp_path, section)
        assert keys == tuple(ini_key(f) for f in SECTION_FIELDS[section])

    def test_dataset_keys_are_its_fields_by_kind(self, tmp_path):
        read = {kind: accepted_keys(tmp_path, "dataset", kind)
                for kind in DATASET_LINES}
        assert set(DATASET_LINES) == set(config.DATASET_KINDS)
        assert all(keys[0] == "kind" for keys in read.values())
        # each key but kind is read by exactly one kind
        names = [key for keys in read.values() for key in keys[1:]]
        assert sorted(names) == sorted(f.name for f in fields(DatasetConfig)
                                       if f.name != "kind")

    @pytest.mark.parametrize("section", list(SECTION_FIELDS))
    def test_every_field_annotation_has_a_parser(self, section):
        for f in SECTION_FIELDS[section]:
            assert f.type in config._PARSERS, (section, f.name, f.type)

    @pytest.mark.parametrize("section, kind", [
        ("dataset", "blobs"), ("dataset", "csv"),
        ("model", "blobs"), ("train", "blobs"), ("experiment", "blobs"),
    ])
    def test_each_key_fills_its_field(self, tmp_path, section, kind):
        keys = accepted_keys(tmp_path, section, kind)
        for f in SECTION_FIELDS[section]:
            if ini_key(f) not in keys or ini_key(f) == "kind":
                continue
            text, value = sample(f)
            sections = good_sections(kind)
            sections[section][ini_key(f)] = text
            cfg = load_sections(tmp_path, sections)
            assert field_value(cfg, section, f.name) == value, f.name

    @pytest.mark.parametrize("section", ["model", "train", "experiment"])
    def test_field_without_default_makes_key_required(self, tmp_path, section):
        required = [ini_key(f) for f in SECTION_FIELDS[section]
                    if f.default is MISSING and f.default_factory is MISSING]
        assert required
        for key in required:
            sections = good_sections()
            del sections[section][key]
            with pytest.raises(ValueError, match=re.escape(
                    f"[{section}] is missing required key {key!r}")):
                load_sections(tmp_path, sections)

    def test_missing_section_with_required_keys_rejected(self, tmp_path):
        for section in ("model", "train", "experiment"):
            sections = good_sections()
            del sections[section]
            with pytest.raises(ValueError, match=re.escape(
                    f"missing required [{section}] section")):
                load_sections(tmp_path, sections)
        sections = good_sections()
        del sections["dataset"]
        assert load_sections(tmp_path, sections).dataset == DatasetConfig()


def _minimal(cls):
    """Keyword arguments that build a valid cls."""
    return {
        TrainConfig: dict(epochs=1, batch_size=1, peak_lr=0.1),
        ExperimentConfig: dict(dataset=DatasetConfig(), hidden=(4,),
                               train=TrainConfig(epochs=1, batch_size=1, peak_lr=0.1),
                               seeds=(0,), losses=(("a", LossSpec("softmax")),),
                               output_dir="out"),
        PenaltySpec: dict(kind="logit_penalty", value=0.0),
        LossSpec: dict(kind="softmax"),
    }.get(cls, {})


RANGED = [(cls, f.name, f.metadata["range"])
          for cls in (TrainConfig, DatasetConfig, ProbeConfig, ExperimentConfig,
                      LossSpec, PenaltySpec)
          for f in fields(cls) if "range" in f.metadata]


def test_ranged_fields_found():
    names = {name for _, name, _ in RANGED}
    assert {"epochs", "ema_momentum", "spread", "tolerance", "transfer_merge",
            "seeds", "hidden", "lambda_grid", "alpha", "lambda_final",
            "value"} <= names


# a run's training seed is an argument of training.train, checked there
@pytest.mark.parametrize("cls", [ProbeConfig])
def test_negative_seed_rejected(cls):
    with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
        cls(**_minimal(cls), seed=-1)


CHOSEN = [(cls, f.name, f.metadata["choices"])
          for cls in (TrainConfig, DatasetConfig, ExperimentConfig, LossSpec,
                      PenaltySpec)
          for f in fields(cls) if "choices" in f.metadata]


def test_chosen_fields_found():
    assert [(cls.__name__, name, choices) for cls, name, choices in CHOSEN] == [
        ("TrainConfig", "schedule", ("cosine", "warmup_exp")),
        ("DatasetConfig", "kind", ("blobs", "csv")),
        ("ExperimentConfig", "analyses", ANALYSES),
        ("ExperimentConfig", "agreement_variant", AGREEMENT_VARIANTS),
        ("LossSpec", "kind", LOSS_KINDS),
        ("PenaltySpec", "kind", PENALTY_KINDS),
    ]


@pytest.mark.parametrize("cls, name, choices", CHOSEN,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in CHOSEN])
def test_chosen_field_rejects_bogus(cls, name, choices):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be one of {choices}, got 'bogus'")):
        cls(**{**_minimal(cls), name: "bogus"})


@pytest.mark.parametrize("cls, name, valid", RANGED,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in RANGED])
def test_ranged_field_rejects_nan(cls, name, valid):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be {valid}, got nan")):
        cls(**{**_minimal(cls), name: math.nan})
