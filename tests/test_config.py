"""Loss-line and INI experiment config parsing."""

import pytest

from losslab.config import (
    ANALYSES,
    DatasetConfig,
    ExperimentConfig,
    format_loss_line,
    load_config,
    parse_loss_line,
)
from losslab.losses import LOSS_KINDS, LossSpec, PenaltySpec


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
        with pytest.raises(ValueError, match="unknown loss kind"):
            parse_loss_line("hinge")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown loss parameter"):
            parse_loss_line("softmax gamma=2")

    def test_unknown_penalty_rejected(self):
        with pytest.raises(ValueError, match="unknown penalty"):
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
        with pytest.raises(ValueError, match="unknown loss parameter"):
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
        assert cfg.train == {"epochs": 6, "batch_size": 32, "peak_lr": 0.05}
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

    def test_unknown_key_rejected(self, tmp_path):
        bad = GOOD_INI.replace("peak_lr = 0.05", "peak_lr = 0.05\nlr_decay = 2")
        with pytest.raises(ValueError, match=r"unknown key 'lr_decay' in \[train\]"):
            load_config(write_ini(tmp_path, bad))

    def test_missing_required_key_rejected(self, tmp_path):
        bad = GOOD_INI.replace("epochs = 6\n", "")
        with pytest.raises(ValueError, match=r"\[train\] is missing required key"):
            load_config(write_ini(tmp_path, bad))

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
        ("hidden = 16, 16", "hidden = 16, 0", "hidden widths must be >= 1"),
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
    ])
    def test_bad_train_or_model_value_rejected(self, tmp_path, good, bad, match):
        with pytest.raises(ValueError, match=match):
            load_config(write_ini(tmp_path, GOOD_INI.replace(good, bad)))

    def test_weight_decay_key_renamed_for_trainer(self, tmp_path):
        ini = GOOD_INI.replace("peak_lr = 0.05", "peak_lr = 0.05\nweight_decay = 0.99")
        cfg = load_config(write_ini(tmp_path, ini))
        assert cfg.train["weight_decay_product"] == 0.99
        assert "weight_decay" not in cfg.train

    def test_missing_losses_rejected(self, tmp_path):
        bad = GOOD_INI.split("[losses]")[0]
        with pytest.raises(ValueError, match=r"missing \[losses\]"):
            load_config(write_ini(tmp_path, bad))

    def test_unknown_analysis_rejected(self, tmp_path):
        bad = GOOD_INI.replace("separation, calibration", "separation, vibes")
        with pytest.raises(ValueError, match="unknown analysis 'vibes'"):
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
            train={"epochs": 1, "batch_size": 8, "peak_lr": 0.1},
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

    def test_all_analyses_accepted(self):
        cfg = ExperimentConfig(**{**self.base_kwargs(), "analyses": ANALYSES})
        assert cfg.analyses == ANALYSES


class TestDatasetConfig:
    def test_blobs_defaults(self):
        ds = DatasetConfig(kind="blobs")
        assert ds.classes >= 2 and ds.per_class >= 1

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="dataset kind"):
            DatasetConfig(kind="imagenet")

    def test_csv_needs_paths(self):
        with pytest.raises(ValueError, match="path"):
            DatasetConfig(kind="csv")

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError, match="spread"):
            DatasetConfig(kind="blobs", spread=-1.0)
