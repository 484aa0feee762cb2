"""Unit-convention constants."""

from repro import units


def test_epoch_is_fifteen_minutes():
    assert units.EPOCH_SECONDS == 15 * 60


def test_substep_is_two_minutes():
    assert units.SUBSTEP_SECONDS == 2 * 60


def test_training_run_is_ten_minutes():
    assert units.TRAINING_RUN_SECONDS == 10 * 60


def test_training_run_shorter_than_epoch():
    # Section IV-B.2: the training run fits inside one scheduling epoch.
    assert units.TRAINING_RUN_SECONDS < units.EPOCH_SECONDS


def test_epochs_per_day():
    assert units.EPOCHS_PER_DAY == 96


def test_minutes():
    assert units.minutes(2) == 120


def test_seconds_per_day_consistency():
    assert units.SECONDS_PER_DAY == units.HOURS_PER_DAY * units.SECONDS_PER_HOUR
