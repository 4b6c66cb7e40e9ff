import json
from importlib import resources

import pytest
from hypothesis import settings

from spdclab import crystal
from spdclab.cli import dataset_from_dict, ledger_from_dict

# the same examples on every run, whatever an earlier run found
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def shipped(name: str) -> dict:
    with resources.files("spdclab.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def reconstruction_dataset():
    return dataset_from_dict(shipped("tenfold_run_reconstruction.counts.json"))


@pytest.fixture(scope="session")
def trial_ledger():
    return ledger_from_dict(shipped("tenfold_trial_ledger.json"))


@pytest.fixture(scope="session")
def bbo():
    return crystal.load_crystal("bbo")


@pytest.fixture(scope="session")
def bibo():
    return crystal.load_crystal("bibo")


@pytest.fixture(scope="session")
def bibo_arms(bibo):
    return crystal.noncollinear_arms(bibo, bibo.reference_cut)
