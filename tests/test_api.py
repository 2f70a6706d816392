"""Guards on the public surface: exports resolve and the demos run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selmerlab as sl
from selmerlab import errors

MODULES = ("distributions", "lagrangian", "twists", "fans", "disparity")
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"selmerlab.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_resolve():
    # every package-level name is a module's public name, as the same object
    # errors has no __all__: every exception class in it is public
    exported = {a: v for a, v in vars(errors).items() if isinstance(v, type)}
    for name in MODULES:
        module = importlib.import_module(f"selmerlab.{name}")
        exported.update({attr: getattr(module, attr) for attr in module.__all__})
    public = [
        attr for attr, value in vars(sl).items()
        if not attr.startswith("_") and not isinstance(value, type(sl))
    ]
    assert public
    for attr in public:
        assert attr in exported, attr
        assert getattr(sl, attr) is exported[attr], attr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(Path(sl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_nan_rejected_by_library_guards():
    # NaN fails every `x < bound` test, so each guard is an in-range test
    nan = float("nan")
    rate = sl.ConvergenceRate("power", 1.0, 2.0)
    with pytest.raises(sl.NegativeEntry):
        sl.make_density([nan, 1.0])
    with pytest.raises(sl.ValidationError):
        sl.ConvergenceRate("power", nan)
    with pytest.raises(sl.ValidationError):
        sl.strat_bounds(rate, 2, nan)
    with pytest.raises(sl.ValidationError):
        sl.TStepSampler(2, nan)
    with pytest.raises(sl.DegenerateConfig):
        sl.StreamConfig((nan, 0.5, 0.5))
    with pytest.raises(sl.DegenerateConfig, match="growth_rate"):
        sl.synth_prime_stream(sl.StreamConfig(growth_rate=nan), 10.0)
    with pytest.raises(sl.DisparityOutOfRange):
        sl.initial_from_disparity(nan, 8)
    with pytest.raises(sl.DisparityOutOfRange):
        sl.limit_distribution(nan, 2)


def test_negative_seed_rejected_at_construction():
    with pytest.raises(sl.DegenerateConfig, match="seed"):
        sl.StreamConfig(seed=-1)
    with pytest.raises(sl.ValidationError, match="seed"):
        sl.TStepSampler(2, 10.0, seed=-1)


@pytest.mark.parametrize("seed", [2.5, True, "3"])
def test_stream_config_rejects_a_non_int_seed(seed):
    # numpy would only reject it later, inside synth_prime_stream
    with pytest.raises(sl.DegenerateConfig, match="seed must be an int >= 0"):
        sl.StreamConfig(seed=seed)


@pytest.mark.parametrize("seed", [2.5, True, "3"])
def test_sampler_rejects_a_non_int_seed(seed):
    # numpy would only reject it later, at the sampler's first row
    with pytest.raises(sl.ValidationError, match="seed must be an int >= 0"):
        sl.TStepSampler(2, 100.0, seed=seed)
    assert sl.TStepSampler(2, 100.0, seed=np.int64(3)).seed == 3
