"""Invariances of serving and training that no output may lose: a window's
forecast does not depend on the batch it is served in, and a run does not
depend on OpenBLAS's thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disents
from disents.backbones import KINDS, BackboneConfig
from disents.gating import GateConfig
from disents.numcore import AdamState
from disents.pipeline import DisenTSModel, ModelConfig, train_rng, train_step

LOOKBACK, HORIZON = 12, 6


@pytest.fixture(scope="module")
def stepped_models():
    """A K=4 model of each backbone kind after three train steps."""
    models = {}
    for kind in KINDS:
        config = ModelConfig(4, BackboneConfig(kind, LOOKBACK, HORIZON, hidden=9,
                                               decomp_kernel=5),
                             gate=GateConfig(embed_dim=8, heads=2))
        model = DisenTSModel(config, seed=5)
        rng = np.random.default_rng(5)
        opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-2)
        for _ in range(3):
            train_step(model, rng.normal(size=(8, 3, LOOKBACK)),
                       rng.normal(size=(8, 3, HORIZON)), opt, train_rng(5))
        models[kind] = model
    return models


def _assert_served_alike(model, x, index):
    """Window `index` of `x` forecast alone against its row of the whole
    batch: the same bits when it has two or more channels. A one-channel
    window alone runs one-row products, which OpenBLAS gives other last
    bits, so it is held to 1e-14 of the window's largest forecast."""
    alone = model.predict(x[index:index + 1])[0]
    in_batch = model.predict(x)[index]
    if x.shape[1] >= 2:
        assert alone.tobytes() == in_batch.tobytes()
    else:
        assert np.abs(alone - in_batch).max() <= 1e-14 * np.abs(alone).max()


@settings(max_examples=100)
@given(kind=st.sampled_from(KINDS), threads=st.sampled_from(["1", "2"]),
       batch=st.integers(1, 300), channels=st.integers(1, 64), data=st.data())
def test_a_window_forecasts_alike_alone_and_in_any_batch(stepped_models, kind, threads,
                                                          batch, channels, data):
    x = np.random.default_rng(batch * 100 + channels).normal(size=(batch, channels, LOOKBACK))
    index = data.draw(st.integers(0, batch - 1), label="index")
    with mock.patch.dict(os.environ, {"DISENTS_THREADS": threads}):
        _assert_served_alike(stepped_models[kind], x, index)


@pytest.mark.parametrize("kind", KINDS)
def test_a_window_of_3000_channels_forecasts_alike_alone_and_in_a_batch(stepped_models,
                                                                        kind, monkeypatch):
    """Each chunk of the batch holds one window here, so the pool forecasts
    the windows side by side."""
    x = np.random.default_rng(3000).normal(size=(3, 3000, LOOKBACK))
    monkeypatch.setenv("DISENTS_THREADS", "2")
    for index in range(3):
        _assert_served_alike(stepped_models[kind], x, index)


_HASH_RUN = """
import hashlib, json
import numpy as np
from disents.backbones import BackboneConfig
from disents.numcore import AdamState
from disents.pipeline import DisenTSModel, ModelConfig, train_rng, train_step

def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()

out = {}
for kind, lookback, horizon, channels in [("linear", 48, 24, 8), ("decomp-linear", 96, 96, 4),
                                          ("mlp", 48, 24, 8)]:
    model = DisenTSModel(ModelConfig(4, BackboneConfig(kind, lookback, horizon)), seed=2)
    rng = np.random.default_rng(2)
    opt = AdamState.for_params([t for _, t in model.named_parameters()], lr=1e-3)
    steps = [train_step(model, rng.normal(size=(16, channels, lookback)),
                        rng.normal(size=(16, channels, horizon)), opt, train_rng(2))
             for _ in range(3)]
    out[kind] = {"losses": digest([(s.l_fc, s.l_sc, s.total) for s in steps]),
                 "epsilons": digest([s.epsilons for s in steps]),
                 "forecast": digest(model.predict(rng.normal(size=(256, channels, lookback)))),
                 **{name: digest(a) for name, a in model.arrays().items()}}
print(json.dumps(out))
"""


def test_a_run_gives_the_same_bits_at_one_and_two_blas_threads():
    """Three K=4 train steps and a B=256 `predict` at three shapes, each
    thread count in its own process, so OpenBLAS reads it at load."""
    src = str(Path(disents.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "DISENTS_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _HASH_RUN], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        hashes.append(json.loads(proc.stdout))
    assert hashes[0] == hashes[1]
