"""Disentangled mixture-of-forecasters for multivariate time series.

A compact framework in which several channel-independent backbones
specialise on heterogeneous channel dynamics: a cross-attention gate routes
each channel over the experts, every expert is distilled each step into a
linear signature by pseudo-inverse regression, an EMA registry of those
signatures conditions the gate, and a contrast term keeps the signatures
apart. Built on a self-contained float64 reverse-mode autodiff core.
"""

from . import backbones, checkpoint, cli, datakit, gating, lwa, numcore, objectives, pipeline
from .backbones import Backbone, BackboneConfig
from .datakit import (GroupSpec, SeriesDataset, WindowSpec, load_csv, make_windows,
                      routing_purity, save_csv, split_standardize, synth_generate)
from .errors import (ConfigError, ContractError, DisentsError, NumericError, ParseError,
                     ShapeError)
from .gating import GateConfig, GateParams, route
from .lwa import EmaRegistry, LwaConfig, approximate, select_top_k
from .numcore import AdamState, DiffRecord, Tensor, adam_step, backward, grad_check, pinv
from .objectives import LossConfig, mse_loss, similarity_constraint, total_loss
from .pipeline import (DisenTSModel, FitResult, Metrics, ModelConfig, TrainConfig, evaluate, fit,
                       forward, mean_routing, train_step, unified_baseline)

__version__ = "0.1.0"
