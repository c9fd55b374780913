"""Pedestrian trajectory forecasting in shared urban spaces.

A numpy-only pipeline: trajectory ingestion and windowing, three-channel
context features (offsets, polar interaction grid, k-NN map semantics), an
encoder/decoder transformer with its own reverse-mode tape, Adam training,
ADE/RMSE evaluation against a constant-velocity Kalman baseline, and a
synthetic scenario generator for desk-scale experiments.
"""

from .autodiff import Tensor, backward
from .data import AgentTrack, TrajectoryWindow, WindowConfig
from .errors import ConfigError, DataError, DivergenceError
from .evaluation import MetricsTable, ade, cv_kalman_predict, rmse
from .features import (FeatureStats, PolarGridConfig, SemanticConfig, build_features,
                       compute_offsets, polar_occupancy, semantic_histogram)
from .maps import SEMANTIC_LABELS, SceneMap, load_scene_map
from .model import (ModelConfig, ModelParams, load_checkpoint, positional_encoding,
                    predict_autoregressive, save_checkpoint, teacher_forced_offsets)
from .training import AdamState, TrainConfig, adam_step, l2_loss, train, verify_gradients

__version__ = "0.1.0"
