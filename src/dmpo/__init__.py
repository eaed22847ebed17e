"""One-step generative control policies at desk scale.

Stage 1 pre-trains a mean-velocity flow network whose single forward pass
maps noise to an action, with batch-repulsion regularization on the
observation embedding to keep representations from collapsing. Stage 2
fine-tunes the one-step policy with PPO over its denoising chain plus
behavior-cloning regularization. Built-in toy tasks, scripted experts,
exact NFE accounting, and a CLI cover the full pipeline.
"""

from .autodiff import DualTensor, Graph, Tensor, jvp
from .dispersive import cov_loss, dispersive_loss, effective_rank, hinge, nce_cos, nce_l2
from .envs import Dataset, EvalResult, ModalBandit, PointReach, evaluate, gen_demos, make_env
from .io import load_checkpoint, load_dataset, save_checkpoint, save_dataset
from .meanflow import Stage1Config, interpolate, mf_loss, pretrain, target_velocity
from .nets import Adam, ValueNet, VelocityNet, init_value_net, init_velocity_net, predict_velocity
from .ppo import Stage2Config, bc_loss, bc_schedule, clipped_pg_loss, finetune, gae, ppo_ratio, value_loss
from .sampler import (
    DenoiseChain,
    chain_logprob,
    flow_times,
    policy_entropy,
    sample_deterministic,
    sample_stochastic,
    step_entropy,
)

__version__ = "0.1.0"
