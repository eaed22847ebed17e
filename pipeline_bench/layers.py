"""Which dmpo functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each target names the attribute the caller resolves at call time: a module
global for functions called by name inside dmpo (``pretrain`` looks up
``dmpo.meanflow.dispersive_loss``; ``collect_rollouts`` looks up
``dmpo.ppo.sample_chain_batch``), a class attribute for methods. Times are
self times per call. Counts are per optimizer step, per fine-tune iteration
or per served episode, and are taken from the first traced unit, whose work
the seed fixes, so they repeat exactly.
"""

from __future__ import annotations

import numpy as np

from tracer import merged_summary


def _tape_nodes(tr, idx, args, kwargs, out):
    tr.counts["tape_nodes"] += len(args[0].nodes)


def _jvp_rows(tr, idx, args, kwargs, out):
    # target_velocity(net, z, r, tau, obs, v): rows with r == tau have a zero
    # correction term, so their dual pass is wasted work
    r, tau = np.ravel(args[2]), np.ravel(args[3])
    tr.counts["jvp_rows"] += r.size
    tr.counts["jvp_useful_rows"] += int(np.sum(r < tau))


def _clip_rows(tr, idx, args, kwargs, out):
    # clipped_pg_loss(rho, adv, clip_eps): the gradient of a row is zero when
    # the clipped branch wins and the clip is active
    rho = np.ravel(getattr(args[0], "data", args[0]))
    adv = np.ravel(getattr(args[1], "data", args[1]))
    eps = float(args[2])
    zero = ((adv > 0) & (rho > 1.0 + eps)) | ((adv < 0) & (rho < 1.0 - eps))
    tr.counts["pg_rows"] += rho.size
    tr.counts["pg_zero_grad_rows"] += int(np.sum(zero))


def _k(tr, idx, args, kwargs, out):
    tr.span_k[idx] = int(args[2])  # sample_deterministic / sample_chain_batch(net, obs, K, ...)


SAMPLER_SPANS = ("sampler.deterministic", "sampler.chain_batch")

# (owner, attribute, span name, note)
TARGETS = [
    ("dmpo.autodiff.Graph", "backward", "autodiff.backward", _tape_nodes),
    ("dmpo.meanflow", "target_velocity", "meanflow.target_velocity", _jvp_rows),
    ("dmpo.meanflow", "mf_loss", "meanflow.mf_loss", None),
    ("dmpo.meanflow", "dispersive_loss", "dispersive.loss", None),
    ("dmpo.meanflow", "effective_rank", "dispersive.effective_rank", None),
    ("dmpo.nets.Adam", "step", "nets.adam_step", None),
    ("dmpo.ppo", "clip_grad_norm", "nets.clip_grad_norm", None),
    ("dmpo.nets.VelocityNet", "encode", "nets.encode", None),
    ("dmpo.nets.VelocityNet", "velocity", "nets.velocity", None),
    ("dmpo.nets.VelocityNet", "encode_arrays", "nets.encode_arrays", None),
    ("dmpo.nets.VelocityNet", "velocity_arrays", "nets.velocity_arrays", None),
    ("dmpo.sampler", "sample_deterministic", "sampler.deterministic", _k),
    ("dmpo.envs", "sample_deterministic", "sampler.deterministic", _k),
    ("dmpo.ppo", "sample_chain_batch", "sampler.chain_batch", _k),
    ("dmpo.ppo", "collect_rollouts", "ppo.collect", None),
    ("dmpo.ppo", "compute_advantages", "ppo.gae", None),
    ("dmpo.ppo", "stage2_loss", "ppo.loss", None),
    ("dmpo.ppo", "chain_logprob_traced", "ppo.chain_logprob", None),
    ("dmpo.ppo", "bc_loss", "ppo.bc_loss", None),
    ("dmpo.ppo", "clipped_pg_loss", "ppo.clipped_pg", _clip_rows),
    ("dmpo.envs.PointReach", "step", "envs.step", None),
    ("dmpo.envs.PointReach", "reset", "envs.reset", None),
    ("dmpo.kernels", "adam_update", "kernels.adam_update", None),
    ("dmpo.kernels", "affine_tanh", "kernels.affine_tanh", None),
    ("dmpo.kernels", "gae_backward", "kernels.gae_backward", None),
    ("dmpo.io", "load_checkpoint", "io.load_checkpoint", None),
    ("dmpo.io", "save_checkpoint", "io.save_checkpoint", None),
]

# per-layer metric -> (unit, span whose calls it is measured over)
PER_LAYER = {
    "autodiff.backward_ms": ("ms", "autodiff.backward"),
    "autodiff.tape_nodes": ("count", "autodiff.backward"),
    "meanflow.target_velocity_ms": ("ms", "meanflow.target_velocity"),
    "meanflow.mf_loss_ms": ("ms", "meanflow.mf_loss"),
    "meanflow.jvp_useful_frac": ("frac", "meanflow.target_velocity"),
    "dispersive.loss_ms": ("ms", "dispersive.loss"),
    "dispersive.effective_rank_ms": ("ms", "dispersive.effective_rank"),
    "nets.adam_step_ms": ("ms", "nets.adam_step"),
    "nets.clip_grad_norm_ms": ("ms", "nets.clip_grad_norm"),
    "nets.encode_calls": ("count", "nets.encode"),
    "nets.velocity_calls": ("count", "nets.velocity"),
    "nets.encode_arrays_us": ("us", "nets.encode_arrays"),
    "nets.velocity_arrays_us": ("us", "nets.velocity_arrays"),
    "sampler.deterministic_us": ("us", "sampler.deterministic"),
    "sampler.nfe_per_action": ("count", "nets.velocity_arrays"),
    "sampler.chain_batch_ms": ("ms", "sampler.chain_batch"),
    "ppo.collect_ms": ("ms", "ppo.collect"),
    "ppo.gae_ms": ("ms", "ppo.gae"),
    "ppo.loss_ms": ("ms", "ppo.loss"),
    "ppo.chain_logprob_ms": ("ms", "ppo.chain_logprob"),
    "ppo.bc_loss_ms": ("ms", "ppo.bc_loss"),
    "ppo.clip_frac": ("frac", "ppo.clipped_pg"),
    "envs.step_us": ("us", "envs.step"),
    "envs.steps": ("count", "envs.step"),
    "envs.resets": ("count", "envs.reset"),
    "kernels.adam_update_us": ("us", "kernels.adam_update"),
    "kernels.affine_tanh_us": ("us", "kernels.affine_tanh"),
    "kernels.gae_backward_us": ("us", "kernels.gae_backward"),
    "io.load_checkpoint_ms": ("ms", "io.load_checkpoint"),
    "io.save_checkpoint_ms": ("ms", "io.save_checkpoint"),
    "tracing.overhead_frac": ("frac", None),
}

_SCALE = {"ms": 1e6, "us": 1e3}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def nfe_mismatches(tracer) -> int:
    """Sampler calls whose velocity evaluations differ from the K requested."""
    nfe = tracer.child_counts(SAMPLER_SPANS, "nets.velocity_arrays")
    return sum(1 for idx, n in nfe.items() if idx in tracer.span_k and n != tracer.span_k[idx])


def layer_metrics(tracers, setup_tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric as (value, unit); 0 for a layer no span reached."""
    times = merged_summary(tracers)
    times.update({k: v for k, v in setup_tracer.summary().items() if k.startswith("io.")})
    first = tracers[0]
    calls = {name: c for name, (c, _) in first.summary().items()}
    steps = calls.get("nets.adam_step", 0)
    # envs counts are per fine-tune iteration where there are iterations,
    # else per served episode
    env_basis = calls.get("ppo.collect", 0) or calls.get("envs.reset", 0)
    nfe = first.child_counts(SAMPLER_SPANS, "nets.velocity_arrays")
    k1 = [n for idx, n in nfe.items() if first.span_k.get(idx) == 1]
    counts = {
        "autodiff.tape_nodes": _ratio(first.counts["tape_nodes"], calls.get("autodiff.backward", 0)),
        "meanflow.jvp_useful_frac": _ratio(first.counts["jvp_useful_rows"], first.counts["jvp_rows"]),
        "nets.encode_calls": _ratio(calls.get("nets.encode", 0), steps),
        "nets.velocity_calls": _ratio(calls.get("nets.velocity", 0), steps),
        "sampler.nfe_per_action": _ratio(sum(k1), len(k1)),
        "ppo.clip_frac": _ratio(first.counts["pg_zero_grad_rows"], first.counts["pg_rows"]),
        "envs.steps": _ratio(calls.get("envs.step", 0), env_basis),
        "envs.resets": _ratio(calls.get("envs.reset", 0), env_basis),
        "tracing.overhead_frac": overhead_frac,
    }
    out = {}
    for metric, (unit, span) in PER_LAYER.items():
        if metric in counts:
            out[metric] = (float(counts[metric]), unit)
        else:
            n, ns = times.get(span, (0, 0.0))
            out[metric] = (_ratio(ns, n) / _SCALE[unit], unit)
    return out
