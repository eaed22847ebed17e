"""The per-step training, rollout, serving and demonstration paths call
ufuncs and ndarray methods, not numpy's Python-level wrappers: on arrays of
dmpo's size each wrapper call costs a few microseconds more than the ufunc
or method giving the same bits.

The check reads each function's source tree, nested closures (VJPs)
included, so a wrapper call that comes back fails here with its function and
line. The plain-array inference path also stays off the tape layer: it
calls the ``kernels`` layers, makes no autodiff op output (every Tensor op
makes its output in ``autodiff._emit``) and records nothing.
"""

import ast
import inspect

import numpy as np
import pytest

from dmpo import autodiff, dispersive, envs, kernels, meanflow, nets, ppo, sampler
from dmpo.autodiff import Graph, Tensor

WRAPPERS = frozenset({
    "all", "any", "sum", "max", "min", "mean", "clip", "broadcast_to",
    "ones_like", "zeros_like", "atleast_2d", "fill_diagonal",
})

# every function that runs at least once per pre-train step, fine-tune
# minibatch, rollout step or demonstration step
HOT = {
    autodiff: [
        "Graph.backward", "Graph._record", "_check_finite", "_split", "_emit", "custom_op", "weighted_sum",
        "loss_head", "row_sq_mean", "_linear", "reshape", "_blocks", "concat", "split_rows",
    ],
    dispersive: ["hinge"],
    envs: ["_fma", "_checked_action", "PointReach.step", "_point_reach_expert_action"],
    meanflow: ["Stage1Batch.__post_init__", "sample_time_pairs", "interpolate", "target_velocity", "mf_loss",
               "stage1_step", "pretrain"],
    nets: ["_checked", "_layer_vjp", "VelocityNet.encode", "VelocityNet.encode_vjp", "VelocityNet.velocity",
           "VelocityNet.velocity_vjp", "ValueNet.value", "ValueNet.value_vjp",
           "Adam.step", "clip_grad_norm"],
    kernels: ["adam_update", "affine", "affine_tanh", "gae_backward"],
    ppo: ["ppo_ratio", "clipped_pg_loss", "value_loss", "bc_target", "bc_loss", "_learned_sigma_entropy",
          "_sigma", "_trunk_rows", "stage2_loss", "stage2_step", "collect_rollouts", "gae", "compute_advantages",
          "finetune"],
    sampler: ["check_K", "flow_times", "_flow_times", "_sigma_vector", "_log_norm", "_logpdf_rows",
              "sample_deterministic", "sample_chain_batch", "_chain_logpdf", "chain_logprob_traced"],
}


def _functions(tree):
    """Qualified name -> FunctionDef for module-level functions and methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def wrapper_calls(fn: ast.FunctionDef):
    """(line, name) of each ``np.<wrapper>(...)`` call inside ``fn``."""
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr in WRAPPERS
    ]


@pytest.mark.parametrize("module", list(HOT), ids=lambda m: m.__name__)
def test_per_step_functions_call_no_numpy_wrappers(module):
    path = inspect.getsourcefile(module)
    functions = _functions(ast.parse(open(path).read()))
    bad = []
    for name in HOT[module]:
        assert name in functions, f"{module.__name__}.{name} not found"
        bad += [f"{module.__name__}.{name} line {line}: np.{w}" for line, w in wrapper_calls(functions[name])]
    assert not bad, "numpy wrapper calls on a per-step path:\n" + "\n".join(bad)


def test_wrapper_check_sees_closures_and_ignores_ufuncs():
    src = (
        "def f(x):\n"
        "    y = np.maximum(x, 0.0).sum()\n"
        "    def vjp(g):\n"
        "        return np.broadcast_to(g, x.shape)\n"
        "    return np.clip(y, 0, 1), vjp\n"
    )
    fn = _functions(ast.parse(src))["f"]
    assert sorted(wrapper_calls(fn)) == [(4, "broadcast_to"), (5, "clip")]


def _traced_velocity(net, z, r, tau, h):
    B = z.shape[0]
    return net.velocity(Tensor(z), Tensor(np.full((B, 1), r)), Tensor(np.full((B, 1), tau)), h=h).data


def _emit_called(*args, **kwargs):
    raise AssertionError("an autodiff op ran on the plain-array path")


@pytest.mark.parametrize("B", [1, 8])
def test_plain_array_path_skips_dense_tapes_nothing_and_equals_traced_forward(monkeypatch, B):
    net = nets.init_velocity_net(5, 4, 2)
    value_net = nets.init_value_net(6, 4)
    rng = np.random.default_rng(B)
    obs = rng.normal(size=(B, 4))
    z1 = rng.normal(size=(B, 2))
    K_chain, sigma = 3, 0.3
    chain_seeds = [100 + e for e in range(B)]

    # the traced forwards, through the autodiff ops, first: one action per
    # observation row as a (1, d) walk, and the batched chain, BC target and
    # values
    h = net.encode(Tensor(obs))
    actions = {}
    for K in (1, 5):
        for i in range(B):
            z = np.random.default_rng(10 * K + i).standard_normal((1, 2))
            h_row = net.encode(Tensor(obs[i : i + 1]))
            for k in range(K):
                z = z - _traced_velocity(net, z, (K - k - 1) / K, (K - k) / K, h_row) * (1.0 / K)
            actions[K, i] = z[0]
    noise = np.stack([np.random.default_rng(s).standard_normal((K_chain + 1, 2)) for s in chain_seeds])
    a, means = noise[:, 0], []
    for k in range(K_chain):
        mu = a - (1.0 / K_chain) * _traced_velocity(net, a, (K_chain - k - 1) / K_chain, (K_chain - k) / K_chain, h)
        a = mu + sigma * noise[:, k + 1]
        means.append(mu)
    bc_want = z1 - _traced_velocity(net, z1, 0.0, 1.0, h)
    values_want = value_net.value(Tensor(obs)).data

    monkeypatch.setattr(autodiff, "_emit", _emit_called)
    with Graph() as g:
        for (K, i), want in actions.items():
            got, nfe = sampler.sample_deterministic(net, obs[i], K, np.random.default_rng(10 * K + i))
            assert nfe == K and got.shape == (2,)
            np.testing.assert_array_equal(got, want)
        chains = sampler.sample_chain_batch(net, obs, K_chain, sigma, [np.random.default_rng(s) for s in chain_seeds])
        np.testing.assert_array_equal(chains.means, np.stack(means, axis=1))
        np.testing.assert_array_equal(chains.states[:, -1], a)
        h_arr = net.encode_arrays(obs)
        np.testing.assert_array_equal(h_arr, h.data)
        np.testing.assert_array_equal(ppo.bc_target(net, z1, h_arr), bc_want)
        values = value_net.value(obs)
        assert type(values) is np.ndarray and values.shape == (B,)
        np.testing.assert_array_equal(values, values_want)
    assert not g.nodes
