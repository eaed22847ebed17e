"""The per-step training, rollout and demonstration paths call ufuncs and
ndarray methods, not numpy's Python-level wrappers: on arrays of dmpo's size
each wrapper call costs a few microseconds more than the ufunc or method
giving the same bits.

The check reads each function's source tree, nested closures (VJPs)
included, so a wrapper call that comes back fails here with its function and
line.
"""

import ast
import inspect

import pytest

from dmpo import autodiff, dispersive, envs, kernels, meanflow, nets, ppo, sampler

WRAPPERS = frozenset({
    "all", "any", "sum", "max", "min", "mean", "clip", "broadcast_to",
    "ones_like", "zeros_like", "atleast_2d", "fill_diagonal",
})

# every function that runs at least once per pre-train step, fine-tune
# minibatch, rollout step or demonstration step
HOT = {
    autodiff: [
        "Graph.backward", "_check_finite", "_emit", "_output", "custom_op", "weighted_sum",
        "row_sq_mean", "concat", "split_rows", "dense", "_dense_node",
    ],
    dispersive: ["hinge"],
    envs: ["PointReach.step", "_point_reach_expert_action"],
    meanflow: ["sample_time_pairs", "target_velocity", "mf_loss", "pretrain"],
    nets: ["VelocityNet.encode", "VelocityNet.velocity", "ValueNet.value", "Adam.gather", "Adam.step",
           "clip_grad_norm"],
    kernels: ["adam_update", "affine", "affine_tanh"],
    ppo: ["ppo_ratio", "clipped_pg_loss", "value_loss", "bc_target", "bc_loss", "stage2_loss",
          "collect_rollouts", "finetune"],
    sampler: ["_sigma_vector", "_log_norm", "_logpdf_rows", "sample_chain_batch", "_transition_logpdf",
              "chain_logprob_traced"],
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
