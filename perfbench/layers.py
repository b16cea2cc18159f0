"""Where the benchmark wraps modfield, and the per-layer numbers it reads.

Each wrapper records a span around calls into one public function of one
module.  A wrapper is installed on every name a caller looks the function
up by: ``training`` imports ``adaptive_flow_batch`` by name, and
``bench_cli`` imports ``reference_trajectory``, ``integrate`` and
``dopri5_integrate`` by name, so patching the defining module alone would
miss those calls.
"""

import math
from contextlib import contextmanager

import numpy as np

from modfield import (_tape, bench_cli, integrators, jets, modified_field,
                      neural, systems, training)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(y):
    return math.prod(np.shape(y)[:-1])


def _field_rows(args, kwargs, result):  # (self, y, h)
    return {"rows": _rows(_arg(args, kwargs, 1, "y"))}


def _segments(args, kwargs, result):  # (field, y0, times, tol)
    times = np.asarray(_arg(args, kwargs, 2, "times"))
    # the adaptive solver restarts once per output time past t = 0
    return {"segments": int(np.count_nonzero(np.diff(times, prepend=0.0)))}


def _flow_rows(args, kwargs, result):  # (field, y0, t_end, ...)
    y0 = np.atleast_2d(_arg(args, kwargs, 1, "y0"))
    return {"rows": y0.shape[0],
            "failed_rows": int(np.count_nonzero(~result[1]))}


def _field_kind(args, kwargs, result):  # (tab, field, y, h)
    field = _arg(args, kwargs, 1, "field")
    kind = type(field).__name__
    if hasattr(field, "k"):
        kind += f"_k{field.k}"
    return {"field": kind}


def _batch_records(args, kwargs, result):  # (model, scheme, batch)
    return {"records": len(_arg(args, kwargs, 2, "batch"))}


def _dataset(args, kwargs, result):
    return {"records": len(result), "resampled": result.resampled}


def _bindings():
    """(span name, [(owner, attribute)], measure) for every wrapped call."""
    return [
        ("systems.field_eval", [(systems.VectorFieldSpec, "__call__")],
         _field_rows),
        ("systems.reference_trajectory",
         [(systems, "reference_trajectory"),
          (bench_cli, "reference_trajectory")], _segments),
        ("integrators.adaptive_flow_batch",
         [(integrators, "adaptive_flow_batch"),
          (training, "adaptive_flow_batch")], _flow_rows),
        ("integrators.rk_step", [(integrators, "rk_step")], _field_kind),
        ("integrators.implicit_midpoint_step",
         [(integrators, "implicit_midpoint_step")], None),
        ("integrators.integrate",
         [(integrators, "integrate"), (bench_cli, "integrate")], None),
        ("integrators.dopri5_integrate",
         [(integrators, "dopri5_integrate"), (bench_cli, "dopri5_integrate")],
         None),
        ("modified_field.trunc_eval",
         [(modified_field.TruncatedModifiedField, "__call__")], None),
        ("jets.dd_components", [(jets, "dd_components")], None),
        ("neural.step_loss_and_grad", [(neural, "step_loss_and_grad")],
         _batch_records),
        ("neural.tape_backward", [(_tape, "backward")], None),
        ("neural.adam_update", [(neural, "adam_update")], None),
        ("neural.step_loss", [(neural, "step_loss")], _batch_records),
        ("neural.model_eval", [(neural.ModifiedFieldModel, "eval")],
         _field_rows),
        ("neural.mlp_forward", [(neural, "mlp_forward")], None),
        ("training.generate_dataset", [(training, "generate_dataset")],
         _dataset),
        ("training.save_dataset", [(training, "save_dataset")], None),
        ("training.build_alt_training_data",
         [(training, "build_alt_training_data")], None),
        ("training.train", [(training, "train")], None),
        ("training.alt_train", [(training, "alt_train")], None),
        ("bench_cli.generate", [(bench_cli, "cmd_generate")], None),
        ("bench_cli.compare_alt", [(bench_cli, "cmd_compare_alt")], None),
        ("bench_cli.convergence", [(bench_cli, "cmd_convergence")], None),
        ("bench_cli.efficiency", [(bench_cli, "cmd_efficiency")], None),
    ]


class _CountingRng:
    """Passes ``uniform`` through to a generator and counts the draws."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def uniform(self, *args, **kwargs):
        self.draws += 1
        return self.rng.uniform(*args, **kwargs)


@contextmanager
def installed(tracer):
    """Wrap every binding for the duration of the block, then restore it.

    The domain sampler ``training._draw_state`` gets a counter instead of a
    span: it is private, and the numbers it feeds (states kept against
    uniform draws) matter, not its time.
    """
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    draw_state = training._draw_state

    def counted_draw_state(rng, box):
        counter = _CountingRng(rng)
        state = draw_state(counter, box)
        tracer.counts["sampler.draws"] += counter.draws
        tracer.counts["sampler.states"] += 1
        return state

    try:
        for name, owners, measure in _bindings():
            fn = owners[0][0].__dict__[owners[0][1]]
            wrapped = tracer.wrap(name, fn, measure)
            for owner, attr in owners:
                patch(owner, attr, wrapped)
        patch(training, "_draw_state", counted_draw_state)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# fields reported per wrapped layer; names are "<layer>.<field>"
FIELDS = {
    "systems.field_eval": ("calls", "s", "rows_per_call"),
    "systems.reference_trajectory": ("calls", "s", "segments"),
    "integrators.adaptive_flow_batch":
        ("calls", "s", "rows", "rows_per_call", "failed_rows"),
    "integrators.rk_step": ("calls", "s", "us_per_call"),
    "integrators.implicit_midpoint_step": ("calls", "s"),
    "integrators.integrate": ("self_s",),
    "integrators.dopri5_integrate": ("s",),
    "modified_field.trunc_eval": ("calls", "s"),
    "jets.dd_components": ("calls", "s"),
    "neural.step_loss_and_grad": ("calls", "s", "records"),
    "neural.tape_backward": ("calls", "s"),
    "neural.adam_update": ("calls", "s", "us_per_call"),
    "neural.step_loss": ("calls", "s", "records"),
    "neural.model_eval": ("calls", "s", "rows_per_call"),
    "neural.mlp_forward": ("calls", "s"),
    "training.generate_dataset": ("s", "self_s"),
    "training.save_dataset": ("s",),
    "training.build_alt_training_data": ("s", "self_s"),
    "training.train": ("s", "self_s", "eval_share"),
    "training.alt_train": ("s", "self_s"),
    "bench_cli.generate": ("s", "self_s"),
    "bench_cli.compare_alt": ("s", "self_s"),
    "bench_cli.convergence": ("s", "self_s"),
    "bench_cli.efficiency": ("s", "self_s"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tree, counts, rounds):
    """Per-layer numbers from one traced window of ``rounds`` workload rounds.

    Counts and times are per round, so they do not depend on how many
    rounds fit in the window.
    """
    out = {}
    for layer, fields in FIELDS.items():
        calls = tree.calls(layer)
        for field in fields:
            if field == "calls":
                value = calls / rounds
            elif field == "s":
                value = tree.total(layer) / rounds
            elif field == "self_s":
                value = tree.self_total(layer) / rounds
            elif field == "rows_per_call":
                value = _ratio(tree.attr_sum(layer, "rows"), calls)
            elif field == "us_per_call":
                value = 1e6 * _ratio(tree.total(layer), calls)
            elif field == "eval_share":
                value = _ratio(tree.total("neural.step_loss", under=layer),
                               tree.total(layer))
            else:
                value = tree.attr_sum(layer, field) / rounds
            out[f"{layer}.{field}"] = value
    backward = tree.total("neural.tape_backward",
                          under="neural.step_loss_and_grad")
    out["neural.graph_build.s"] = \
        (tree.total("neural.step_loss_and_grad") - backward) / rounds
    out["training.resampled"] = \
        tree.attr_sum("training.generate_dataset", "resampled") / rounds
    out["training.accept_ratio"] = _ratio(counts["sampler.states"],
                                          counts["sampler.draws"])
    return out


# spans each workload's own pipelines must reach
EXPECTED = {
    "train": ("systems.field_eval", "neural.step_loss_and_grad",
              "neural.tape_backward", "neural.adam_update", "neural.step_loss",
              "neural.model_eval", "neural.mlp_forward", "training.train",
              "training.alt_train"),
    "data": ("systems.field_eval", "integrators.adaptive_flow_batch",
             "training.generate_dataset", "training.save_dataset",
             "training.build_alt_training_data", "bench_cli.generate"),
    "evaluate": ("systems.field_eval", "systems.reference_trajectory",
                 "integrators.adaptive_flow_batch", "integrators.rk_step",
                 "integrators.implicit_midpoint_step", "integrators.integrate",
                 "integrators.dopri5_integrate", "modified_field.trunc_eval",
                 "jets.dd_components", "neural.model_eval",
                 "neural.mlp_forward", "bench_cli.compare_alt",
                 "bench_cli.convergence", "bench_cli.efficiency"),
}

# spans the workload's pipelines bypass: the prediction is zero calls
BYPASSED = {
    "train": ("integrators.adaptive_flow_batch",
              "systems.reference_trajectory", "integrators.rk_step"),
    "data": ("neural.tape_backward", "neural.adam_update",
             "neural.step_loss_and_grad"),
    "evaluate": ("neural.tape_backward", "neural.adam_update",
                 "neural.step_loss_and_grad"),
}


def self_check(workload, tree, counts):
    """Problems with where the spans fired; an empty list passes."""
    problems = [f"{name} never fired" for name in EXPECTED[workload]
                if tree.calls(name) == 0]
    problems += [f"{name} fired {tree.calls(name)} times"
                 for name in BYPASSED[workload] if tree.calls(name)]
    flow = "integrators.adaptive_flow_batch"
    rows_per_call = _ratio(tree.attr_sum(flow, "rows"), tree.calls(flow))
    if workload == "evaluate" and rows_per_call != 1:
        problems.append(f"{flow} has {rows_per_call} rows per call, not 1")
    if workload == "data":
        if rows_per_call < 1e4:
            problems.append(f"{flow} has {rows_per_call} rows per call, "
                            "fewer than 1e4")
        if counts["sampler.states"] == 0:
            problems.append("the domain sampler never ran")
    return problems


def reconcile(tree):
    """Traced figures next to the baseline recorded in ROADMAP.md.

    A report, not a gate: ``gap_over_2x`` marks figures that differ from
    the baseline by more than a factor of two either way.
    """
    rows = []

    def add(item, baseline, measured, unit, note=""):
        if measured is None:
            return
        ratio = measured / baseline
        rows.append({"item": item, "baseline": baseline,
                     "measured": measured, "unit": unit, "ratio": ratio,
                     "gap_over_2x": not 0.5 <= ratio <= 2.0, "note": note})

    def per_records(op, n):
        grad = "neural.step_loss_and_grad"
        records = tree.attr_sum(grad, "records", under=op)
        if not records:
            return None
        return 1e3 * tree.total(grad, under=op) / records * n

    add("Euler n_terms=3 loss+grad per 300 records", 3.47,
        per_records("op.train_euler3", 300), "ms",
        "scaled from batches of 100; the n_terms=1 Euler baseline (1.04 ms)"
        " has no workload")
    add("RK2 loss+grad per batch of 300", 2.08,
        per_records("op.train_rk2", 300), "ms")
    add("implicit midpoint loss+grad per batch of 300", 12.0,
        per_records("op.train_midpoint", 300), "ms")

    steps = {}
    for i in tree.select("integrators.rk_step", under="op.efficiency"):
        steps.setdefault(tree.spans[i][4]["field"], []).append(
            tree.duration(i))
    for kind, baseline, label in (
            ("VectorFieldSpec", 55.0, "bare field"),
            ("ModifiedFieldModel", 107.0, "learned field"),
            ("TruncatedModifiedField_k3", 273.0, "k=3 truncated field")):
        if kind in steps:
            add(f"Euler step on the {label}", baseline,
                1e6 * float(np.median(steps[kind])), "us", "median step")

    gen = "training.generate_dataset"
    records = tree.attr_sum(gen, "records", under="op.gen_pendulum")
    if records:
        add("generate_dataset per 20k pendulum records", 1.35,
            tree.total(gen, under="op.gen_pendulum") / records * 20_000, "s")

    ref = [(tree.duration(i), tree.spans[i][4]["segments"])
           for i in tree.select("systems.reference_trajectory",
                                under="op.compare_alt")]
    if ref:
        # the finest compare-alt grid is h = 0.005; scaled to T = 10
        most = max(n for _, n in ref)
        add("reference_trajectory, T=10 at h=0.005", 2.66,
            float(np.median([d for d, n in ref if n == most])) * 2000 / most,
            "s", f"scaled from {most} segments")
    return rows
