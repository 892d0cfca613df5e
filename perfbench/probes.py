"""What the benchmark hooks into tsclab, with tracing off and with it on.

With tracing off only two call boundaries are wrapped, one call per run
each: ``cli.train_single_run``, to keep the in-memory model for the
reload check, and ``optim.train``, to stamp epoch ends through its
``log_fn``.  With tracing on, :func:`install_tracer` also wraps the public
functions of every tsclab layer and :func:`layer_metrics` turns the span
aggregates into the per-layer metrics.
"""

from __future__ import annotations

import threading
from time import perf_counter

from tracer import Patcher, Tracer

# kernel name prefix -> span name; other kernels count as layers.other
KERNEL_GROUPS = {
    "conv1d": "layers.conv",
    "batch_norm": "layers.batch_norm",
    "instance_norm": "layers.instance_norm",
    "dense": "layers.dense",
}


class RunCapture:
    """Trained models by (arch, seed) and epoch durations by architecture."""

    def __init__(self):
        self.models: dict = {}
        self.epochs: dict = {}   # arch -> [(series per epoch, [epoch seconds])]
        self._lock = threading.Lock()

    def install(self, patcher: Patcher, cli, optim) -> None:
        def capture_run(original):
            def run(arch, train_ds, test_ds, seed, *args, **kwargs):
                result = original(arch, train_ds, test_ds, seed, *args, **kwargs)
                with self._lock:
                    self.models[(arch, seed)] = result[0]
                return result
            return run

        def stamp_epochs(original):
            def train(spec, data, config, log_fn=None):
                stamps = [perf_counter()]

                def log(line):
                    stamps.append(perf_counter())
                    if log_fn is not None:
                        log_fn(line)

                result = original(spec, data, config, log)
                durations = [b - a for a, b in zip(stamps, stamps[1:])]
                with self._lock:
                    self.epochs.setdefault(spec.architecture_id, []).append(
                        (data.n, durations))
                return result
            return train

        patcher.patch(cli, "train_single_run", capture_run)
        patcher.patch(optim, "train", stamp_epochs)


def _conv_flops(args, result):
    # forward: y [B, t_out, C_out] from w [C_out, l, C_in]; 2 flops per MAC
    y, w = result[0], args[1]
    return {"conv_flops": 2 * y.size * w.shape[1] * w.shape[2]}


def _conv_backward_flops(args, result):
    # weight gradient plus input gradient, each as many MACs as forward
    gy, gw = args[0], result[1]
    return {"conv_flops": 4 * gy.size * gw.shape[1] * gw.shape[2]}


def _dense_flops(args, result):
    x, w = args[0], args[1]
    return {"dense_flops": 2 * x.shape[0] * w.shape[0] * w.shape[1]}


def _dense_backward_flops(args, result):
    gy, gw = args[0], result[1]
    return {"dense_flops": 4 * gy.shape[0] * gw.shape[0] * gw.shape[1]}


_FLOPS = {
    "conv1d_forward": _conv_flops,
    "conv1d_backward": _conv_backward_flops,
    "dense_forward": _dense_flops,
    "dense_backward": _dense_backward_flops,
}


def install_tracer(tracer: Tracer, patcher: Patcher, tsclab_modules) -> None:
    """Wrap the public functions of each tsclab layer in spans."""
    cli, data, explain, layers, models, optim, reservoir, stats = tsclab_modules
    span = tracer.span

    for attr in dir(layers):
        if attr.endswith(("_forward", "_backward")) or attr == "residual_add":
            group = next((g for k, g in KERNEL_GROUPS.items() if attr.startswith(k)),
                         "layers.other")
            patcher.patch(layers, attr, span(group, counters=_FLOPS.get(attr)))

    targets = [
        (data, "load_pair", "data.load"),
        (data, "build_training_pool", "data.pool"),
        (models, "init_model", "tensor.init"),
        (models, "forward_batch", "models.dispatch"),
        (models, "backward_batch", "models.dispatch"),
        (models, "predict", "models.predict"),
        (models, "save_model", "cli.save"),
        (reservoir, "save_twiesn", "cli.save"),
        (stats, "save_runs", "cli.save"),
        (optim, "evaluate_loss", "optim.eval"),
        (optim.Optimizer, "step", "optim.update"),
        (optim, "train", "optim.loop"),
        (reservoir, "reservoir_states_batch", "reservoir.states"),
        (reservoir, "fit_ridge", "reservoir.ridge"),
        (reservoir, "spectral_radius", "reservoir.radius"),
        (reservoir, "twiesn_train_single", "reservoir.config"),
    ]
    # entry points only, none calling another of its group, so that the
    # inclusive times of a group add up without counting a call twice
    for attr in ("aggregate", "compare_classifiers", "render_cd_diagram",
                 "render_text_report"):
        targets.append((stats, attr, "stats.compare"))
    for attr in ("compute_cam", "export_cam_svg", "cam_csv"):
        targets.append((explain, attr, "explain.cam"))
    for attr in ("gap_features", "mds_embed", "export_mds_svg", "mds_csv"):
        targets.append((explain, attr, "explain.mds"))
    for owner, attr, name in targets:
        patcher.patch(owner, attr, span(name))
    # the run's architecture labels every span beneath it
    patcher.patch(cli, "train_single_run",
                  span("cli.run", context_from=lambda args: args[0]))


def layer_metrics(tracer: Tracer, values_loaded: int) -> dict:
    """Per-layer metrics from one traced run: (value, unit) by name.

    Kernel and dispatch times are self times; the other times include the
    spans beneath them (``optim.eval_s`` includes its forward kernels).
    """
    t = tracer.total
    s = lambda name: t(name, field=2)  # self seconds
    conv_s, loop_s = s("layers.conv"), t("optim.loop")
    load_s = t("data.load")
    conv_flops = tracer.counter("conv_flops")
    out = {
        "data.load_s": (load_s, "s"),
        "data.values_per_s": (values_loaded * t("data.load", 0) / load_s if load_s else 0.0,
                              "1/s"),
        "data.pool_s": (t("data.pool"), "s"),
        "tensor.init_s": (t("tensor.init"), "s"),
        "layers.conv_s": (conv_s, "s"),
        "layers.conv_calls": (t("layers.conv", 0), "count"),
        "layers.conv_flops": (conv_flops, "count"),
        "layers.conv_gflops": (conv_flops / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s"),
        "layers.dense_flops": (tracer.counter("dense_flops"), "count"),
        "layers.batch_norm_s": (s("layers.batch_norm"), "s"),
        "layers.instance_norm_s": (s("layers.instance_norm"), "s"),
        "layers.dense_s": (s("layers.dense"), "s"),
        "layers.other_s": (s("layers.other"), "s"),
        "models.dispatch_s": (s("models.dispatch"), "s"),
        "models.predict_s": (t("models.predict"), "s"),
        "models.predict_forward_calls": (
            tracer.calls_under("models.dispatch", "models.predict"), "count"),
        "optim.update_s": (t("optim.update"), "s"),
        "optim.update_share": (t("optim.update") / loop_s if loop_s else 0.0, "fraction"),
        "optim.steps": (t("optim.update", 0), "count"),
        "optim.eval_s": (t("optim.eval"), "s"),
        "optim.eval_share": (t("optim.eval") / loop_s if loop_s else 0.0, "fraction"),
        "optim.loop_s": (loop_s, "s"),
        "reservoir.states_s": (s("reservoir.states"), "s"),
        "reservoir.ridge_s": (s("reservoir.ridge"), "s"),
        "reservoir.radius_s": (s("reservoir.radius"), "s"),
        "reservoir.configs": (t("reservoir.config", 0), "count"),
        "cli.save_s": (t("cli.save"), "s"),
        "stats.compare_s": (t("stats.compare"), "s"),
        "explain.cam_s": (t("explain.cam"), "s"),
        "explain.mds_s": (t("explain.mds"), "s"),
    }
    return {k: (float(v), u) for k, (v, u) in out.items()}


def split_table(tracer: Tracer) -> list[str]:
    """Self-time share of each span inside each architecture's runs."""
    lines = []
    for context in tracer.contexts():
        rows = [(name, agg[2]) for (c, name), agg in tracer.spans.items() if c == context]
        total = sum(v for _, v in rows)
        if not total:
            continue
        rows.sort(key=lambda r: -r[1])
        lines.append(f"split {context}: " + ", ".join(
            f"{name} {100 * v / total:.1f}%" for name, v in rows if v / total >= 0.005))
    return lines
