"""Run the losslab CLI with spans recorded around calls into its modules.

    python3 perfbench/tracer.py TRACE.json <losslab arguments ...>

The program is not edited: before ``losslab.cli.main`` runs, each traced
function is replaced, in the namespace its caller looks it up in, by a
wrapper that records a span (id, parent id, name, start, end, extra).
Spans stay in memory and are written to TRACE.json when the command ends.
Pool workers started by ``sweep --jobs N`` are not traced; ``run_all`` is
timed from the parent, with the parent's and its children's CPU time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, extra)
        self._stack = [0]
        self._next = 1

    def wrap(self, name, fn, extra=None):
        """fn wrapped in a span; extra(args, result) -> dict of attributes."""

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            self.spans.append(
                (sid, parent, name, t0, t1,
                 extra(args, result) if extra is not None else None)
            )
            return result

        return traced

    def wrap_cpu(self, name, fn):
        """Span that also records CPU seconds of this process and its children."""
        inner = self.wrap(name, fn)

        @wraps(fn)
        def timed(*args, **kwargs):
            c0 = _cpu_s()
            result = inner(*args, **kwargs)
            # inner's span ends last, so it is the newest one
            self.spans[-1] = self.spans[-1][:5] + ({"cpu_s": _cpu_s() - c0},)
            return result

        return timed

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _loss_kind(args, result):
    return {"kind": args[1].kind}


def _dump_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _fit(args, result):
    return {"converged": bool(result.converged), "n_iter": int(result.n_iter)}


def install(tracer):
    """Wrap each traced function where its caller looks it up."""
    from losslab import harness, probe, training

    def patch(module, attr, name, extra=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), extra))

    # training step and epoch, looked up by training.train
    patch(training, "loss_and_grads", "training.loss_and_grads", _loss_kind)
    patch(training, "compose_loss", "losses.compose_loss")
    patch(training, "forward_hidden", "mlp.forward_hidden")
    patch(training, "sgd_nesterov_step", "optim.sgd_nesterov_step")
    patch(training, "model_from_params", "mlp.model_from_params")
    patch(training, "_epoch_record", "training.epoch_log")
    # harness: runs, data, dumps and the analysis functions it calls
    patch(harness, "train", "training.train")
    patch(harness, "run_single", "harness.run_single")
    patch(harness, "load_experiment_data", "harness.load_experiment_data")
    patch(harness, "write_activation_dump", "dumps.write_activation_dump",
          _dump_bytes)
    patch(harness, "read_activation_dump", "dumps.read_activation_dump")
    patch(harness, "class_separation_r2", "repr_analysis.class_separation_r2")
    patch(harness, "linear_cka", "repr_analysis.linear_cka")
    patch(harness, "fit_temperature", "calibration.fit_temperature")
    patch(harness, "agreement_matrix", "agreement.agreement_matrix")
    patch(harness, "linkage_dendrogram", "agreement.linkage_dendrogram")
    patch(harness, "sweep_and_retrain", "probe.sweep_and_retrain")
    patch(probe, "fit_logreg", "probe.fit_logreg", _fit)
    harness.run_all = tracer.wrap_cpu("harness.run_all", harness.run_all)
    # reporters: write_reports calls report_accuracy by name, the rest
    # through the REPORTERS table
    patch(harness, "report_accuracy", "harness.report_accuracy")
    for name, fn in list(harness.REPORTERS.items()):
        harness.REPORTERS[name] = tracer.wrap(f"harness.report_{name}", fn)


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    from losslab import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
