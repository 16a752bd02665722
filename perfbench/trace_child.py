"""Run the maxglm CLI with a span recorded around every call into each layer.

Usage: python trace_child.py SPANS_JSON run --override key=value ...

The package is left untouched: the public functions of each module are
wrapped at the name their caller looks them up (module globals such as
`htc.main_field`, or class attributes), and the originals are put back when
the CLI returns. Spans stay in memory and are written to SPANS_JSON at the
end, as {"import_s": ..., "spans": [[name, start, end, parent, extra], ...]},
where parent is the index of the enclosing span (-1 at top level) and extra is
the exception name of a span that raised, or the bytes a snapshot wrote.
"""

import json
import os
import sys
import time

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a recording wrapper named `name`.

        `name` may be a function of the call's positional arguments; `after`
        maps (args, result) to the span's extra field. A name the package no
        longer has is skipped, and its layer metrics read 0.
        """
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name(args) if callable(name) else name, perf(), 0.0,
                    stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf()
                stack.pop()
            if after is not None:
                span[4] = after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


MIMETIC = ("curl_c2v", "curl_v2c", "div_c2v", "div_v2c", "grad_c2v", "grad_v2c")


def install(tracer, harness, htc, simm, mimetic, diagnostics):
    """Wrap each layer's public functions where their callers look them up."""
    w = tracer.wrap
    w(harness, "simulate", "harness.simulate")
    w(harness, "write_snapshot", "grid.snapshot",
      after=lambda args, _: os.path.getsize(args[0]))
    w(htc, "rk_step", "htc.rk_step")
    w(htc, "semidiscrete_rhs", "htc.rhs")
    w(htc, "abgrall_flux", "htc.flux")
    w(htc, "main_field", "model.main_field")
    w(simm, "simm_step", "simm.step")
    w(simm, "cg_solve", lambda args: "simm.cg.phi" if args[1].ndim == 2 else "simm.cg.E")
    w(simm, "apply_phi_operator", "simm.apply_op.phi")
    w(simm, "apply_E_operator", "simm.apply_op.E")
    for owner in (simm, diagnostics, mimetic):
        for attr in MIMETIC:
            w(owner, attr, "mimetic")
    for attr in ("total_energy_collocated", "collocated_divergence", "staggered_divergences"):
        w(diagnostics, attr, "diagnostics.per_step")
    w(simm, "total_energy_staggered", "diagnostics.per_step")
    for attr in ("write_energy_csv", "write_divergence_csv"):
        w(diagnostics.DiagnosticsSeries, attr, "diagnostics.csv")


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    t0 = perf()
    from maxglm import cli, diagnostics, harness, htc, mimetic, simm
    import_s = perf() - t0
    tracer = Tracer()
    install(tracer, harness, htc, simm, mimetic, diagnostics)
    try:
        return cli.main(cli_args)
    finally:
        tracer.restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
