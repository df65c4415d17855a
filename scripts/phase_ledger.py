"""Per-phase time of the low-rank steps on a benchmark workload.

    python3 scripts/phase_ledger.py pulse_large bug_fixed
    python3 scripts/phase_ledger.py pulse_large bug_adaptive --src ../other-checkout --runs 3

Runs `cli_io.simulate` on the problem that `bench/run.py` gives the scheme on
the workload, `--runs` times in one process with one BLAS thread. Each phase
function of the step is wrapped at every `slabtrt` module binding that holds
it, and so is `np.linalg.qr`. The script prints, per step, the µs and calls of
each phase, then the shape and memory order (F, C or strided) of every `qr`
input. Phases nest: `extend_orthonormal_columns` holds its `qr` calls, and
`augment_bases` holds the K- and L-updates. The wrappers add about a µs per
call, so the phases sum to more than the plain step. The last line is the
`simulate` loop timed without wrappers, in a first pass. `--src` names the
checkout whose `src/` is imported, by default the one holding this script,
so two commits can be compared phase by phase; the workloads always come
from this one's `bench/workloads.py`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = (
    "step_bug_fixed", "step_bug_adaptive", "augment_bases", "galerkin_s_hat", "ap_truncate",
    "_k_update", "_l_update", "_galerkin_update", "_formed_blocks", "_spatial_blocks",
    "padded_difference", "extend_orthonormal_columns", "emission_gradient_parts",
    "_finish_step",
)


def _layout(a) -> str:
    return "F" if a.flags.f_contiguous else "C" if a.flags.c_contiguous else "strided"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("scheme", choices=("bug_fixed", "bug_adaptive"))
    parser.add_argument("--src", default=str(ROOT), help="checkout whose src/ is imported")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(args.src).resolve() / "src"), str(ROOT / "bench")]
    import numpy as np
    from workloads import WORKLOADS

    from slabtrt.cli_io import _resolve, parse_config, simulate
    from slabtrt.limits_diagnostics import cfl_report
    from slabtrt.scenarios import build_scenario

    run = _resolve(parse_config(WORKLOADS[args.workload].config_text(args.scheme, ".")))
    ws, macro0 = build_scenario(run)
    dt = cfl_report(ws)[0]

    def run_once() -> int:
        steps = -1
        for _ in simulate(args.scheme, macro0, ws, dt, run.t_end, run.fixed_rank,
                          run.theta_rel):
            steps += 1
        return steps

    start = time.perf_counter()
    plain_steps = sum(run_once() for _ in range(args.runs))
    plain_us = (time.perf_counter() - start) / plain_steps * 1e6

    seconds, calls, qr_inputs = Counter(), Counter(), Counter()

    def timed(name, fn):
        def call(*a, **kw):
            begin = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                seconds[name] += time.perf_counter() - begin
                calls[name] += 1
        return call

    modules = [m for n, m in list(sys.modules.items()) if n.startswith("slabtrt.")]
    for name in PHASES:
        fn = next((getattr(m, name) for m in modules if hasattr(m, name)), None)
        if fn is None:  # a checkout without this phase
            continue
        wrapped = timed(name, fn)
        for module in modules:
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapped)
    qr = np.linalg.qr
    timed_qr = timed("np.linalg.qr", qr)

    def recorded_qr(a, *rest, **kw):
        qr_inputs[(np.shape(a), _layout(a))] += 1
        return timed_qr(a, *rest, **kw)

    np.linalg.qr = recorded_qr
    steps = sum(run_once() for _ in range(args.runs))
    np.linalg.qr = qr
    print(f"{args.workload} {args.scheme}: {steps // args.runs} steps per run, {args.runs} runs")
    for name, total in seconds.most_common():
        print(f"{name:28s} {total / steps * 1e6:9.1f} us/step {calls[name] / steps:7.2f} calls/step")
    for (shape, layout), count in sorted(qr_inputs.items(), key=lambda kv: -kv[1]):
        print(f"qr {str(shape):14s} {layout:7s} {count / steps:7.2f} calls/step")
    print(f"{'simulate loop, unwrapped':28s} {plain_us:9.1f} us/step")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
