"""Workload definitions, output checks and the per-layer metric table.

Each workload is a fixed slab problem run with every scheme through the
`slabtrt run` command. The checks mirror the thresholds of the repository's
full-resolution regression tests without importing them, so a later change to
the tests cannot silently loosen the benchmark.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

SCHEMES = ("full", "bug_fixed", "bug_adaptive", "rosseland")
LOW_RANK = ("bug_fixed", "bug_adaptive")

HISTORY_COLUMNS = ("t", "energy", "mass", "rel_mass_error", "rank", "dt", "cfl_violation")
PROFILE_COLUMNS = ("x", "T", "Phi", "h")

# Thresholds of the full-resolution regression tests.
KINETIC_L2_LIMIT = 0.02          # l2_T and l2_Phi of a low-rank scheme vs `full`
DIFFUSIVE_L2_T_LIMIT = 1e-3      # l2_T of a transport scheme vs `rosseland`
DIFFUSIVE_MAX_RANK = 3           # adaptive rank in the diffusive regime
MASS_LIMIT = {"bug_adaptive": 1e-9}
DEFAULT_MASS_LIMIT = 1e-10
ENERGY_SLACK = 1e-12             # energy may not grow by more than this times E0


@dataclass(frozen=True)
class Workload:
    """One slab problem; every scheme runs it to `t_end`."""

    name: str
    scenario: str
    epsilon: str
    nx: int
    n_moments: int
    t_end: float
    fixed_rank: int
    reference: str

    @property
    def diffusive(self) -> bool:
        return self.reference == "rosseland"

    def config_text(self, scheme: str, output_dir: str) -> str:
        """Config for one scheme; every solver input is set explicitly."""
        lines = [
            f"scenario = {self.scenario}",
            f"scheme = {scheme}",
            f"epsilon = {self.epsilon}",
            f"nx = {self.nx}",
            f"n_moments = {self.n_moments}",
            f"t_end = {self.t_end!r}",
            "history_stride = 1",
            f"output_dir = {output_dir}",
        ]
        if scheme == "bug_fixed":
            lines.append(f"rank = {self.fixed_rank}")
        elif scheme == "bug_adaptive":
            lines += ["rank = 1", "theta_rel = 5e-2"]
        return "\n".join(lines) + "\n"


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pulse_kinetic",
            scenario="rectangular_pulse", epsilon="1.0", nx=501, n_moments=100,
            t_end=1.5, fixed_rank=15, reference="full",
        ),
        Workload(
            name="absorber_diffusive",
            scenario="absorber", epsilon="1e-5", nx=201, n_moments=100,
            t_end=0.15, fixed_rank=1, reference="rosseland",
        ),
        Workload(
            name="pulse_large",
            scenario="rectangular_pulse", epsilon="1.0", nx=2001, n_moments=400,
            t_end=0.1, fixed_rank=15, reference="full",
        ),
    )
}


# ---------------------------------------------------------------------------
# CSV outputs and checks


def read_csv(data: bytes, columns: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Columns of a CSV written by `slabtrt run`, looked up by header name."""
    text = data.decode("utf-8")
    header = text.split("\n", 1)[0].split(",")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"CSV lacks columns {missing}")
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return {c: table[:, header.index(c)] for c in columns}


def l2_relative(u: np.ndarray, v: np.ndarray, x: np.ndarray) -> float:
    """dx-weighted relative L2 difference ||u - v|| / ||v||."""
    dx = float(np.mean(np.diff(x))) if x.size > 1 else 1.0
    diff = float(np.sqrt(np.sum((u - v) ** 2) * dx))
    ref = float(np.sqrt(np.sum(v**2) * dx))
    return diff / max(ref, np.finfo(float).tiny)


def check_run(workload: Workload, scheme: str, history: dict, profiles: dict,
              reference: dict) -> tuple[dict[str, float], list[str]]:
    """Accuracy figures of one finished run and the checks it misses."""
    problems = []
    for name, col in (*history.items(), *profiles.items()):
        if not np.all(np.isfinite(col)):
            problems.append(f"non-finite {name}")
    t = history["t"]
    if t.size == 0 or abs(t[-1] - workload.t_end) > 1e-12 * workload.t_end:
        problems.append("did not reach t_end")
    mass_limit = MASS_LIMIT.get(scheme, DEFAULT_MASS_LIMIT)
    if np.max(history["rel_mass_error"], initial=0.0) > mass_limit:
        problems.append(f"mass error {np.max(history['rel_mass_error']):.3e} > {mass_limit:g}")
    e = history["energy"]
    if e.size > 1 and np.max(np.diff(e)) > ENERGY_SLACK * e[0]:
        problems.append("energy grew")
    if np.any(history["cfl_violation"] != 0):
        problems.append("cfl_violation set")

    figures = {}
    if scheme != workload.reference:
        figures["l2_T"] = l2_relative(profiles["T"], reference["T"], reference["x"])
        figures["l2_Phi"] = l2_relative(profiles["Phi"], reference["Phi"], reference["x"])
    if workload.diffusive:
        if scheme != "rosseland" and figures["l2_T"] > DIFFUSIVE_L2_T_LIMIT:
            problems.append(f"l2_T {figures['l2_T']:.3e} vs rosseland > {DIFFUSIVE_L2_T_LIMIT:g}")
        if scheme == "bug_adaptive" and np.max(history["rank"]) > DIFFUSIVE_MAX_RANK:
            problems.append(f"adaptive rank {int(np.max(history['rank']))} > {DIFFUSIVE_MAX_RANK}")
    elif scheme in LOW_RANK:
        for key in ("l2_T", "l2_Phi"):
            if figures[key] > KINETIC_L2_LIMIT:
                problems.append(f"{key} {figures[key]:.3e} vs full > {KINETIC_L2_LIMIT:g}")
    return figures, problems


# ---------------------------------------------------------------------------
# metrics

END_TO_END = (
    ("setup_s", "s"),
    *((f"step_us.{s}", "us") for s in SCHEMES),
    *((f"{q}.{s}", "ratio") for s in LOW_RANK for q in ("l2_T", "l2_Phi")),
)

# Layers each scheme's step passes through, as `<module>.<function>` span names.
_STEP_LAYERS = {
    "full": (
        "full_scheme.step_full", "full_scheme.full_micro_update",
        "full_scheme.emission_gradient_source", "full_scheme.meso_macro_update",
        "mesh_state.stencils", "mesh_state.beta_fields",
    ),
    "bug_fixed": (
        "bug_fixed.step_bug_fixed", "bug_fixed.k_step", "bug_fixed.l_step", "bug_fixed.s_step",
        "bug_fixed.galerkin_coefficient_update",
        "full_scheme.emission_gradient_source", "full_scheme.meso_macro_update",
        "mesh_state.stencils", "mesh_state.beta_fields", "mesh_state.orthonormal_columns",
        "mesh_state.complete_orthonormal_columns", "mesh_state.LowRankMicroState.__post_init__",
        "numpy.linalg.qr", "numpy.linalg.solve",
    ),
    "bug_adaptive": (
        "bug_adaptive.step_bug_adaptive", "bug_adaptive.augment_bases",
        "bug_adaptive.galerkin_s_hat", "bug_adaptive.ap_truncate",
        "bug_adaptive.diffusion_limit_direction",
        "bug_fixed.k_step", "bug_fixed.l_step", "bug_fixed.galerkin_coefficient_update",
        "full_scheme.emission_gradient_source", "full_scheme.meso_macro_update",
        "mesh_state.stencils", "mesh_state.beta_fields", "mesh_state.orthonormal_columns",
        "mesh_state.complete_orthonormal_columns", "mesh_state.LowRankMicroState.__post_init__",
        "numpy.linalg.qr", "numpy.linalg.svd", "numpy.linalg.solve",
    ),
    "rosseland": ("limits_diagnostics.rosseland_step",),
}
_LOOP_LAYERS = (
    "limits_diagnostics.energy", "limits_diagnostics.mass", "cli_io.run_simulation",
)
SCHEME_LAYERS = {s: layers + _LOOP_LAYERS for s, layers in _STEP_LAYERS.items()}
SETUP_LAYERS = (
    "angular.build_angular_operators", "scenarios.build_scenario", "limits_diagnostics.cfl_report",
)
# Layers called more or less than once per step, whose calls/step are reported.
COUNTED = frozenset({
    "full_scheme.emission_gradient_source", "mesh_state.stencils", "mesh_state.beta_fields",
    "mesh_state.orthonormal_columns", "mesh_state.complete_orthonormal_columns",
    "numpy.linalg.qr", "numpy.linalg.svd", "numpy.linalg.solve",
})


def per_layer_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for scheme in SCHEMES:
        for layer in SCHEME_LAYERS[scheme]:
            specs.append((f"{scheme}.{layer}.us", "us"))
            if layer in COUNTED:
                specs.append((f"{scheme}.{layer}.calls", "1/step"))
    specs += [(f"setup.{layer}.us", "us") for layer in SETUP_LAYERS]
    specs += [("bug_adaptive.rank_mean", "count"), ("bug_adaptive.rank_max", "count")]
    specs += [(f"trace_overhead_us.{s}", "us") for s in SCHEMES]
    return specs
