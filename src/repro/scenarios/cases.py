"""Built-in case catalog.

Each case is a ~30-line declarative registration.  The first five port
the historical ``examples/`` scripts (artery flow, microchannel Knudsen,
microfluidic clogging, deep-halo tuning, scaling study); the rest are
new workloads (Taylor–Green with analytic error norms, Poiseuille
channel, lid-driven cavity, porous-medium Darcy flow).

The ``examples/*.py`` scripts are thin wrappers over these entries.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.boundary import BounceBackWalls, DiffuseWallPair, MovingWallBounceBack
from ..core.collision import RegularizedBGKCollision
from ..core.initial_conditions import shear_wave, taylor_green
from ..core.moments import macroscopic
from ..core.observables import (
    enstrophy,
    kinetic_energy,
    max_speed,
    total_mass,
    velocity_profile,
)
from ..core.obstacles import (
    channel_walls_mask,
    momentum_exchange_force,
    sphere_mask,
)
from ..core.streaming import stream_periodic
from ..core.units import mach_number, reynolds_number, tau_for_knudsen
from .registry import register_case
from .runner import CaseResult
from .spec import CaseSpec, steady_state

__all__ = ["ALL_CASES"]


# -- shared observables ----------------------------------------------------


def _mass(sim) -> float:
    return total_mass(sim.f)


def _kinetic_energy(sim) -> float:
    return kinetic_energy(sim.lattice, sim.f)


def _max_speed(sim) -> float:
    return max_speed(sim.lattice, sim.f)


def _enstrophy(sim) -> float:
    return enstrophy(sim.lattice, sim.f)


BASE_OBSERVABLES = {
    "total_mass": _mass,
    "kinetic_energy": _kinetic_energy,
    "max_speed": _max_speed,
}


def _viscosity(result: CaseResult) -> float:
    """Kinematic viscosity of the run's collision operator."""
    return float(result.simulation.collision.viscosity)


def _mass_drift(result: CaseResult) -> float:
    m0 = result.initial("total_mass")
    return abs(result.final("total_mass") - m0) / m0


def _mass_rtol(result: CaseResult) -> float:
    """Mass-conservation tolerance under the run's dtype policy.

    Streaming and BGK relaxation conserve mass up to accumulated
    rounding, which scales with the population dtype's machine epsilon:
    1e-10 keeps the historic float64 bound; float32 (eps ~ 1.2e-7)
    drifts a few 1e-6 over hundreds of steps, so its bound is 1e-4.
    """
    return 1e-10 if result.spec.dtype == "float64" else 1e-4


def _gather_tol(spec: CaseSpec) -> float:
    """Distributed-vs-single-domain population tolerance per dtype.

    Every slab steps through the planned slab kernel, which matches the
    planned single domain bit for bit; the bound covers the single-domain
    ``naive`` kernel, which shares its arithmetic only to rounding.
    float64 keeps the historic 1e-13; float32 carries ~1e-7 relative
    rounding per step, so a short run is bounded by 2e-5.
    """
    return 1e-13 if spec.dtype == "float64" else 2e-5


# -- taylor-green: analytic decay norms ------------------------------------


def _tg_initial(spec: CaseSpec):
    return taylor_green(spec.shape, u0=float(spec.params.get("u0", 1e-3)))


def _tg_analysis(result: CaseResult) -> dict:
    n = result.spec.shape[0]
    nu = _viscosity(result)
    k = 2.0 * np.pi / n
    # decay over the window this run actually recorded (restart-safe)
    t = result.series["step"][-1] - result.series["step"][0]
    expected = float(np.exp(-4.0 * nu * k * k * t))
    measured = result.final("kinetic_energy") / result.initial("kinetic_energy")
    return {
        "decay_measured": measured,
        "decay_theory": expected,
        "decay_error": abs(measured / expected - 1.0),
    }


def _tg_checks(result: CaseResult) -> dict:
    return {
        "decay_matches_viscous_theory": result.metrics["decay_error"] < 0.1,
        "mass_conserved": _mass_drift(result) < _mass_rtol(result),
    }


TAYLOR_GREEN = register_case(
    CaseSpec(
        name="taylor-green",
        title="Taylor-Green vortex with analytic energy-decay norm",
        description=(
            "Periodic 2-D vortex sheet (z-invariant); kinetic energy must "
            "decay as exp(-4 nu k^2 t), pinning the solver's viscosity to "
            "cs2 (tau - 1/2)."
        ),
        lattice="D3Q19",
        shape=(32, 32, 4),
        tau=0.7,
        initial=_tg_initial,
        steps=200,
        monitor_every=20,
        observables={**BASE_OBSERVABLES, "enstrophy": _enstrophy},
        analysis=_tg_analysis,
        checks=_tg_checks,
        params={"u0": 1e-3},
        tags=("continuum", "validation", "fast"),
    )
)


# -- poiseuille-channel: analytic profile norm -----------------------------


def _channel_geometry(spec: CaseSpec) -> np.ndarray:
    return channel_walls_mask(spec.shape, axis=1)


def _bounce_back(spec: CaseSpec, lattice, solid):
    return [BounceBackWalls(lattice, solid)]


def _poiseuille_analysis(result: CaseResult) -> dict:
    spec = result.spec
    sim = result.simulation
    h = spec.shape[1]
    force = spec.forcing[0]
    nu = _viscosity(result)
    profile = velocity_profile(sim.lattice, sim.f, flow_axis=0, across_axis=1)
    y = np.arange(1, h - 1, dtype=np.float64)
    measured = profile[1 : h - 1]
    # The exact steady profile is a parabola with curvature -F/nu; the
    # effective wall plane of full-way bounce-back is viscosity-dependent
    # (between the solid node and the first fluid node), so fit the
    # parabola and validate curvature, shape and wall placement.
    coeffs = np.polyfit(y, measured, 2)
    residual = float(
        np.linalg.norm(measured - np.polyval(coeffs, y))
        / np.linalg.norm(measured)
    )
    wall_lo, wall_hi = sorted(np.roots(coeffs).real)
    return {
        "peak_velocity": float(measured.max()),
        "curvature_error": abs(float(coeffs[0]) * 2.0 * nu / force + 1.0),
        "parabola_residual": residual,
        "wall_position_low": float(wall_lo),
        "wall_position_high": float(wall_hi),
    }


def _poiseuille_checks(result: CaseResult) -> dict:
    m = result.metrics
    h = result.spec.shape[1]
    return {
        "viscous_curvature_matches": m["curvature_error"] < 0.02,
        "profile_is_parabolic": m["parabola_residual"] < 0.005,
        "walls_near_solid_nodes": -1.0 < m["wall_position_low"] < 1.5
        and h - 2.5 < m["wall_position_high"] < h,
        "mass_conserved": _mass_drift(result) < _mass_rtol(result),
    }


POISEUILLE = register_case(
    CaseSpec(
        name="poiseuille-channel",
        title="Body-force Poiseuille flow vs the exact parabola",
        description=(
            "Plane channel with full-way bounce-back walls driven by a "
            "uniform body force; converges (steady-state stop criterion) "
            "to the analytic parabolic profile."
        ),
        lattice="D3Q19",
        shape=(4, 15, 4),
        tau=1.0,
        geometry=_channel_geometry,
        boundaries=_bounce_back,
        forcing=(1e-5, 0.0, 0.0),
        steps=2000,
        stop_when=steady_state(_max_speed, rtol=1e-7),
        monitor_every=25,
        observables=dict(BASE_OBSERVABLES),
        analysis=_poiseuille_analysis,
        checks=_poiseuille_checks,
        tags=("continuum", "validation", "fast"),
    )
)


# -- artery-flow (ported example) ------------------------------------------


def _vessel_geometry(spec: CaseSpec) -> np.ndarray:
    """Solid mask of a curved tube along x (sinusoidally meandering)."""
    nx, ny, nz = spec.shape
    radius = float(spec.params["radius"])
    meander = float(spec.params["meander"])
    x = np.arange(nx)[:, None, None]
    y = np.arange(ny)[None, :, None]
    z = np.arange(nz)[None, None, :]
    cy = ny / 2.0 + meander * np.sin(2 * np.pi * x / nx)
    cz = nz / 2.0 + meander * np.cos(2 * np.pi * x / nx)
    r2 = (y - cy) ** 2 + (z - cz) ** 2
    return r2 > radius * radius


def _artery_analysis(result: CaseResult) -> dict:
    spec = result.spec
    sim = result.simulation
    lattice = sim.lattice
    solid = result.solid
    fluid_cells = int((~solid).sum())
    _, u = macroscopic(lattice, sim.f)
    axial = np.where(~solid, u[0], 0.0)
    flow_rate = float(axial.sum(axis=(1, 2)).mean())
    peak = float(axial.max())
    mean_speed = float(axial.sum() / fluid_cells)
    nu = _viscosity(result)
    wall_adjacent = (~solid) & (
        np.roll(solid, 1, 1)
        | np.roll(solid, -1, 1)
        | np.roll(solid, 1, 2)
        | np.roll(solid, -1, 2)
    )
    return {
        "flow_rate": flow_rate,
        "peak_velocity": peak,
        "peak_mach": mach_number(peak, lattice.cs2_float),
        "reynolds": reynolds_number(
            mean_speed, 2 * float(spec.params["radius"]), nu
        ),
        "near_wall_fraction": float(axial[wall_adjacent].mean()) / peak,
        "mass_drift": _mass_drift(result),
    }


def _artery_checks(result: CaseResult) -> dict:
    m = result.metrics
    return {
        "positive_flow": m["flow_rate"] > 0,
        "no_slip_at_wall": m["near_wall_fraction"] < 0.35,
        "mass_conserved": m["mass_drift"] < _mass_rtol(result),
        "low_mach": m["peak_mach"] < 0.3,
    }


ARTERY = register_case(
    CaseSpec(
        name="artery-flow",
        title="Pressure-driven flow in a synthetic curved vessel",
        description=(
            "Meandering tube voxelised with bounce-back walls, driven by a "
            "body force (the pressure-gradient surrogate for the paper's "
            "cardiovascular application)."
        ),
        lattice="D3Q19",
        shape=(48, 21, 21),
        tau=0.8,
        geometry=_vessel_geometry,
        boundaries=_bounce_back,
        forcing=(4e-6, 0.0, 0.0),
        steps=600,
        monitor_every=50,
        observables=dict(BASE_OBSERVABLES),
        analysis=_artery_analysis,
        checks=_artery_checks,
        params={"radius": 7.0, "meander": 2.5},
        tags=("continuum", "application"),
    )
)


# -- microchannel-knudsen (ported example) ---------------------------------


def _knudsen_collision(spec: CaseSpec, lattice):
    kn = float(spec.params["kn"])
    tau = tau_for_knudsen(kn, spec.shape[1], lattice.cs2_float)
    return RegularizedBGKCollision(lattice, tau)


def _diffuse_walls(spec: CaseSpec, lattice, solid):
    wall_speed = float(spec.params["wall_speed"])
    return [
        DiffuseWallPair(
            lattice,
            axis=1,
            wall_velocity_low=(0.0, 0.0, 0.0),
            wall_velocity_high=(wall_speed, 0.0, 0.0),
        )
    ]


def _knudsen_analysis(result: CaseResult) -> dict:
    spec = result.spec
    sim = result.simulation
    h = spec.shape[1]
    kn = float(spec.params["kn"])
    wall_speed = float(spec.params["wall_speed"])
    profile = velocity_profile(sim.lattice, sim.f, flow_axis=0, across_axis=1)
    y = np.arange(h)
    bulk = slice(5, h - 5)  # linear Couette core, outside Knudsen layers
    fit = np.polyfit(y[bulk], profile[bulk], 1)
    u_at_wall = float(np.polyval(fit, h - 0.5))
    slip = 1.0 - u_at_wall / wall_speed
    theory = kn / (1.0 + 2.0 * kn)
    return {
        "kn": kn,
        "slip_measured": slip,
        "slip_theory": theory,
        "slip_error": abs(slip - theory),
    }


def _knudsen_checks(result: CaseResult) -> dict:
    return {
        "slip_tracks_kinetic_theory": result.metrics["slip_error"] < 0.05,
    }


MICROCHANNEL = register_case(
    CaseSpec(
        name="microchannel-knudsen",
        title="Rarefied Couette flow: wall slip at finite Knudsen number",
        description=(
            "Couette flow between diffuse Maxwell walls; the measured wall "
            "slip must track the first-order kinetic-theory prediction "
            "Kn/(1+2Kn) — the physics D3Q39's third-order quadrature "
            "exists to capture (sweep `kn` and `lattice` to reproduce the "
            "full example table)."
        ),
        lattice="D3Q39",
        shape=(4, 17, 4),
        tau=0.8,  # unused: the collision factory derives tau from Kn
        collision=_knudsen_collision,
        boundaries=_diffuse_walls,
        steps=1200,
        monitor_every=100,
        observables=dict(BASE_OBSERVABLES),
        analysis=_knudsen_analysis,
        checks=_knudsen_checks,
        params={"kn": 0.1, "wall_speed": 0.005},
        tags=("kinetic", "application"),
    )
)


# -- microfluidic-clogging (ported example) --------------------------------


def _clog_mask(spec: CaseSpec) -> np.ndarray:
    radius = float(spec.params["clog_radius"])
    nx, ny, nz = spec.shape
    if radius <= 0:
        return np.zeros(spec.shape, dtype=bool)
    return sphere_mask(spec.shape, (nx // 2, ny // 2, nz // 2), radius)


def _clogged_channel_geometry(spec: CaseSpec) -> np.ndarray:
    return channel_walls_mask(spec.shape, axis=1) | _clog_mask(spec)


def _clogging_analysis(result: CaseResult) -> dict:
    spec = result.spec
    sim = result.simulation
    lattice = sim.lattice
    solid = result.solid
    clog = _clog_mask(spec)
    _, u = macroscopic(lattice, sim.f)
    axial = np.where(~solid, u[0], 0.0)
    adv = stream_periodic(lattice, sim.f)
    drag_clog = (
        float(momentum_exchange_force(lattice, adv, clog)[0]) if clog.any() else 0.0
    )
    drag_total = float(momentum_exchange_force(lattice, adv, solid)[0])
    injected = spec.forcing[0] * sim.num_cells
    return {
        "flow_rate": float(axial.sum(axis=(1, 2)).mean()),
        "clog_drag": drag_clog,
        "force_balance": drag_total / injected,
    }


def _clogging_checks(result: CaseResult) -> dict:
    m = result.metrics
    return {
        "positive_flow": m["flow_rate"] > 0,
        "steady_force_balance": abs(m["force_balance"] - 1.0) < 0.05,
        "mass_conserved": _mass_drift(result) < _mass_rtol(result),
    }


CLOGGING = register_case(
    CaseSpec(
        name="microfluidic-clogging",
        title="Microfluidic constriction: drag and choking from a clog",
        description=(
            "Plane channel with a spherical occlusion at its throat; "
            "measures flow reduction and the momentum-exchange drag, whose "
            "total balances the injected body force at steady state "
            "(sweep `clog_radius` to grow the clog)."
        ),
        lattice="D3Q19",
        shape=(24, 15, 15),
        tau=0.8,
        geometry=_clogged_channel_geometry,
        boundaries=_bounce_back,
        forcing=(3e-6, 0.0, 0.0),
        steps=700,
        monitor_every=50,
        observables=dict(BASE_OBSERVABLES),
        analysis=_clogging_analysis,
        checks=_clogging_checks,
        params={"clog_radius": 3.5},
        tags=("continuum", "application"),
    )
)


# -- lid-driven-cavity (new workload, moving-wall bounce-back) -------------


def _cavity_static_mask(spec: CaseSpec) -> np.ndarray:
    nx, ny, nz = spec.shape
    mask = np.zeros(spec.shape, dtype=bool)
    mask[0, :, :] = mask[-1, :, :] = True
    mask[:, 0, :] = mask[:, -1, :] = True
    mask[:, :, 0] = True  # floor; the z = nz-1 face is the moving lid
    return mask


def _cavity_lid_mask(spec: CaseSpec) -> np.ndarray:
    mask = np.zeros(spec.shape, dtype=bool)
    mask[:, :, -1] = True
    return mask & ~_cavity_static_mask(spec)


def _cavity_geometry(spec: CaseSpec) -> np.ndarray:
    return _cavity_static_mask(spec) | _cavity_lid_mask(spec)


def _cavity_boundaries(spec: CaseSpec, lattice, solid):
    lid_speed = float(spec.params["lid_speed"])
    return [
        BounceBackWalls(lattice, _cavity_static_mask(spec)),
        MovingWallBounceBack(
            lattice,
            _cavity_lid_mask(spec),
            wall_velocity=(lid_speed, 0.0, 0.0),
        ),
    ]


def _cavity_analysis(result: CaseResult) -> dict:
    sim = result.simulation
    solid = result.solid
    nz = result.spec.shape[2]
    _, u = macroscopic(sim.lattice, sim.f)
    ux = np.where(~solid, u[0], np.nan)
    under_lid = float(np.nanmean(ux[:, :, nz - 2]))
    near_floor = float(np.nanmean(ux[:, :, 1 : nz // 3]))
    return {
        "under_lid_velocity": under_lid,
        "near_floor_velocity": near_floor,
        "enstrophy": result.final("enstrophy"),
        "mass_drift": _mass_drift(result),
    }


def _cavity_checks(result: CaseResult) -> dict:
    m = result.metrics
    return {
        "lid_drags_fluid": m["under_lid_velocity"] > 0,
        "return_flow_below": m["near_floor_velocity"] < 0,
        "vortex_formed": m["enstrophy"] > 0,
        "mass_conserved": m["mass_drift"] < _mass_rtol(result),
    }


CAVITY = register_case(
    CaseSpec(
        name="lid-driven-cavity",
        title="Lid-driven cavity via moving-wall bounce-back",
        description=(
            "Closed box whose lid translates tangentially "
            "(momentum-injecting bounce-back); the classic recirculating "
            "vortex benchmark — drag under the lid, return flow below."
        ),
        lattice="D3Q19",
        shape=(20, 20, 20),
        tau=0.7,
        geometry=_cavity_geometry,
        boundaries=_cavity_boundaries,
        steps=400,
        monitor_every=50,
        observables={**BASE_OBSERVABLES, "enstrophy": _enstrophy},
        analysis=_cavity_analysis,
        checks=_cavity_checks,
        params={"lid_speed": 0.05},
        tags=("continuum", "benchmark"),
    )
)


# -- porous-darcy (new workload) -------------------------------------------


def _porous_geometry(spec: CaseSpec) -> np.ndarray:
    """Deterministic random sphere pack (never blocking the full box)."""
    rng = np.random.default_rng(int(spec.params["seed"]))
    radius = float(spec.params["grain_radius"])
    mask = np.zeros(spec.shape, dtype=bool)
    for _ in range(int(spec.params["n_grains"])):
        centre = [rng.uniform(0, n) for n in spec.shape]
        mask |= sphere_mask(spec.shape, centre, radius)
    return mask


def _darcy_analysis(result: CaseResult) -> dict:
    spec = result.spec
    sim = result.simulation
    solid = result.solid
    nu = _viscosity(result)
    force = spec.forcing[0]
    _, u = macroscopic(sim.lattice, sim.f)
    axial = np.where(~solid, u[0], 0.0)
    superficial = float(axial.mean())  # volume-averaged (Darcy) velocity
    porosity = float((~solid).mean())
    return {
        "porosity": porosity,
        "superficial_velocity": superficial,
        "permeability": nu * superficial / force,
        "mass_drift": _mass_drift(result),
    }


def _darcy_checks(result: CaseResult) -> dict:
    m = result.metrics
    return {
        "medium_percolates": m["superficial_velocity"] > 0,
        "finite_permeability": np.isfinite(m["permeability"])
        and m["permeability"] > 0,
        "mass_conserved": m["mass_drift"] < _mass_rtol(result),
    }


POROUS = register_case(
    CaseSpec(
        name="porous-darcy",
        title="Darcy flow through a random sphere pack",
        description=(
            "Body-force flow through a deterministic random porous medium; "
            "reports porosity and the Darcy permeability k = nu <u> / F "
            "(sweep `grain_radius` or `seed` for different media)."
        ),
        lattice="D3Q19",
        shape=(24, 16, 16),
        tau=0.9,
        geometry=_porous_geometry,
        boundaries=_bounce_back,
        forcing=(5e-6, 0.0, 0.0),
        steps=600,
        monitor_every=50,
        observables=dict(BASE_OBSERVABLES),
        analysis=_darcy_analysis,
        checks=_darcy_checks,
        params={"n_grains": 10, "grain_radius": 3.0, "seed": 7},
        tags=("continuum", "application"),
    )
)


# -- deep-halo-tuning (ported example) -------------------------------------


def _shear_initial(spec: CaseSpec):
    return shear_wave(spec.shape)


def _deep_halo_analysis(result: CaseResult) -> dict:
    from ..machine import BLUE_GENE_Q
    from ..parallel import DistributedSimulation
    from ..perf import Placement, Workload, ladder_states, sweep_ghost_depth
    from ..perf.optimization import OptimizationLevel
    from ..perf.tuner import tuned_params_for_depth_study

    spec = result.spec
    sim = result.simulation
    lattice = sim.lattice
    steps = sim.time_step
    rho, u = spec.initial(spec)
    metrics: dict = {}
    # Functional equivalence: deep halos change messages, not physics.
    # The distributed runs ride the spec's dtype, so a float32 case
    # exercises the planned slab path end-to-end at single precision.
    for depth in (1, 2):
        dist = DistributedSimulation(
            lattice,
            spec.shape,
            tau=spec.tau,
            num_ranks=int(spec.params["num_ranks"]),
            ghost_depth=depth,
            dtype=spec.dtype,
        )
        dist.initialize(rho, u)
        dist.run(steps)
        metrics[f"halo_error_depth{depth}"] = float(
            np.abs(
                dist.gather().astype(np.float64) - sim.f.astype(np.float64)
            ).max()
        )
        metrics[f"messages_depth{depth}"] = dist.message_count()
        metrics[f"comm_bytes_depth{depth}"] = dist.total_comm_bytes()
    # Model tuning: runtime-optimal depth for a large production run.
    params = tuned_params_for_depth_study(
        dict(ladder_states(BLUE_GENE_Q, lattice))[OptimizationLevel.SIMD]
    )
    placement = Placement(nodes=16, tasks_per_node=16)
    workload = Workload(lattice, tuple(spec.params["model_shape"]), steps=300)
    sweep = sweep_ghost_depth(
        BLUE_GENE_Q, lattice, params, workload, placement, size_label="200k"
    )
    metrics["optimal_depth"] = sweep.optimal_depth
    return metrics


def _deep_halo_checks(result: CaseResult) -> dict:
    m = result.metrics
    return {
        "halo_depth_preserves_physics": max(
            m["halo_error_depth1"], m["halo_error_depth2"]
        )
        < _gather_tol(result.spec),
        "fewer_messages_with_depth": m["messages_depth2"]
        < m["messages_depth1"],
        "model_picks_a_depth": m["optimal_depth"] >= 1,
    }


def _deep_halo_report(result: CaseResult) -> str:
    m = result.metrics
    lines = ["functional check (distributed vs single-domain):"]
    for depth in (1, 2):
        lines.append(
            f"  depth {depth}: max |error| = "
            f"{m[f'halo_error_depth{depth}']:.2e}, "
            f"messages = {m[f'messages_depth{depth}']}"
        )
    lines.append(f"chosen ghost depth: {m['optimal_depth']}")
    return "\n".join(lines)


DEEP_HALO = register_case(
    CaseSpec(
        name="deep-halo-tuning",
        title="Deep-halo ghost cells: bit-exact physics, fewer messages",
        description=(
            "Shear-wave workload checked between the single-domain and the "
            "2-rank distributed solver at ghost depths 1-2, then the "
            "calibrated BG/Q cost model picks the runtime-optimal depth "
            "for a 200k-plane production run (paper Fig. 10)."
        ),
        lattice="D3Q39",
        shape=(36, 5, 5),
        tau=0.8,
        initial=_shear_initial,
        steps=8,
        monitor_every=4,
        observables=dict(BASE_OBSERVABLES),
        analysis=_deep_halo_analysis,
        checks=_deep_halo_checks,
        report=_deep_halo_report,
        params={"num_ranks": 2, "model_shape": (200_000, 40, 40)},
        tags=("parallel", "model", "fast"),
    )
)


# -- scaling-study (ported example) ----------------------------------------


@functools.lru_cache(maxsize=None)
def _scaling_model_data(lattice_name: str):
    """All cost-model outputs of the study, computed once per lattice."""
    from ..lattice import get_lattice
    from ..machine import BLUE_GENE_Q, roofline
    from ..perf import (
        CostModel,
        Placement,
        Workload,
        best_point,
        ladder_states,
        sweep_hybrid,
    )
    from ..perf.optimization import OptimizationLevel

    lattice = get_lattice(lattice_name)
    model = CostModel(BLUE_GENE_Q, lattice)
    states = ladder_states(BLUE_GENE_Q, lattice)
    params = dict(states)[OptimizationLevel.SIMD]

    ladder_placement = Placement(nodes=64, tasks_per_node=32)
    ladder_workload = Workload(lattice, (ladder_placement.total_ranks * 32, 64, 64))
    ladder = [
        (lv.value, model.mflups_aggregate(p, ladder_workload, ladder_placement))
        for lv, p in states
    ]
    peak = (
        roofline(BLUE_GENE_Q, lattice).attainable_mflups * ladder_placement.nodes
    )

    scaling_workload = Workload(lattice, (4096, 64, 64))
    base = None
    scaling = []  # (nodes, aggregate MFlup/s, efficiency)
    for nodes in (8, 16, 32, 64, 128):
        agg = model.mflups_aggregate(
            params, scaling_workload, Placement(nodes=nodes, tasks_per_node=32)
        )
        base = base or agg / nodes * 8
        scaling.append((nodes, agg, agg / (base * nodes / 8)))

    hybrid_workload = Workload(lattice, (12800, 40, 40))
    combos = ((1, 64), (2, 32), (4, 16), (8, 8), (16, 4), (32, 2), (64, 1))
    points = sweep_hybrid(
        BLUE_GENE_Q, lattice, params, hybrid_workload, 16, combos
    )
    return {
        "ladder": ladder,
        "peak": peak,
        "scaling": scaling,
        "hybrid_points": points,
        "hybrid_best": best_point(points),
    }


def _scaling_analysis(result: CaseResult) -> dict:
    import time

    from ..parallel import DistributedSimulation

    data = _scaling_model_data(result.simulation.lattice.name)
    ladder_best = max(value for _, value in data["ladder"])
    efficiency = {nodes: eff for nodes, _, eff in data["scaling"]}
    best = data["hybrid_best"]
    # Measured counterpart of the model study: re-run the same workload
    # on the in-process slab solver under the spec's dtype and verify
    # the gathered state against the single-domain run — the end-to-end
    # hook the CI distributed smoke job drives.
    spec = result.spec
    sim = result.simulation
    dist = DistributedSimulation(
        sim.lattice,
        spec.shape,
        tau=spec.tau,
        num_ranks=int(spec.params.get("num_ranks", 2)),
        ghost_depth=int(spec.params.get("ghost_depth", 1)),
        dtype=spec.dtype,
    )
    rho, u = spec.initial(spec)
    dist.initialize(rho, u)
    start = time.perf_counter()
    dist.run(sim.time_step)
    elapsed = time.perf_counter() - start
    gather_error = float(
        np.abs(dist.gather().astype(np.float64) - sim.f.astype(np.float64)).max()
    )
    return {
        "ladder_best_mflups": ladder_best,
        "model_peak_mflups": data["peak"],
        "ladder_fraction_of_peak": ladder_best / data["peak"],
        "scaling_efficiency_32": efficiency[32],
        "scaling_efficiency_128": efficiency[128],
        "hybrid_best": best.label,
        "hybrid_best_runtime_s": best.runtime_s,
        "distributed_mflups": sim.time_step
        * sim.num_cells
        / max(elapsed, 1e-12)
        / 1e6,
        "distributed_gather_error": gather_error,
        "distributed_comm_bytes": dist.total_comm_bytes(),
    }


def _scaling_checks(result: CaseResult) -> dict:
    m = result.metrics
    return {
        "ladder_below_roofline": m["ladder_best_mflups"]
        <= m["model_peak_mflups"],
        "scaling_efficiency_decays": 1.01
        >= m["scaling_efficiency_32"]
        > m["scaling_efficiency_128"]
        > 0.0,
        "mid_scale_efficiency_reasonable": m["scaling_efficiency_32"] > 0.5,
        "hybrid_has_feasible_best": m["hybrid_best_runtime_s"] is not None,
        "distributed_matches_single_domain": m["distributed_gather_error"]
        < _gather_tol(result.spec),
    }


def _scaling_report(result: CaseResult) -> str:
    from ..analysis import bar_chart, render_table

    name = result.simulation.lattice.name
    data = _scaling_model_data(name)
    chart = bar_chart(
        [label for label, _ in data["ladder"]],
        [value for _, value in data["ladder"]],
        title=(
            f"Optimization ladder, {name} on 64 BG/Q nodes "
            f"(model peak {data['peak']:.0f} MFlup/s)"
        ),
    )
    scaling = render_table(
        ["nodes", "MFlup/s", "scaling efficiency"],
        [[nodes, f"{agg:.0f}", f"{eff:.1%}"] for nodes, agg, eff in data["scaling"]],
        title=f"Strong scaling, {name}, 4096x64x64 grid",
    )
    best = data["hybrid_best"]
    hybrid = render_table(
        ["tasks-threads", "runtime (s)", "ghost depth", ""],
        [
            [
                p.label,
                "infeasible" if p.runtime_s is None else f"{p.runtime_s:.1f}",
                p.best_depth or "-",
                "<-- best" if p is best else "",
            ]
            for p in data["hybrid_points"]
        ],
        title=f"Hybrid placement, {name}, 16 BG/Q nodes",
    )
    return "\n\n".join([chart, scaling, hybrid])


SCALING = register_case(
    CaseSpec(
        name="scaling-study",
        title="Machine-model scaling study (ladder, strong scaling, hybrid)",
        description=(
            "Small measured run plus the calibrated Blue Gene/Q models: "
            "expected throughput per optimization level, strong-scaling "
            "efficiency, and the best hybrid tasks x threads placement "
            "(sweep `lattice` to compare D3Q19 vs D3Q39).  Also re-runs "
            "the workload on the in-process slab solver (`num_ranks`, "
            "`ghost_depth` params) under the case's dtype and "
            "checks the gathered state against the single-domain run."
        ),
        lattice="D3Q19",
        shape=(32, 32, 4),
        tau=0.7,
        initial=_tg_initial,
        steps=60,
        monitor_every=20,
        observables=dict(BASE_OBSERVABLES),
        analysis=_scaling_analysis,
        checks=_scaling_checks,
        report=_scaling_report,
        params={"u0": 1e-3, "num_ranks": 2, "ghost_depth": 1},
        tags=("model", "parallel", "fast"),
    )
)


# -- bifurcating-vessel (sparse indirect addressing) -----------------------


def _bifurcation_geometry(spec: CaseSpec) -> np.ndarray:
    """Solid mask of a channel that splits into two branches and rejoins.

    Two tubes whose centrelines diverge as ``offset * sin(pi x / nx)``
    — coincident at both ends, so the geometry is periodic in x and a
    body force drives a closed-loop flow through both branches.
    """
    nx, ny, nz = spec.shape
    radius = float(spec.params["tube_radius"])
    offset = float(spec.params["branch_offset"])
    x = np.arange(nx)[:, None, None]
    y = np.arange(ny)[None, :, None]
    z = np.arange(nz)[None, None, :]
    d = offset * np.sin(np.pi * x / nx)
    r2 = radius**2
    dz2 = (z - (nz - 1) / 2) ** 2
    upper = (y - ((ny - 1) / 2 + d)) ** 2 + dz2 <= r2
    lower = (y - ((ny - 1) / 2 - d)) ** 2 + dz2 <= r2
    return ~(upper | lower)


def _bifurcation_analysis(result: CaseResult) -> dict:
    sim = result.simulation
    _, u = sim.macroscopic()
    axial = sim.domain.scatter(u[0], fill=0.0)
    ny = result.spec.shape[1]
    mid = result.spec.shape[0] // 2
    return {
        "fill_fraction": sim.domain.fill_fraction,
        "num_fluid": sim.domain.num_fluid,
        "mean_axial_velocity": float(u[0].mean()),
        "upper_branch_flow": float(axial[mid, ny // 2 :, :].sum()),
        "lower_branch_flow": float(axial[mid, : ny // 2, :].sum()),
        "mass_drift": _mass_drift(result),
    }


def _bifurcation_checks(result: CaseResult) -> dict:
    m = result.metrics
    return {
        "upper_branch_flows": m["upper_branch_flow"] > 0,
        "lower_branch_flows": m["lower_branch_flow"] > 0,
        "sparse_fill_below_half": m["fill_fraction"] < 0.5,
        "mass_conserved": m["mass_drift"] < _mass_rtol(result),
    }


BIFURCATION = register_case(
    CaseSpec(
        name="bifurcating-vessel",
        title="Body-force flow through a bifurcating vessel (sparse domain)",
        description=(
            "A periodic channel that splits into two branches and rejoins, "
            "solved on the indirect-addressing sparse path (populations "
            "stored per fluid site, walls fused into the gather table); "
            "checks that both branches carry flow and that the fluid set "
            "stays below half the bounding box — the regime where sparse "
            "storage wins (sweep `branch_offset`/`tube_radius` for other "
            "vessel trees, or `dtype` to halve the bytes per site)."
        ),
        lattice="D3Q19",
        shape=(32, 20, 12),
        tau=0.8,
        geometry=_bifurcation_geometry,
        forcing=(1e-5, 0.0, 0.0),
        steps=400,
        monitor_every=50,
        observables=dict(BASE_OBSERVABLES),
        analysis=_bifurcation_analysis,
        checks=_bifurcation_checks,
        params={"sparse": True, "tube_radius": 3.0, "branch_offset": 4.5},
        tags=("continuum", "application", "sparse"),
    )
)


ALL_CASES = (
    TAYLOR_GREEN,
    POISEUILLE,
    ARTERY,
    MICROCHANNEL,
    CLOGGING,
    CAVITY,
    POROUS,
    DEEP_HALO,
    SCALING,
    BIFURCATION,
)
