"""Sedov-Taylor blast wave against the analytic similarity solution.

The third workload (the paper's future work applies the method to other
GPU simulation codes; Sedov is SPH-EXA's canonical validation test). A
thermal spike in a cold uniform box drives a blast wave; the measured
shock radius is compared against R(t) = xi_0 (E t^2 / rho_0)^(1/5)
while the instrumented energy measurement runs as usual.

    python examples/sedov_blast.py [nside] [steps] [--skin S]
        [--ranks N]
"""

import argparse

from repro.core import function_share_percent
from repro.reporting import render_breakdown
from repro.sph import NumericProblem, Simulation
from repro.sph.init import (
    SedovConfig,
    analytic_shock_radius,
    make_sedov,
    make_sedov_eos,
    shock_radius,
)
from repro.systems import Cluster, mini_hpc
from repro.units import format_energy, format_time


def main() -> None:
    parser = argparse.ArgumentParser(description="Sedov blast example")
    parser.add_argument("nside", type=int, nargs="?", default=14)
    parser.add_argument("steps", type=int, nargs="?", default=10)
    parser.add_argument(
        "--skin",
        type=float,
        default=0.1,
        help="Verlet skin in units of h; 0 searches every step "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--ranks",
        type=int,
        default=1,
        help="simulated MPI ranks (default %(default)s)",
    )
    args = parser.parse_args()
    nside, steps = args.nside, args.steps

    cfg = SedovConfig(nside=nside, blast_energy=1.0, seed=11)
    particles = make_sedov(cfg)
    print(
        f"Sedov blast: {particles.n} particles ({nside}^3), "
        f"E = {cfg.blast_energy}, {steps} steps"
    )
    e0 = particles.internal_energy()

    cluster = Cluster(mini_hpc(), n_ranks=args.ranks)
    try:
        problem = NumericProblem(
            particles=particles,
            n_ranks=args.ranks,
            eos=make_sedov_eos(cfg),
            box_size=cfg.box_size,
            skin=args.skin,
        )
        sim = Simulation(
            cluster, "SedovBlast",
            n_particles_per_rank=particles.n / args.ranks,
            numeric=problem,
        )
        sim.initialize()
        sim.profiler.open_window()

        print(f"\n{'step':>4} {'t':>10} {'dt':>10} {'R_shock':>9} "
              f"{'R_analytic':>11} {'Ekin/E0':>8} {'dE/E0':>8}")
        t = 0.0
        for step in range(steps):
            sim._run_step()
            t += problem.dt
            r_meas = shock_radius(particles, cfg)
            r_ana = analytic_shock_radius(cfg, t)
            e_tot = particles.kinetic_energy() + particles.internal_energy()
            print(
                f"{step:>4} {t:>10.2e} {problem.dt:>10.2e} "
                f"{r_meas:>9.4f} {r_ana:>11.4f} "
                f"{particles.kinetic_energy() / e0:>8.3f} "
                f"{(e_tot - e0) / e0:>+8.2%}"
            )
        sim.profiler.close_window()
        report = sim.profiler.gather(cluster.comm)

        print(f"\nsimulated wall time: {format_time(report.max_window_time_s())}")
        print(f"GPU energy: {format_energy(report.total_window_gpu_j())}")
        print()
        print(
            render_breakdown(
                function_share_percent(report, "GPU"),
                title="GPU energy share per function [%]",
            )
        )
    finally:
        cluster.detach_management_library()


if __name__ == "__main__":
    main()
