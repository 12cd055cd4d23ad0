"""Figure 8 — §9.3 control plane preparation time.

Measures real wall-clock computation time of the control-plane
preparation for 1000 updates on B4, Internet2, AttMpls and Chinanet,
and reports the ratio DL-P4Update / ez-Segway:

* Fig. 8a — without congestion freedom: distance labeling +
  segmentation (P4Update) vs segmentation + in_loop classification +
  order encoding (ez-Segway).  Paper ratio: 0.68-0.73.
* Fig. 8b — with congestion freedom: P4Update adds nothing (the
  dependency resolution lives in the data plane); ez-Segway must also
  build the centralized inter-flow dependency graph with static
  priorities.  Paper ratio: 0.002-0.02 (50x-500x).

Wall-clock times are printed and recorded in the manifest for the
figure itself, but the pass/fail assertions use a deterministic proxy:
the number of Python function calls each preparation executes
(counted via ``sys.setprofile``).  Call counts are identical across
runs and machines, so CI cannot flake on a loaded host.  They order
the systems the way the wall clock does (Fig. 8a: counted 0.22-0.26,
wall clock 0.20-0.27 in the committed record).  Neither sits in the
paper's 0.68-0.73 band: P4Update's preparation here is one walk over
the new path building tuple-backed UIMs, and the earlier ~0.74 was
mostly dataclass construction — see EXPERIMENTS.md, "Fig. 8".

The measurement core is shared with the sweep executor — see
:mod:`repro.harness.prep` (``repro fig8 --workers N`` runs the same
counts as fleet shards).
"""

from benchutils import emit_manifest, print_header

from repro.harness.prep import (
    DEFAULT_COUNT_UPDATES as COUNT_UPDATES,
    DEFAULT_UPDATES as UPDATES,
    FIG8_LABELS,
    FIG8_TOPOLOGIES,
    count_operations,
    prep_workload,
    time_ez,
    time_ez_congestion,
    time_p4update,
)
from repro.topo import (
    attmpls_topology,
    b4_topology,
    chinanet_topology,
    internet2_topology,
)

TOPOLOGIES = [
    (FIG8_LABELS["b4"], b4_topology),
    (FIG8_LABELS["internet2"], internet2_topology),
    (FIG8_LABELS["attmpls"], attmpls_topology),
    (FIG8_LABELS["chinanet"], chinanet_topology),
]

assert len(TOPOLOGIES) == len(FIG8_TOPOLOGIES)


def collect_ratios(obs=None):
    from repro.obs import NULL_OBS

    obs = obs if obs is not None else NULL_OBS
    rows = []
    for label, topo_factory in TOPOLOGIES:
        with obs.spans.span("preparation_workload", topology=label):
            topo, scenario, deployment = prep_workload(topo_factory)
            flows = scenario.flows
            with obs.spans.span("time_p4update"):
                t_p4 = time_p4update(deployment, flows)
            with obs.spans.span("time_ezsegway"):
                t_ez = time_ez(flows)
            with obs.spans.span("time_ezsegway_congestion"):
                t_ez_cong = time_ez_congestion(topo, flows)
            with obs.spans.span("count_operations"):
                ops = count_operations(topo, deployment, flows)
        if obs.enabled:
            per_update_us = 1e6 / UPDATES
            obs.metrics.histogram(
                "prep_time_us", system="p4update"
            ).observe(t_p4 * per_update_us)
            obs.metrics.histogram(
                "prep_time_us", system="ezsegway"
            ).observe(t_ez * per_update_us)
            obs.metrics.histogram(
                "prep_time_us", system="ezsegway-congestion"
            ).observe(t_ez_cong * per_update_us)
        rows.append((label, t_p4, t_ez, t_ez_cong, ops))
    return rows


def test_fig8_preparation_ratio(benchmark):
    from repro.obs import make_obs

    obs = make_obs()
    rows = benchmark.pedantic(collect_ratios, args=(obs,), rounds=1, iterations=1)

    print_header("Fig. 8a — preparation time ratio DL-P4Update / ez-Segway "
                 f"(no congestion freedom, {UPDATES} updates)")
    for label, t_p4, t_ez, _, _ in rows:
        print(f"{label:22s} p4={t_p4*1e3:8.1f} ms  ez={t_ez*1e3:8.1f} ms  "
              f"ratio={t_p4/t_ez:5.2f}   (paper: 0.68-0.73)")

    print_header("Fig. 8b — with congestion freedom")
    for label, t_p4, _, t_ez_cong, _ in rows:
        print(f"{label:22s} p4={t_p4*1e3:8.1f} ms  ez={t_ez_cong*1e3:8.1f} ms  "
              f"ratio={t_p4/t_ez_cong:7.4f}   (paper: 0.002-0.02)")

    print_header(f"deterministic operation counts ({COUNT_UPDATES} updates)")
    for label, _, _, _, (c_p4, c_ez, c_cong) in rows:
        print(f"{label:22s} p4={c_p4:8d} ez={c_ez:8d} ez+cong={c_cong:9d}  "
              f"ratio_a={c_p4/c_ez:5.2f}  ratio_b={c_p4/c_cong:7.4f}")

    # Assertions run on the operation counts, not the wall clock:
    # identical across runs and hosts, so a loaded CI machine cannot
    # flip the verdict.
    for label, _, _, _, (c_p4, c_ez, c_cong) in rows:
        ratio_a = c_p4 / c_ez
        ratio_b = c_p4 / c_cong
        assert ratio_a < 1.0, (
            f"{label}: P4Update prep must be cheaper ({ratio_a:.2f})"
        )
        assert ratio_b < 0.2, (
            f"{label}: congestion freedom must collapse the ratio ({ratio_b:.4f})"
        )

    emit_manifest(
        "fig8_preparation",
        params={
            "updates": UPDATES,
            "count_updates": COUNT_UPDATES,
            "topologies": [label for label, _ in TOPOLOGIES],
        },
        results={
            label: {
                "p4update_s": t_p4,
                "ezsegway_s": t_ez,
                "ezsegway_congestion_s": t_ez_cong,
                "ratio_a": t_p4 / t_ez,
                "ratio_b": t_p4 / t_ez_cong,
                "p4update_ops": c_p4,
                "ezsegway_ops": c_ez,
                "ezsegway_congestion_ops": c_cong,
                "op_ratio_a": c_p4 / c_ez,
                "op_ratio_b": c_p4 / c_cong,
            }
            for label, t_p4, t_ez, t_ez_cong, (c_p4, c_ez, c_cong) in rows
        },
        seed=0,
        obs=obs,
    )
