"""Experiments E1–E10: one per claim in the paper (DESIGN.md §6).

Each function runs a sweep, renders tables, and evaluates executable
checks of the corresponding claim's *shape* (growth exponents, orderings,
crossovers, bounds).  ``Scale`` controls sweep sizes: ``QUICK`` keeps the
benchmarks snappy; ``FULL`` feeds the EXPERIMENTS.md report.

The paper has no empirical tables (it is a theory paper); the claims being
regenerated are the complexity statements of Sections 3–5, inventoried in
DESIGN.md §1.

Execution goes through :func:`repro.harness.parallel.run_sweep`: each
experiment stages its independent runs as a task list, the executor fans
them across cores when that pays off, and the results come back in task
order — so tables, checks, and verdicts are identical whether a sweep ran
serially or in parallel (the determinism suite asserts exactly this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.adversary import wakeup
from repro.adversary.congestion import hotspot_scenario
from repro.adversary.delays import worst_case_unit
from repro.adversary.lower_bound import adversarial_run, corollary_bound, theorem_bound
from repro.analysis.charts import chart_series
from repro.analysis.complexity import boundedness_ratio, loglog_slope
from repro.apps.broadcast import Broadcast
from repro.apps.global_function import GlobalFunction
from repro.apps.spanning_tree import SpanningTree
from repro.core.reliable import ReliableDelivery
from repro.harness.parallel import run_sweep
from repro.harness.runner import ExperimentReport, messages_summary, time_summary
from repro.protocols.nosense.fault_tolerant import FaultTolerantElection
from repro.protocols.nosense.protocol_d import ProtocolD
from repro.protocols.nosense.protocol_e import AfekGafni, ProtocolE
from repro.protocols.nosense.protocol_f import ProtocolF
from repro.protocols.nosense.protocol_g import ProtocolG
from repro.protocols.sense.chang_roberts import ChangRoberts
from repro.protocols.sense.hirschberg_sinclair import HirschbergSinclair
from repro.protocols.sense.lmw86 import LMW86
from repro.protocols.sense.protocol_a import ProtocolA, ProtocolAPrime
from repro.protocols.sense.protocol_b import ProtocolB
from repro.protocols.sense.protocol_c import ProtocolC
from repro.sim.faults import FaultPlan
from repro.sim.network import Network, run_election
from repro.topology.complete import (
    complete_with_sense_of_direction,
    complete_without_sense,
)
from repro.topology.sense_of_direction import (
    ascii_figure,
    figure1,
    verify_sense_of_direction,
)


@dataclass(frozen=True)
class Scale:
    """Sweep sizes for one pass over the experiments."""

    ns: tuple[int, ...] = (16, 32, 64, 128)
    n_fixed: int = 128
    ks: tuple[int, ...] = (4, 8, 16, 32, 64)
    failure_counts: tuple[int, ...] = (0, 4, 8, 16, 31)
    base_counts: tuple[int, ...] = (1, 4, 16, 64, 128)
    seeds: tuple[int, ...] = (1, 2, 3)


QUICK = Scale()
FULL = Scale(
    ns=(16, 32, 64, 128, 256, 512),
    n_fixed=256,
    ks=(4, 8, 16, 32, 64, 128),
    failure_counts=(0, 8, 16, 32, 63),
    base_counts=(1, 4, 16, 64, 256),
    seeds=(1, 2, 3, 4, 5),
)


# ---------------------------------------------------------------------------
# E1 — Figure 1: the sense-of-direction labeling
# ---------------------------------------------------------------------------


def e1_figure1(scale: Scale = QUICK) -> ExperimentReport:
    """Reproduce Figure 1 and validate the labeling laws at every size."""
    report = ExperimentReport(
        "E1 — Figure 1 (sense of direction)",
        "A complete network has sense of direction when a directed "
        "Hamiltonian cycle exists and each edge is labeled with the cyclic "
        "distance to its far end (Figure 1 shows N=6).",
    )
    topology = figure1()
    verify_sense_of_direction(topology)
    report.check("figure-1 labeling is a valid sense of direction", True)
    report.find("figure 1", "\n" + ascii_figure(topology))
    rows = []
    for n in scale.ns:
        big = complete_with_sense_of_direction(n)
        verify_sense_of_direction(big)
        rows.append((n, big.num_ports, n * (n - 1) // 2))
    report.add_table(
        "Labeling validated at scale", ("N", "labeled ports/node", "edges"), rows
    )
    report.check(
        "labels are antisymmetric and cyclically consistent at every N",
        True,
        f"checked N in {scale.ns}",
    )
    return report


# ---------------------------------------------------------------------------
# E2 — message complexity with sense of direction
# ---------------------------------------------------------------------------

SENSE_PROTOCOLS = (
    ("CR", ChangRoberts),
    ("HS", HirschbergSinclair),
    ("LMW86", LMW86),
    ("A", ProtocolA),
    ("A'", ProtocolAPrime),
    ("B", ProtocolB),
    ("C", ProtocolC),
)


def e2_messages_sense(scale: Scale = QUICK) -> ExperimentReport:
    """LMW86/A/A′/C are O(N) messages; B is O(N log N)."""
    report = ExperimentReport(
        "E2 — messages, with sense of direction",
        "LMW86, A, A' and C require O(N) messages; B requires O(N log N) "
        "(Section 3).  All nodes wake simultaneously; worst-case unit delays.",
    )
    series: dict[str, list[float]] = {name: [] for name, _ in SENSE_PROTOCOLS}
    results = iter(run_sweep([
        lambda n=n, cls=cls: run_election(
            cls(), complete_with_sense_of_direction(n), delays=worst_case_unit()
        )
        for n in scale.ns
        for _, cls in SENSE_PROTOCOLS
    ]))
    rows = []
    for n in scale.ns:
        row: list[object] = [n]
        for name, _ in SENSE_PROTOCOLS:
            result = next(results)
            series[name].append(result.messages_total)
            row.append(result.messages_total)
        rows.append(row)
    report.add_table(
        "Total messages vs N",
        ("N", *(name for name, _ in SENSE_PROTOCOLS)),
        rows,
    )
    for name in ("LMW86", "A", "A'", "C"):
        slope = loglog_slope(scale.ns, series[name])
        report.find(f"{name} message growth exponent", round(slope, 3))
        report.check(
            f"{name} messages grow ~linearly (exponent <= 1.25)",
            slope <= 1.25,
            f"exponent {slope:.3f}",
        )
    slope_b = loglog_slope(scale.ns, series["B"])
    slope_c = loglog_slope(scale.ns, series["C"])
    report.find("B message growth exponent", round(slope_b, 3))
    report.check(
        "B (N log N) grows strictly faster than C (N)",
        slope_b > slope_c + 0.05,
        f"B {slope_b:.3f} vs C {slope_c:.3f}",
    )
    ratio = boundedness_ratio(scale.ns, series["C"], lambda n: n)
    report.check(
        "C messages/N stays within a constant band",
        ratio <= 3.0,
        f"max/min of messages/N = {ratio:.2f}",
    )
    report.find(
        "shape at a glance (log scale)",
        "\n" + chart_series(scale.ns, series),
    )
    return report


# ---------------------------------------------------------------------------
# E3 — time complexity with sense of direction
# ---------------------------------------------------------------------------


def e3_time_sense(scale: Scale = QUICK) -> ExperimentReport:
    """Under the chain wake-up: A is Θ(N), A′ is O(√N), C is O(log N)."""
    report = ExperimentReport(
        "E3 — time, with sense of direction",
        "The staggered chain (node i+1 wakes just before i's message "
        "arrives) drives A to Θ(N) time; A' bounds it by O(√N) via wake-up "
        "spreading; C runs in O(log N) (Section 3).",
    )
    protocols = (("LMW86", LMW86), ("A", ProtocolA), ("A'", ProtocolAPrime),
                 ("C", ProtocolC))
    series: dict[str, list[float]] = {name: [] for name, _ in protocols}
    results = iter(run_sweep([
        lambda n=n, cls=cls: run_election(
            cls(),
            complete_with_sense_of_direction(n),
            delays=worst_case_unit(),
            wakeup=wakeup.staggered_chain(),
        )
        for n in scale.ns
        for _, cls in protocols
    ]))
    rows = []
    for n in scale.ns:
        row: list[object] = [n]
        for name, _ in protocols:
            result = next(results)
            series[name].append(result.election_time)
            row.append(round(result.election_time, 2))
        rows.append(row)
    report.add_table(
        "Election time vs N (chain wake-up)",
        ("N", *(name for name, _ in protocols)),
        rows,
    )
    slope_a = loglog_slope(scale.ns, series["A"])
    slope_ap = loglog_slope(scale.ns, series["A'"])
    slope_c = loglog_slope(scale.ns, series["C"])
    report.find("A time exponent", round(slope_a, 3))
    report.find("A' time exponent", round(slope_ap, 3))
    report.find("C time exponent", round(slope_c, 3))
    report.check("A suffers ~linear time", slope_a >= 0.75, f"{slope_a:.3f}")
    report.check(
        "A' time grows like √N (exponent <= 0.72)", slope_ap <= 0.72, f"{slope_ap:.3f}"
    )
    report.check(
        "C time grows sublinearly, slower than A'",
        slope_c < slope_ap and slope_c <= 0.55,
        f"C {slope_c:.3f} vs A' {slope_ap:.3f}",
    )
    n_max = scale.ns[-1]
    final_c, final_ap, final_a = series["C"][-1], series["A'"][-1], series["A"][-1]
    report.check(
        "at the largest N the order is C < A' < A",
        final_c < final_ap < final_a,
        f"N={n_max}: C {final_c:.1f}, A' {final_ap:.1f}, A {final_a:.1f}",
    )
    report.find(
        "shape at a glance (log scale)",
        "\n" + chart_series(scale.ns, series),
    )
    return report


# ---------------------------------------------------------------------------
# E4 — Protocol A's k trade-off
# ---------------------------------------------------------------------------


def e4_k_tradeoff_a(scale: Scale = QUICK) -> ExperimentReport:
    """A's O(N + N²/k²) messages and A′'s O(k + N/k) time, swept over k."""
    report = ExperimentReport(
        "E4 — Protocol A/A' trade-off over k",
        "A sends O(N + N²/k²) messages, so k = √N is message-optimal; A' "
        "runs in O(k + N/k) time, minimised at the same point (Section 3).",
    )
    n = scale.n_fixed
    rows = []
    msgs_by_k: list[float] = []
    time_by_k: list[float] = []
    ks = [k for k in scale.ks if k <= n - 1]
    # The adversarial wake-up that makes both terms of O(k + N/k) bite:
    # a chain just *faster* than A''s awaken spread (which covers k
    # positions per time unit), so every node is still a base node and
    # the surviving candidate — the largest identity, at the far end —
    # wakes only after ~0.9·N/k, then pays its O(k) capture phase.
    results = run_sweep([
        lambda k=k: run_election(
            ProtocolAPrime(k=k),
            complete_with_sense_of_direction(n),
            delays=worst_case_unit(),
            wakeup=wakeup.staggered_uniform(n, spread=0.9 * n / k),
        )
        for k in ks
    ])
    for k, result in zip(ks, results):
        msgs_by_k.append(result.messages_total)
        time_by_k.append(result.election_time)
        rows.append((k, result.messages_total, round(result.election_time, 2)))
    report.add_table(
        f"A' at N={n}, chain wake-up at the awaken-spread rate",
        ("k", "messages", "time"),
        rows,
    )
    sqrt_index = min(
        range(len(ks)), key=lambda i: abs(ks[i] - math.sqrt(n))
    )
    report.find("k nearest √N", ks[sqrt_index])
    report.check(
        "messages at k≈√N beat small k (the N²/k² term)",
        msgs_by_k[sqrt_index] <= msgs_by_k[0],
        f"{msgs_by_k[sqrt_index]:.0f} <= {msgs_by_k[0]:.0f}",
    )
    report.check(
        "time at k≈√N beats both extremes (the k + N/k curve)",
        time_by_k[sqrt_index] <= time_by_k[0]
        and time_by_k[sqrt_index] <= time_by_k[-1],
        f"time(k≈√N)={time_by_k[sqrt_index]:.1f}, "
        f"time(k={ks[0]})={time_by_k[0]:.1f}, time(k={ks[-1]})={time_by_k[-1]:.1f}",
    )
    return report


# ---------------------------------------------------------------------------
# E5 — protocols D and ℰ (and the congestion duel vs AG85)
# ---------------------------------------------------------------------------


def e5_d_and_e(scale: Scale = QUICK) -> ExperimentReport:
    """D: O(1) time / O(N²) messages.  ℰ: O(N log N) messages, O(1) per
    capture — demonstrated by the hotspot duel against AG85."""
    report = ExperimentReport(
        "E5 — protocols D and ℰ (vs AG85)",
        "D elects in O(1) time with O(N²) messages; ℰ keeps AG85's "
        "O(N log N) messages while making each capture O(1) time — under "
        "the forwarding-congestion execution AG85 takes Θ(N) (Section 4).",
    )
    d_msgs, d_time, e_msgs, e_time = [], [], [], []
    rows = []
    sweep = iter(run_sweep([
        lambda cls=cls, n=n, seed=seed: run_election(
            cls(), complete_without_sense(n, seed=seed), seed=seed
        )
        for n in scale.ns
        for cls in (ProtocolD, ProtocolE)
        for seed in scale.seeds
    ]))
    for n in scale.ns:
        rd = [next(sweep) for _ in scale.seeds]
        re_ = [next(sweep) for _ in scale.seeds]
        d_msgs.append(messages_summary(rd).mean)
        d_time.append(time_summary(rd).mean)
        e_msgs.append(messages_summary(re_).mean)
        e_time.append(time_summary(re_).mean)
        rows.append(
            (n, int(d_msgs[-1]), round(d_time[-1], 2), int(e_msgs[-1]),
             round(e_time[-1], 2))
        )
    report.add_table(
        "D vs ℰ (simultaneous wake, unit delays)",
        ("N", "D msgs", "D time", "E msgs", "E time"),
        rows,
    )
    slope_d = loglog_slope(scale.ns, d_msgs)
    slope_e = loglog_slope(scale.ns, e_msgs)
    report.find("D message exponent", round(slope_d, 3))
    report.find("E message exponent", round(slope_e, 3))
    report.check("D messages grow ~quadratically", slope_d >= 1.8, f"{slope_d:.3f}")
    report.check(
        "D time is constant", max(d_time) <= 4.0, f"max {max(d_time):.2f}"
    )
    report.check(
        "E messages grow ~N log N (exponent in [1, 1.45])",
        1.0 <= slope_e <= 1.45,
        f"{slope_e:.3f}",
    )

    duel_rows = []
    ag_times, e_times = [], []
    duel_ns = [n for n in scale.ns if n >= 6]

    def duel_run(cls, n):
        topo, wake, delays = hotspot_scenario(n)
        return Network(cls(), topo, delays=delays, wakeup=wake).run()

    duel = iter(run_sweep([
        lambda cls=cls, n=n: duel_run(cls, n)
        for n in duel_ns
        for cls in (AfekGafni, ProtocolE)
    ]))
    for n in duel_ns:
        r_ag = next(duel)
        r_e = next(duel)
        ag_times.append(r_ag.election_time)
        e_times.append(r_e.election_time)
        duel_rows.append(
            (n, round(r_ag.election_time, 2), round(r_e.election_time, 2),
             round(r_ag.election_time / r_e.election_time, 2),
             r_ag.max_channel_load, r_e.max_channel_load)
        )
    report.add_table(
        "Forwarding-congestion duel (link load = busiest directed channel)",
        ("N", "AG85 time", "E time", "speed-up", "AG85 link load",
         "E link load"),
        duel_rows,
    )
    report.check(
        "flow control caps the hotspot link load AG85 lets grow ~linearly",
        duel_rows[-1][4] > 4 * duel_rows[-1][5],
        f"N={duel_rows[-1][0]}: AG85 {duel_rows[-1][4]} vs ℰ {duel_rows[-1][5]}",
    )
    slope_ag = loglog_slope(scale.ns, ag_times)
    report.find("AG85 hotspot time exponent", round(slope_ag, 3))
    report.check(
        "AG85 takes ~Θ(N) on the hotspot while ℰ stays fast",
        slope_ag >= 0.85 and ag_times[-1] / e_times[-1] >= 3.0,
        f"AG85 exponent {slope_ag:.3f}, final speed-up "
        f"{ag_times[-1] / e_times[-1]:.1f}x",
    )
    return report


# ---------------------------------------------------------------------------
# E6 — the ℱ/𝒢 family trade-off and the chain robustness of 𝒢
# ---------------------------------------------------------------------------


def e6_fg_tradeoff(scale: Scale = QUICK) -> ExperimentReport:
    """ℱ/𝒢: O(Nk) messages vs O(N/k) time; 𝒢 survives the chain."""
    report = ExperimentReport(
        "E6 — ℱ/𝒢 message-time trade-off over k",
        "ℱ and 𝒢 send O(Nk) messages and finish in O(N/k) time "
        "(Lemmas 4.1-4.3); ℱ's time bound needs clustered wake-ups, 𝒢's "
        "does not (Section 4).",
    )
    n = scale.n_fixed
    ks = [k for k in scale.ks if k <= n - 1]
    rows = []
    f_msgs, f_time, g_msgs, g_time = [], [], [], []
    sweep = iter(run_sweep([
        lambda cls=cls, k=k, seed=seed: run_election(
            cls(k=k), complete_without_sense(n, seed=seed),
            delays=worst_case_unit(), seed=seed,
        )
        for k in ks
        for cls in (ProtocolF, ProtocolG)
        for seed in scale.seeds
    ]))
    for k in ks:
        rf = [next(sweep) for _ in scale.seeds]
        rg = [next(sweep) for _ in scale.seeds]
        f_msgs.append(messages_summary(rf).mean)
        f_time.append(time_summary(rf).mean)
        g_msgs.append(messages_summary(rg).mean)
        g_time.append(time_summary(rg).mean)
        rows.append(
            (k, int(f_msgs[-1]), round(f_time[-1], 1), int(g_msgs[-1]),
             round(g_time[-1], 1))
        )
    report.add_table(
        f"ℱ and 𝒢 at N={n} (simultaneous wake)",
        ("k", "F msgs", "F time", "G msgs", "G time"),
        rows,
    )
    report.check(
        "G messages grow with k (the O(Nk) cost)",
        g_msgs[-1] > g_msgs[0] * 2,
        f"{g_msgs[0]:.0f} -> {g_msgs[-1]:.0f}",
    )
    report.check(
        "F time falls as k grows (the O(N/k) gain)",
        f_time[-1] < f_time[0],
        f"{f_time[0]:.1f} -> {f_time[-1]:.1f}",
    )

    # Chain robustness: the wake pattern Lemma 4.1 excludes.
    k_mid = ks[min(1, len(ks) - 1)]
    chain_f, chain_g = run_sweep([
        lambda cls=cls: run_election(
            cls(k=k_mid), complete_without_sense(n, seed=7),
            delays=worst_case_unit(), wakeup=wakeup.staggered_chain(), seed=7,
        )
        for cls in (ProtocolF, ProtocolG)
    ])
    report.find(
        f"chain wake-up at k={k_mid}",
        f"F time {chain_f.election_time:.1f}, G time {chain_g.election_time:.1f}",
    )
    report.check(
        "G beats F under the staggered chain (the point of the two phases)",
        chain_g.election_time < chain_f.election_time,
        f"G {chain_g.election_time:.1f} < F {chain_f.election_time:.1f}",
    )
    return report


# ---------------------------------------------------------------------------
# E7 — the Section 5 lower bound, executed
# ---------------------------------------------------------------------------


def e7_lower_bound(scale: Scale = QUICK) -> ExperimentReport:
    """Measured time respects N/16d and grows ~linearly under the adversary;
    the ℱ family's message-time product is Ω(N)."""
    report = ExperimentReport(
        "E7 — lower bound (Theorem 5.1 / corollary)",
        "A comparison-based protocol sending < Nd messages needs ≥ N/16d "
        "time; message-optimal protocols need Ω(N/log N).  We run the "
        "adversary (Up-first ports, unit delays, simultaneous wake) against "
        "ℰ and check the trade-off product across the ℱ family.",
    )
    rows = []
    times, bounds = [], []
    adversarial = run_sweep([
        lambda n=n: adversarial_run(ProtocolE(), n) for n in scale.ns
    ])
    for n, result in zip(scale.ns, adversarial):
        floor = theorem_bound(n, result.messages_total)
        times.append(result.election_time)
        bounds.append(floor)
        rows.append(
            (n, result.messages_total, round(result.election_time, 1),
             round(floor, 2), round(corollary_bound(n), 2))
        )
    report.add_table(
        "ℰ under the Section-5 adversary",
        ("N", "messages", "time", "N/16d floor", "corollary floor"),
        rows,
    )
    report.check(
        "measured time ≥ the N/16d floor at every N",
        all(t >= b for t, b in zip(times, bounds)),
        f"min slack {min(t / b for t, b in zip(times, bounds)):.1f}x",
    )
    slope_t = loglog_slope(scale.ns, times)
    report.find("adversarial time exponent", round(slope_t, 3))
    report.check(
        "adversarial time grows ~linearly in N",
        slope_t >= 0.85,
        f"{slope_t:.3f}",
    )

    # The engine of the proof (Lemmas 5.1/5.2): middle-band nodes stay in
    # order-equivalent states until asymmetric information physically
    # reaches them, so the symmetric prefix grows with band depth — and
    # with N.
    from repro.adversary.symmetry import check_band_symmetry
    from repro.topology.ports import UpDownPorts

    symmetry_rows = []
    centers = []
    # below ~32 nodes the "quarter deep" probe sits inside the extreme
    # band itself and the geometry degenerates
    sym_ns = [n for n in scale.ns if n >= 32]

    def traced_run(n):
        k = max(1, math.ceil(math.log2(n)))
        topology = complete_without_sense(n, port_strategy=UpDownPorts(k))
        return Network(
            ProtocolE(), topology, delays=worst_case_unit(), trace=True
        ).run()

    for n, traced in zip(
        sym_ns, run_sweep([lambda n=n: traced_run(n) for n in sym_ns])
    ):
        k = max(1, math.ceil(math.log2(n)))
        times = check_band_symmetry(traced, band_width=k)
        centers.append(times["center"])
        symmetry_rows.append(
            (n, round(times["near_extreme"], 1),
             round(times["quarter_deep"], 1), round(times["center"], 1),
             round(traced.election_time, 1))
        )
    report.add_table(
        "Band symmetry (Lemmas 5.1/5.2): how long identity-adjacent pairs "
        "stay order-equivalent",
        ("N", "near extreme", "quarter deep", "center", "election time"),
        symmetry_rows,
    )
    report.check(
        "symmetry persists longer deeper into the middle, at every N",
        all(row[1] < row[2] < row[3] for row in symmetry_rows),
    )
    slope_sym = loglog_slope([row[0] for row in symmetry_rows], centers)
    report.find("center-symmetry growth exponent", round(slope_sym, 3))
    report.check(
        "the center's symmetric prefix grows ~linearly with N "
        "(the proof's time floor)",
        slope_sym >= 0.85,
        f"{slope_sym:.3f}",
    )

    # Trade-off product: time × (messages/N) should be Ω(N) across k.
    n = scale.n_fixed
    ks = [k for k in scale.ks if k <= n - 1]
    product_rows = []
    products = []
    product_results = run_sweep([
        lambda k=k: run_election(
            ProtocolF(k=k), complete_without_sense(n, seed=11),
            delays=worst_case_unit(), seed=11,
        )
        for k in ks
    ])
    for k, result in zip(ks, product_results):
        d = result.messages_total / n
        product = result.election_time * d
        products.append(product)
        product_rows.append(
            (k, result.messages_total, round(result.election_time, 1),
             round(product, 1), round(n / 16, 1))
        )
    report.add_table(
        f"ℱ trade-off at N={n}: time × messages/N",
        ("k", "messages", "time", "time×d", "N/16"),
        product_rows,
    )
    report.check(
        "the time×d product never drops below N/16",
        all(p >= n / 16 for p in products),
        f"min product {min(products):.1f} vs floor {n / 16:.1f}",
    )
    return report


# ---------------------------------------------------------------------------
# E8 — fault tolerance
# ---------------------------------------------------------------------------


def e8_fault_tolerance(scale: Scale = QUICK) -> ExperimentReport:
    """Messages grow ~O(Nf + N log N); time stays sublinear; f < N/2."""
    report = ExperimentReport(
        "E8 — initial site failures",
        "The fault-tolerant variant elects a live leader despite f < N/2 "
        "initial site failures, with O(Nf + N log N) messages and "
        "sub-linear time (Section 4; BKWZ87 substitution per DESIGN.md §4).",
    )
    import random as random_module

    n = scale.n_fixed // 2
    rows = []
    msgs_by_f = []
    fs = [f for f in scale.failure_counts if f < n / 2]

    def faulty_run(f, seed):
        rng = random_module.Random(seed * 1000 + f)
        failed = set(rng.sample(range(1, n), f)) if f else set()
        return run_election(
            FaultTolerantElection(max_failures=max(f, 1)),
            complete_without_sense(n, seed=seed),
            failed_positions=failed,
            delays=worst_case_unit(),
            seed=seed,
        )

    sweep = iter(run_sweep([
        lambda f=f, seed=seed: faulty_run(f, seed)
        for f in fs
        for seed in scale.seeds
    ]))
    for f in fs:
        results = [next(sweep) for _ in scale.seeds]
        msgs = messages_summary(results)
        times = time_summary(results)
        msgs_by_f.append(msgs.mean)
        rows.append((f, str(msgs), str(times)))
    report.add_table(
        f"Fault-tolerant election at N={n}", ("f", "messages", "time"), rows
    )
    # The claim is an upper envelope: messages = O(N·f + N·log N).  Check
    # the worst constant over the sweep (one-sided — the f-term need not
    # dominate at small f).
    envelope = [
        msgs / (n * f + n * math.log2(n)) for f, msgs in zip(fs, msgs_by_f)
    ]
    report.find("messages / (N·f + N·log N), worst constant",
                round(max(envelope), 2))
    report.check(
        "messages stay under a constant times N·f + N·log N",
        max(envelope) <= 8.0,
        f"worst constant {max(envelope):.2f}",
    )
    report.check(
        "every run elected a live leader",
        True,
        "run_election verifies liveness/safety/validity on every run",
    )
    return report


# ---------------------------------------------------------------------------
# E9 — dependence on the number of base nodes
# ---------------------------------------------------------------------------


def e9_base_nodes(scale: Scale = QUICK) -> ExperimentReport:
    """Time grows with the number of base nodes r, then plateaus: ≤ O(N/k)
    for 𝒢, and O(log N + min(r, N/log N)) for the reconstructed R."""
    from repro.protocols.nosense.protocol_r import ProtocolR

    report = ExperimentReport(
        "E9 — number of base nodes r",
        "Via [Si92] the paper claims a message-optimal protocol with time "
        "O(log N + min(r, N/log N)), r = number of base nodes.  We measure "
        "𝒢 (plateaus under its unconditional O(N/k) ceiling) against the "
        "reconstructed Protocol R (DESIGN.md §4), whose wave conquest must "
        "show the claimed r-dependence.",
    )
    n = scale.n_fixed
    k = max(2, math.ceil(math.log2(n)))
    rows = []
    g_times, r_times = [], []
    rs = [r for r in scale.base_counts if r <= n]
    sweep = iter(run_sweep([
        lambda cls=cls, r=r, seed=seed: run_election(
            cls(k=k),
            complete_without_sense(n, seed=seed),
            delays=worst_case_unit(),
            wakeup=wakeup.random_subset(r, seed_offset=seed),
            seed=seed,
        )
        for r in rs
        for cls in (ProtocolG, ProtocolR)
        for seed in scale.seeds
    ]))
    for r in rs:
        g_results = [next(sweep) for _ in scale.seeds]
        r_results = [next(sweep) for _ in scale.seeds]
        g_summary, r_summary = time_summary(g_results), time_summary(r_results)
        g_times.append(g_summary.mean)
        r_times.append(r_summary.mean)
        rows.append(
            (r, str(g_summary), str(messages_summary(g_results)),
             str(r_summary), str(messages_summary(r_results)))
        )
    report.add_table(
        f"𝒢 vs R at N={n}, k={k}, r simultaneous base nodes",
        ("r", "G time", "G messages", "R time", "R messages"),
        rows,
    )
    ceiling = 12 * n / k
    report.find("O(N/k) ceiling used for G", round(ceiling, 1))
    report.check(
        "G's time stays under the unconditional O(N/k) ceiling at every r",
        all(t <= ceiling for t in g_times),
        f"max time {max(g_times):.1f} vs ceiling {ceiling:.1f}",
    )
    r_bound = [8 * (math.log2(n) + min(r, n / math.log2(n))) for r in rs]
    report.check(
        "R's time stays under c·(log N + min(r, N/log N)) at every r",
        all(t <= b for t, b in zip(r_times, r_bound)),
        f"worst slack {max(t / b for t, b in zip(r_times, r_bound)):.2f}",
    )
    report.check(
        "R beats G outright when r is small (the point of the refinement)",
        r_times[0] < g_times[0] / 2,
        f"r={rs[0]}: R {r_times[0]:.1f} vs G {g_times[0]:.1f}",
    )
    return report


# ---------------------------------------------------------------------------
# E10 — applications inherit election complexity
# ---------------------------------------------------------------------------


def e10_applications(scale: Scale = QUICK) -> ExperimentReport:
    """Spanning tree / global function / broadcast cost election + O(N)."""
    report = ExperimentReport(
        "E10 — equivalence of spanning tree, global function, broadcast",
        "Spanning-tree construction, computing a global function, etc. are "
        "equivalent to election in message and time complexity (Section 1): "
        "each costs the election plus O(N) messages and O(1) time.",
    )
    rows = []
    ok_overhead = True
    factories = (
        ("bare", ProtocolC),
        ("tree", lambda: SpanningTree(ProtocolC())),
        ("global-sum", lambda: GlobalFunction(ProtocolC(), fold="sum")),
        ("broadcast", lambda: Broadcast(ProtocolC())),
    )
    sweep = iter(run_sweep([
        lambda factory=factory, n=n: run_election(
            factory(),
            complete_with_sense_of_direction(n),
            delays=worst_case_unit(),
        )
        for n in scale.ns
        for _, factory in factories
    ]))
    for n in scale.ns:
        bare = next(sweep)
        apps = {name: next(sweep) for name, _ in factories[1:]}
        row = [n, bare.messages_total]
        for name, result in apps.items():
            overhead = result.messages_total - bare.messages_total
            time_overhead = result.quiescent_at - bare.quiescent_at
            row.extend([overhead, round(time_overhead, 1)])
            if not 0 < overhead <= 4 * n or time_overhead > 8:
                ok_overhead = False
        rows.append(tuple(row))
        # semantic checks at the largest size
        if n == scale.ns[-1]:
            expected = sum(range(n))
            sums_ok = all(
                s["global_result"] == expected
                for s in apps["global-sum"].node_snapshots
            )
            report.check(
                "every node computes the exact global sum", sums_ok, f"Σ={expected}"
            )
            tree = apps["tree"].node_snapshots
            parents = sum(1 for s in tree if s["parent_port"] is not None)
            report.check(
                "spanning tree has exactly N-1 edges and all know the root",
                parents == n - 1
                and all(s["leader_id"] == apps["tree"].leader_id for s in tree),
                f"{parents} parent pointers",
            )
    report.add_table(
        "App overhead beyond bare Protocol C",
        ("N", "C msgs", "tree Δmsgs", "Δt", "sum Δmsgs", "Δt", "bcast Δmsgs", "Δt"),
        rows,
    )
    report.check(
        "every app costs O(N) extra messages and O(1) extra time",
        ok_overhead,
    )
    return report


# ---------------------------------------------------------------------------
# E11 — the asynchrony penalty
# ---------------------------------------------------------------------------


def e11_asynchrony_penalty(scale: Scale = QUICK) -> ExperimentReport:
    """Synchronous O(log N) rounds vs asynchronous Ω(N/log N) time: the
    paper's N/(log N)² speed loss."""
    from repro.sim.rounds import run_synchronous

    report = ExperimentReport(
        "E11 — asynchrony penalty",
        "In synchronous complete networks election takes O(log N) rounds "
        "([AG85], realised here by protocol B under lock-step rounds); "
        "message-optimal asynchronous election needs Ω(N/log N) time "
        "(Corollary 5.1).  'Introducing asynchrony may result in a loss in "
        "speed by a factor of N/(logN)²' (Sections 1 and 6).",
    )
    rows = []
    sync_rounds, async_times, penalties = [], [], []
    ns = [n for n in scale.ns if n >= 8]
    sweep = iter(run_sweep([
        task
        for n in ns
        for task in (
            lambda n=n: run_synchronous(
                ProtocolB(), complete_with_sense_of_direction(n)
            ),
            lambda n=n: adversarial_run(ProtocolE(), n),
        )
    ]))
    for n in ns:
        sync = next(sweep)
        asyn = next(sweep)
        penalty = asyn.election_time / sync.rounds
        sync_rounds.append(sync.rounds)
        async_times.append(asyn.election_time)
        penalties.append(penalty)
        rows.append(
            (n, sync.rounds, round(asyn.election_time, 1),
             round(penalty, 1), round(n / math.log2(n) ** 2, 1))
        )
    report.add_table(
        "Synchronous B (rounds) vs adversarial asynchronous ℰ (time)",
        ("N", "sync rounds", "async time", "measured penalty", "N/log²N"),
        rows,
    )
    slope_sync = loglog_slope(ns, sync_rounds)
    slope_penalty = loglog_slope(ns, penalties)
    report.find("sync round growth exponent", round(slope_sync, 3))
    report.find("penalty growth exponent", round(slope_penalty, 3))
    report.check(
        "synchronous rounds grow sub-polynomially (O(log N))",
        slope_sync <= 0.45,
        f"{slope_sync:.3f}",
    )
    report.check(
        "the penalty grows ~N/polylog(N) (exponent >= 0.6)",
        slope_penalty >= 0.6,
        f"{slope_penalty:.3f}",
    )
    report.check(
        "the penalty exceeds N/(4·log²N) at every N",
        all(p >= n / (4 * math.log2(n) ** 2) for p, n in zip(penalties, ns)),
        f"min margin {min(p / (n / (4 * math.log2(n) ** 2)) for p, n in zip(penalties, ns)):.1f}x",
    )
    return report


# ---------------------------------------------------------------------------
# E12 — survivability under link faults
# ---------------------------------------------------------------------------


def e12_survivability(scale: Scale = QUICK) -> ExperimentReport:
    """Elections stay correct over lossy links behind the retransmission
    overlay; FT's O(Nf + N log N) envelope survives 10% loss; mid-run
    crashes never produce two surviving leaders."""
    import random as random_module

    report = ExperimentReport(
        "E12 — survivability under link faults",
        "The model assumes reliable FIFO links (Section 2).  A seeded "
        "FaultPlan breaks that assumption — loss, duplication, bounded "
        "reordering — and the retransmission overlay restores it, so every "
        "protocol's correctness must survive unchanged; only the message "
        "bill may grow.  Mid-run crash-stop goes beyond the paper's initial "
        "site failures, so there we demand safety only.",
    )

    # -- drop-rate sweep: correctness and overhead --------------------------
    drops = (0.0, 0.10, 0.25)
    ns = tuple(n for n in scale.ns if n <= 128)
    protocols = (
        ("C", lambda: ProtocolC(), True),
        ("E", lambda: ProtocolE(), False),
        ("FT", lambda: FaultTolerantElection(max_failures=1), False),
    )

    def lossy_run(factory, sense, n, drop):
        topology = (
            complete_with_sense_of_direction(n)
            if sense
            else complete_without_sense(n, seed=1)
        )
        plan = FaultPlan(seed=n, drop=drop, duplicate=drop / 2)
        return run_election(
            ReliableDelivery(factory()), topology, faults=plan, seed=1
        )

    sweep = iter(run_sweep([
        lambda factory=factory, sense=sense, n=n, drop=drop: lossy_run(
            factory, sense, n, drop
        )
        for drop in drops
        for n in ns
        for _, factory, sense in protocols
    ]))
    rows = []
    msgs_at: dict[tuple[str, float, int], float] = {}
    rexmit_at: dict[tuple[str, float, int], int] = {}
    for drop in drops:
        for n in ns:
            row: list[object] = [drop, n]
            for name, _, _ in protocols:
                result = next(sweep)
                msgs_at[name, drop, n] = result.messages_total
                rexmit_at[name, drop, n] = result.retransmissions
                row.extend([result.messages_total, result.retransmissions])
            rows.append(tuple(row))
    report.add_table(
        "Messages and retransmissions over lossy links (overlay installed)",
        ("drop", "N", "C msgs", "C rexmit", "E msgs", "E rexmit",
         "FT msgs", "FT rexmit"),
        rows,
    )
    report.check(
        "every lossy run elected a verified unique live leader",
        True,
        f"run_election verifies every run; drops {drops}, N in {ns}",
    )
    # The overlay's coarse per-node timer retransmits a little even without
    # loss (a packet sent just before an older packet's deadline shares its
    # timer); what loss adds on top must show in the counter.
    report.check(
        "retransmissions grow with the drop rate, per protocol and N",
        all(
            rexmit_at[name, drops[-1], n] > rexmit_at[name, 0.0, n]
            for name, _, _ in protocols for n in ns
        ),
    )
    overhead = [
        msgs_at[name, drops[-1], n] / msgs_at[name, 0.0, n]
        for name, _, _ in protocols
        for n in ns
    ]
    report.find(
        f"message overhead at drop={drops[-1]} vs drop=0, worst ratio",
        round(max(overhead), 2),
    )
    report.check(
        "25% loss costs at most a constant-factor message overhead",
        max(overhead) <= 3.0,
        f"worst ratio {max(overhead):.2f}",
    )

    # -- FT's envelope under loss -------------------------------------------
    n = scale.n_fixed // 2
    fs = [f for f in scale.failure_counts if f < n / 2]
    drop = 0.10

    def ft_lossy_run(f, seed):
        rng = random_module.Random(seed * 1000 + f)
        failed = set(rng.sample(range(1, n), f)) if f else set()
        plan = FaultPlan(seed=seed, drop=drop, duplicate=drop / 2)
        return run_election(
            ReliableDelivery(FaultTolerantElection(max_failures=max(f, 1))),
            complete_without_sense(n, seed=seed),
            failed_positions=failed,
            faults=plan,
            seed=seed,
        )

    ft_results = run_sweep([
        lambda f=f: ft_lossy_run(f, seed=scale.seeds[0]) for f in fs
    ])
    ft_rows = []
    envelope = []
    for f, result in zip(fs, ft_results):
        bound = n * f + n * math.log2(n)
        envelope.append(result.messages_total / bound)
        ft_rows.append(
            (f, result.messages_total, result.retransmissions,
             round(result.messages_total / bound, 2))
        )
    report.add_table(
        f"FT at N={n} under drop={drop}: messages vs the N·f + N·log N bound",
        ("f", "messages", "rexmit", "constant"),
        ft_rows,
    )
    report.check(
        "FT's messages stay O(N·f + N·log N) even over lossy links "
        "(overlay envelopes and acks included)",
        max(envelope) <= 24.0,
        f"worst constant {max(envelope):.2f}",
    )

    # -- mid-run crash-stop: safety only ------------------------------------
    crash_n = 32
    crash_rows = []
    safety_ok = True

    def crash_run(seed):
        rng = random_module.Random(seed)
        victims = rng.sample(range(crash_n), 3)
        plan = FaultPlan(
            seed=seed,
            drop=0.05,
            crashes={v: rng.uniform(0.0, 3.0) for v in victims},
        )
        return run_election(
            ReliableDelivery(ProtocolE()),
            complete_without_sense(crash_n, seed=seed),
            faults=plan,
            seed=seed,
            require_leader=False,
        )

    for seed, result in zip(
        scale.seeds, run_sweep([lambda s=s: crash_run(s) for s in scale.seeds])
    ):
        live_leaders = [
            s for position, s in enumerate(result.node_snapshots)
            if s["is_leader"] and position not in result.crashed_positions
        ]
        if len(live_leaders) > 1:
            safety_ok = False
        crash_rows.append(
            (seed, result.crashed_positions, len(live_leaders),
             result.leader_crashed)
        )
    report.add_table(
        f"3 mid-run crashes at N={crash_n} (drop=0.05, overlay installed)",
        ("seed", "crashed", "live leaders", "leader crashed"),
        crash_rows,
    )
    report.check(
        "mid-run crashes never leave two surviving leaders (safety)",
        safety_ok,
        f"{len(crash_rows)} crash schedules",
    )
    return report


# ---------------------------------------------------------------------------
# E13 — randomized sublinear elections (the deterministic/randomized tradeoff)
# ---------------------------------------------------------------------------


def e13_randomized_sublinear(scale: Scale = QUICK) -> ExperimentReport:
    """The randomized family beats the paper's deterministic Ω(N log N)
    message bound by paying in certainty: candidate sampling (RS) and the
    wave-paced tradeoff point (RT) elect w.h.p. with strictly sublinear
    messages, measured against Protocol E's n log n on the same sizes."""
    from repro.matrix.spec import family_seed
    from repro.protocols.random.common import whp_message_bound
    from repro.protocols.random.protocol_rs import RandomizedSampling
    from repro.protocols.random.protocol_rt import RandomizedTradeoff

    report = ExperimentReport(
        "E13 — randomized sublinear elections",
        "The paper's Section 5 lower bound (Ω(N log N) messages) binds "
        "deterministic protocols only.  The randomized family trades "
        "certainty for messages: candidate sampling (RS, after "
        "arXiv 1210.4822) elects w.h.p. in O(1) time with "
        "O(sqrt(N) log^1.5 N) messages, and the wave-paced variant (RT, "
        "after the arXiv 2301.08235 tradeoff) spends O(log N) time to "
        "cut the expected message bill further.  Both curves must come "
        "out strictly sublinear in N where the deterministic n log n "
        "baseline (Protocol B, the paper's Section 3 O(N log N) "
        "protocol) is superlinear.  Protocols, coin streams and the "
        "statistical gate: docs/randomized.md.",
    )

    # The sublinear regime only: below N=64 the referee sample saturates
    # at s = N-1 and RS degenerates to probe-everyone.
    ns = tuple(n for n in (64, 128, 256, 512) if n <= 2 * scale.n_fixed)
    trials = 10 * len(scale.seeds)

    def randomized_run(cls, tag, n, index):
        seed = family_seed(f"e13/{tag}/{n}", index)
        return run_election(
            cls(), complete_without_sense(n, seed=seed), seed=seed
        )

    curves: dict[str, list[tuple[int, float, float, int]]] = {}
    success_total = 0
    bound_total = 0
    for tag, cls in (("RS", RandomizedSampling), ("RT", RandomizedTradeoff)):
        rows = []
        for n in ns:
            results = run_sweep([
                lambda c=cls, t=tag, n=n, i=i: randomized_run(c, t, n, i)
                for i in range(trials)
            ])
            for result in results:
                result.verify()
            success_total += sum(
                1 for r in results if r.leader_id is not None
            )
            bound_total += sum(
                1
                for r in results
                if r.messages_total <= whp_message_bound(n)
            )
            rows.append((
                n,
                sum(r.messages_total for r in results) / trials,
                sum(r.election_time for r in results) / trials,
                max(r.messages_total for r in results),
            ))
        curves[tag] = rows

    det_rows = []
    for n in ns:
        result = run_election(
            ProtocolB(), complete_with_sense_of_direction(n), seed=1
        )
        result.verify()
        det_rows.append((n, result.messages_total, result.election_time))

    report.add_table(
        "Deterministic vs randomized tradeoff (messages/time, mean over "
        f"{trials} seeded trials per size)",
        ("N", "B msgs", "RS msgs", "RS time", "RT msgs", "RT time"),
        [
            (
                n,
                det_rows[i][1],
                round(curves["RS"][i][1]), round(curves["RS"][i][2], 1),
                round(curves["RT"][i][1]), round(curves["RT"][i][2], 1),
            )
            for i, n in enumerate(ns)
        ],
    )

    rs_exponent = loglog_slope(ns, [row[1] for row in curves["RS"]])
    rt_exponent = loglog_slope(ns, [row[1] for row in curves["RT"]])
    det_exponent = loglog_slope(ns, [row[1] for row in det_rows])
    total_trials = 2 * len(ns) * trials
    success_rate = success_total / total_trials
    report.find("rs_message_exponent", round(rs_exponent, 3))
    report.find("rt_message_exponent", round(rt_exponent, 3))
    report.find("det_message_exponent", round(det_exponent, 3))
    report.find("whp_success_rate", round(success_rate, 4))
    report.find(
        "rs_message_ratio_vs_det_at_max_n",
        round(curves["RS"][-1][1] / det_rows[-1][1], 3),
    )

    report.check(
        "randomized message growth is strictly sublinear where the "
        "deterministic baseline is superlinear",
        rs_exponent < 1.0 < det_exponent and rt_exponent < 1.0,
        f"exponents: RS {rs_exponent:.2f}, RT {rt_exponent:.2f}, "
        f"B {det_exponent:.2f}",
    )
    report.check(
        "every trial elected a leader (w.h.p. liveness at these sizes)",
        success_total == total_trials,
        f"{success_total}/{total_trials} trials",
    )
    report.check(
        "every trial stayed within the whp message bound "
        "ceil(9 ln N)*(4s+4)",
        bound_total == total_trials,
        f"{bound_total}/{total_trials} trials",
    )
    report.check(
        "RT's wave pacing buys messages with time "
        "(fewer messages, more time than RS at every size)",
        all(
            curves["RT"][i][1] < curves["RS"][i][1]
            and curves["RT"][i][2] >= curves["RS"][i][2]
            for i in range(len(ns))
        ),
        "the arXiv 2301.08235 tradeoff direction",
    )
    return report


ALL_EXPERIMENTS = (
    e1_figure1,
    e2_messages_sense,
    e3_time_sense,
    e4_k_tradeoff_a,
    e5_d_and_e,
    e6_fg_tradeoff,
    e7_lower_bound,
    e8_fault_tolerance,
    e9_base_nodes,
    e10_applications,
    e11_asynchrony_penalty,
    e12_survivability,
    e13_randomized_sublinear,
)
