"""Hand-arithmetic oracles and properties for the imbalance metric suite.

The composition test re-derives every report field from raw inputs with an
independent numpy implementation; the scalar tests pin down each operation
with values small enough to check by hand.
"""

import math
import re

import numpy as np
import pytest
from numpy.random import default_rng

from mfload.errors import ConfigError, InsufficientDataError
from mfload.metrics import (
    ImbalanceReport,
    ResourceUtilization,
    ServerSpec,
    WeightTriple,
    full_report,
    resource_imbalance,
    score_windows,
    sil_value,
    write_report_csv,
    write_sil_csv,
)


def _u(cpu, ram, net, window=64):
    return ResourceUtilization(cpu=cpu, ram=ram, net=net, window=window)


def _spec(i, cpu=4, ram=32.0, net=16.0):
    return ServerSpec(id=i, cpu_count=cpu, ram_capacity=ram, net_capacity=net)


def _brute_report(utils, specs, w):
    """Independent recomputation of every report field from raw inputs."""
    cpu = np.array([u.cpu for u in utils])
    ram = np.array([u.ram for u in utils])
    net = np.array([u.net for u in utils])
    cw = np.array([s.cpu_count for s in specs], dtype=float)
    rw = np.array([s.ram_capacity for s in specs])
    nw = np.array([s.net_capacity for s in specs])
    cpu_all = float(cpu @ cw / cw.sum())
    ram_all = float(ram @ rw / rw.sum())
    net_all = float(net @ nw / nw.sum())
    isl_cpu = float(((cpu - cpu_all) ** 2).sum())
    isl_ram = float(((ram - ram_all) ** 2).sum())
    isl_net = float(((net - net_all) ** 2).sum())
    sil = w.a * (cpu - cpu_all) ** 2 + w.b * (ram - ram_all) ** 2 + w.c * (net - net_all) ** 2
    eff = float(np.mean(w.a * cpu + w.b * ram + w.c * net))
    return {
        "isl_cpu": isl_cpu,
        "isl_ram": isl_ram,
        "isl_net": isl_net,
        "ibl_tot": isl_cpu + isl_ram + isl_net,
        "sil": sil,
        "isl_tot": float(sil.mean()),
        "efficiency": eff,
    }


# ---------------------------------------------------------- system averages
# the averages are not report fields; a deviation of exactly zero shows an
# exact average, and under cpu-only weights a server's SIL is its squared
# deviation from the cluster cpu average

CPU_ONLY = WeightTriple(a=1.0, b=0.0, c=0.0)


def test_system_averages_symmetric():
    utils = [_u(0.5, 0.5, 0.5), _u(0.5, 0.5, 0.5)]
    r = full_report(utils, [_spec(0), _spec(1)], WeightTriple())
    assert (r.isl_cpu, r.isl_ram, r.isl_net) == (0.0, 0.0, 0.0)


def test_system_averages_capacity_weighted():
    # cpu (0.2*1 + 0.8*3) / 4 = 0.65
    utils = [_u(0.2, 0.0, 0.0), _u(0.8, 0.0, 0.0)]
    specs = [_spec(0, cpu=1), _spec(1, cpu=3)]
    cpu_all = 0.8 - math.sqrt(full_report(utils, specs, CPU_ONLY).sil[1])
    assert cpu_all == pytest.approx(0.65, abs=1e-15)


def test_system_averages_single_server_identity():
    r = full_report([_u(0.3, 0.6, 0.9)], [_spec(0)], WeightTriple())
    assert (r.isl_cpu, r.isl_ram, r.isl_net, r.sil) == (0.0, 0.0, 0.0, (0.0,))


def test_system_averages_rejects_misaligned_input():
    with pytest.raises(ConfigError):
        full_report([_u(0.5, 0.5, 0.5)], [_spec(0), _spec(1)], WeightTriple())
    with pytest.raises(InsufficientDataError):
        full_report([], [], WeightTriple())


# ------------------------------------------------------ per-resource / sums


def test_resource_imbalance_oracles():
    assert resource_imbalance([0.5, 0.5, 0.5], 0.5) == 0.0
    assert resource_imbalance([0.4, 0.6], 0.5) == pytest.approx(0.02, abs=1e-15)
    assert resource_imbalance([0.0, 1.0], 0.5) == 0.5
    with pytest.raises(InsufficientDataError):
        resource_imbalance([], 0.5)


def test_total_imbalance_oracles():
    # six servers around an exact 0.5 average: deviations of 0.1 on two
    # servers give 0.02, of 0.05 on four give 0.01, and both together 0.03
    cpu = (0.4, 0.6, 0.5, 0.5, 0.5, 0.5)
    ram = (0.5, 0.5, 0.45, 0.55, 0.45, 0.55)
    net = (0.4, 0.6, 0.45, 0.55, 0.45, 0.55)
    specs = [_spec(i) for i in range(6)]
    r = full_report([_u(*u) for u in zip(cpu, ram, net)], specs, WeightTriple())
    assert r.ibl_tot == pytest.approx(0.06, abs=1e-15)
    assert r.ibl_tot == r.isl_cpu + r.isl_ram + r.isl_net
    balanced = full_report([_u(0.2, 0.5, 0.5), _u(0.8, 0.5, 0.5)], [_spec(0), _spec(1)], WeightTriple())
    assert balanced.ibl_tot == balanced.isl_cpu == pytest.approx(0.18, abs=1e-15)
    assert full_report([_u(0.0, 0.0, 0.0)] * 2, [_spec(0), _spec(1)], WeightTriple()).ibl_tot == 0.0
    with pytest.raises(ConfigError):
        ImbalanceReport(isl_cpu=-0.01, isl_ram=0.0, isl_net=0.0, ibl_tot=-0.01,
                        sil=(0.0,), isl_tot=0.0, efficiency=0.5)


def test_server_sil_oracles():
    w = WeightTriple()
    assert sil_value(0.4, 0.4, 0.4, 0.4, 0.4, 0.4, w) == 0.0
    # three deviations of 0.3 under equal weights: 3 * (1/3) * 0.09
    got = sil_value(0.7, 0.7, 0.7, 0.4, 0.4, 0.4, w)
    assert got == pytest.approx(0.09, abs=1e-15)
    assert sil_value(0.6, 0.9, 0.1, 0.4, 0.4, 0.4, CPU_ONLY) == pytest.approx(0.04, abs=1e-15)


def test_system_sil_oracles():
    specs = [_spec(0), _spec(1), _spec(2)]
    assert full_report([_u(0.3, 0.3, 0.3)] * 3, specs, WeightTriple()).isl_tot == 0.0
    # cpu (0.2*1 + 0.6*3) / 4 = 0.5: SILs 0.09 and 0.01 under cpu-only weights
    skewed = [_spec(0, cpu=1), _spec(1, cpu=3)]
    r = full_report([_u(0.2, 0.0, 0.0), _u(0.6, 0.0, 0.0)], skewed, CPU_ONLY)
    assert r.isl_tot == pytest.approx(0.05, abs=1e-15)
    assert ImbalanceReport(0.0, 0.0, 0.0, 0.0, sil=(0.123,), isl_tot=0.123, efficiency=0.5).isl_tot == 0.123
    with pytest.raises(InsufficientDataError):
        full_report([], [], WeightTriple())
    with pytest.raises(ConfigError):
        ImbalanceReport(0.0, 0.0, 0.0, 0.0, sil=(0.1, -0.1), isl_tot=0.0, efficiency=0.5)


def test_efficiency_bounds_and_mean():
    w = WeightTriple()
    specs = [_spec(0), _spec(1), _spec(2)]
    assert full_report([_u(1.0, 1.0, 1.0)] * 3, specs, w).efficiency == pytest.approx(1.0, abs=1e-15)
    assert full_report([_u(0.0, 0.0, 0.0)] * 3, specs, w).efficiency == 0.0
    got = full_report([_u(0.2, 0.2, 0.2), _u(0.6, 0.6, 0.6)], specs[:2], w).efficiency
    assert got == pytest.approx(0.4, abs=1e-15)


def test_a_saturated_window_scores_under_weights_summing_just_above_one():
    # accepted weights may sum to 1 + 2.2e-16; a full window's efficiency is then that sum
    w = WeightTriple(0.7089432407594715, 0.25467466433546254, 0.03638209490506608)
    assert w.a + w.b + w.c > 1.0
    report, = score_windows(np.ones((1, 1, 3)), [_spec(0)], w)
    assert report.efficiency == w.a + w.b + w.c
    assert full_report([_u(1.0, 1.0, 1.0)], [_spec(0)], w) == report
    with pytest.raises(ConfigError, match="efficiency"):
        ImbalanceReport(0.0, 0.0, 0.0, 0.0, sil=(0.0,), isl_tot=0.0, efficiency=1.0 + 1e-8)

def test_formulas_give_the_same_bits_on_a_column_as_on_each_float():
    # libm pow(d, 2) and the rounded d * d part in about 1 of 1000 squares
    m = 20_000
    rng = default_rng(23)
    cols = rng.random((6, 3, m))
    cols[0, :, :100] = 0.0
    cols[1, :, 100:200] = 1.0
    avgs = rng.random((3, m))
    raw = rng.random(3)
    w = WeightTriple(*(raw / raw.sum()))
    sils = [sil_value(*u, *a, w) for u, a in zip(cols[0].T.tolist(), avgs.T.tolist())]
    assert np.array_equal(sil_value(*cols[0], *avgs, w), sils)
    imbs = [resource_imbalance(u, a) for u, a in zip(cols[:, 0].T.tolist(), avgs[0].tolist())]
    assert np.array_equal(resource_imbalance(cols[:, 0], avgs[0]), imbs)


# ------------------------------------------------------------- composition


def test_full_report_uniform_cluster_is_exactly_zero():
    # dyadic utilization on integer-ratio capacities: no rounding anywhere,
    # so the zero must be exact, not approximate
    specs = [_spec(i, cpu=c, ram=8.0 * c, net=4.0 * c) for i, c in enumerate((8, 4, 2, 1))]
    utils = [_u(0.5, 0.25, 0.75)] * 4
    r = full_report(utils, specs, WeightTriple())
    assert r.isl_cpu == 0.0
    assert r.isl_ram == 0.0
    assert r.isl_net == 0.0
    assert r.ibl_tot == 0.0
    assert r.isl_tot == 0.0
    assert r.sil == (0.0, 0.0, 0.0, 0.0)
    expected_eff = (0.5 + 0.25 + 0.75) / 3.0
    assert r.efficiency == pytest.approx(expected_eff, abs=1e-15)


def test_full_report_single_server_degenerate():
    r = full_report([_u(0.9, 0.2, 0.6)], [_spec(0)], WeightTriple())
    assert r.isl_cpu == 0.0 and r.isl_ram == 0.0 and r.isl_net == 0.0
    assert r.isl_tot == 0.0


def test_perturbation_quadratic_hand_oracle():
    """Bumping one server's cpu by delta moves isl_tot by a known quadratic."""
    n = 4
    specs = [_spec(i, cpu=2) for i in range(n)]
    w = WeightTriple()
    base = 0.5
    wj = 2.0 / (2.0 * n)  # perturbed server's share of cpu weight
    for delta in (0.01, 0.05, 0.2):
        utils = [_u(base, base, base) for _ in range(n)]
        utils[1] = _u(base + delta, base, base)
        r = full_report(utils, specs, w)
        isl_cpu_expect = delta**2 * ((1.0 - wj) ** 2 + (n - 1) * wj**2)
        assert r.isl_cpu == pytest.approx(isl_cpu_expect, abs=1e-12)
        assert r.isl_tot == pytest.approx(w.a * isl_cpu_expect / n, abs=1e-12)
        assert r.isl_tot > 0.0


def test_perturbation_scales_quadratically():
    specs = [_spec(i) for i in range(5)]
    w = WeightTriple()

    def bumped(delta):
        utils = [_u(0.4, 0.4, 0.4) for _ in range(5)]
        utils[2] = _u(0.4 + delta, 0.4, 0.4)
        return full_report(utils, specs, w).isl_tot

    assert bumped(0.2) / bumped(0.1) == pytest.approx(4.0, rel=1e-9)


def test_full_report_matches_brute_force_on_random_clusters():
    rng = default_rng(20240517)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        specs = [
            ServerSpec(
                id=i,
                cpu_count=int(rng.integers(1, 17)),
                ram_capacity=float(rng.uniform(4.0, 64.0)),
                net_capacity=float(rng.uniform(2.0, 32.0)),
            )
            for i in range(n)
        ]
        utils = [_u(*rng.random(3)) for _ in range(n)]
        raw = rng.random(3)
        w = WeightTriple(*(raw / raw.sum()))
        r = full_report(utils, specs, w)
        b = _brute_report(utils, specs, w)
        assert abs(r.isl_cpu - b["isl_cpu"]) <= 1e-12
        assert abs(r.isl_ram - b["isl_ram"]) <= 1e-12
        assert abs(r.isl_net - b["isl_net"]) <= 1e-12
        assert abs(r.ibl_tot - b["ibl_tot"]) <= 1e-12
        assert abs(r.isl_tot - b["isl_tot"]) <= 1e-12
        assert abs(r.efficiency - b["efficiency"]) <= 1e-12
        assert np.max(np.abs(np.array(r.sil) - b["sil"])) <= 1e-12


# --------------------------------------------------------------- properties


def test_translation_leaves_isl_cpu_unchanged():
    # the weighted mean shifts by the same delta, so deviations cancel,
    # with equal cpu counts and with unequal ones alike
    rng = default_rng(7)
    for counts in ((4, 4, 4, 4), (1, 2, 4, 8)):
        specs = [_spec(i, cpu=c) for i, c in enumerate(counts)]
        cpu = rng.uniform(0.2, 0.6, size=4)
        utils = [_u(float(v), 0.5, 0.5) for v in cpu]
        shifted = [_u(float(v) + 0.2, 0.5, 0.5) for v in cpu]
        w = WeightTriple()
        a = full_report(utils, specs, w).isl_cpu
        b = full_report(shifted, specs, w).isl_cpu
        assert abs(a - b) <= 1e-12


def test_scaling_multiplies_imbalance_by_alpha_squared():
    rng = default_rng(11)
    specs = [_spec(i, cpu=int(c)) for i, c in enumerate((2, 3, 5))]
    utils = [_u(*rng.random(3)) for _ in range(3)]
    w = WeightTriple()
    base = full_report(utils, specs, w)
    for alpha in (0.5, 0.25, 1.0):
        scaled = [_u(u.cpu * alpha, u.ram * alpha, u.net * alpha) for u in utils]
        r = full_report(scaled, specs, w)
        assert r.isl_cpu == pytest.approx(alpha**2 * base.isl_cpu, rel=1e-9, abs=1e-15)
        assert r.ibl_tot == pytest.approx(alpha**2 * base.ibl_tot, rel=1e-9, abs=1e-15)
        for s, s0 in zip(r.sil, base.sil):
            assert s == pytest.approx(alpha**2 * s0, rel=1e-9, abs=1e-15)


def test_permutation_invariance():
    rng = default_rng(13)
    specs = [_spec(i, cpu=int(c), ram=10.0 * c, net=5.0 * c) for i, c in enumerate((1, 2, 4, 8))]
    utils = [_u(*rng.random(3)) for _ in range(4)]
    w = WeightTriple()
    base = full_report(utils, specs, w)
    perm = [2, 0, 3, 1]
    r = full_report([utils[j] for j in perm], [specs[j] for j in perm], w)
    assert r.isl_tot == pytest.approx(base.isl_tot, abs=1e-12)
    assert r.ibl_tot == pytest.approx(base.ibl_tot, abs=1e-12)
    assert r.efficiency == pytest.approx(base.efficiency, abs=1e-12)
    for j, pj in enumerate(perm):
        assert r.sil[j] == pytest.approx(base.sil[pj], abs=1e-12)


def test_all_outputs_non_negative():
    rng = default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        specs = [_spec(i, cpu=int(rng.integers(1, 9))) for i in range(n)]
        utils = [_u(*rng.random(3)) for _ in range(n)]
        raw = rng.random(3)
        r = full_report(utils, specs, WeightTriple(*(raw / raw.sum())))
        assert min(r.isl_cpu, r.isl_ram, r.isl_net, r.ibl_tot, r.isl_tot) >= 0.0
        assert min(r.sil) >= 0.0


# --------------------------------------------------------------- validation


def test_weight_triple_invariants():
    with pytest.raises(ConfigError):
        WeightTriple(0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        WeightTriple(-0.1, 0.6, 0.5)
    w = WeightTriple(0.2, 0.3, 0.5)
    assert w.a + w.b + w.c == pytest.approx(1.0, abs=1e-9)


def test_utilization_and_spec_invariants():
    with pytest.raises(ConfigError):
        _u(1.01, 0.5, 0.5)
    with pytest.raises(ConfigError):
        _u(0.5, -0.01, 0.5)
    with pytest.raises(ConfigError):
        ServerSpec(id=0, cpu_count=0, ram_capacity=1.0, net_capacity=1.0)
    with pytest.raises(ConfigError):
        ServerSpec(id=0, cpu_count=1, ram_capacity=0.0, net_capacity=1.0)


def test_report_internal_consistency_enforced():
    with pytest.raises(ConfigError):
        ImbalanceReport(
            isl_cpu=0.1, isl_ram=0.0, isl_net=0.0, ibl_tot=0.2,
            sil=(0.0,), isl_tot=0.0, efficiency=0.5,
        )
    with pytest.raises(ConfigError):
        ImbalanceReport(
            isl_cpu=0.0, isl_ram=0.0, isl_net=0.0, ibl_tot=0.0,
            sil=(0.1, 0.3), isl_tot=0.1, efficiency=0.5,
        )


@pytest.mark.parametrize("value, message", [
    (1.5, "ram utilization 1.5 outside [0,1]"),
    (-0.25, "ram utilization -0.25 outside [0,1]"),
    (float("nan"), "ram utilization nan outside [0,1]"),
])
def test_score_windows_names_the_bad_utilization_in_any_window(value, message):
    means = np.full((3, 2, 3), 0.5)
    means[2, 1, 1] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        score_windows(means, [_spec(0), _spec(1)], WeightTriple())


def test_full_report_rejects_duplicate_ids():
    utils = [_u(0.5, 0.5, 0.5), _u(0.5, 0.5, 0.5)]
    with pytest.raises(ConfigError):
        full_report(utils, [_spec(3), _spec(3)], WeightTriple())


# ---------------------------------------------------------------- csv shape


def test_report_csv_round_shape(tmp_path):
    specs = [_spec(0), _spec(1)]
    w = WeightTriple()
    reports = [
        full_report([_u(0.2, 0.3, 0.4), _u(0.6, 0.5, 0.4)], specs, w),
        full_report([_u(0.5, 0.5, 0.5), _u(0.5, 0.5, 0.5)], specs, w),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(path, reports, window=64, summary="scenario=x H=0.7 dH=0.1 mean_isl_tot=0")
    lines = path.read_text().splitlines()
    assert lines[0] == "tick,isl_cpu,isl_ram,isl_net,ibl_tot,isl_tot,efficiency"
    assert lines[1].startswith("64,") and lines[2].startswith("128,")
    assert lines[-1].startswith("# scenario=x")
    # values survive the 12-digit format
    got = float(lines[1].split(",")[5])
    assert got == pytest.approx(reports[0].isl_tot, rel=1e-11)


def test_csv_writers_match_the_per_row_fstring_form(tmp_path):
    # rows are formatted by one % call per file; each must equal the f-string
    # form of one row at a time, byte for byte, at the edges of the float range
    sil = (0.0, 5e-324, 1e300, 0.1)
    reports = [
        ImbalanceReport(
            isl_cpu=a, isl_ram=b, isl_net=0.0, ibl_tot=a + b + 0.0, sil=sil, isl_tot=sum(sil) / 4, efficiency=e
        )
        for a, b, e in ((0.0, 5e-324, 0.0), (1e300, 0.1, 0.1), (0.1, 0.0, 5e-324))
    ]
    ids = [0, 3, 5, 9]
    report_path, sil_path = tmp_path / "report.csv", tmp_path / "sil.csv"
    write_report_csv(report_path, reports, window=64, summary="s")
    write_sil_csv(sil_path, reports, window=64, server_ids=ids)
    lines = ["tick,isl_cpu,isl_ram,isl_net,ibl_tot,isl_tot,efficiency"]
    sil_lines = ["tick,server_id,sil"]
    for i, r in enumerate(reports):
        tick = (i + 1) * 64
        lines.append(
            f"{tick},{r.isl_cpu:.12g},{r.isl_ram:.12g},{r.isl_net:.12g},"
            f"{r.ibl_tot:.12g},{r.isl_tot:.12g},{r.efficiency:.12g}"
        )
        sil_lines += [f"{tick},{sid},{s:.12g}" for sid, s in zip(ids, r.sil)]
    assert report_path.read_bytes() == ("\n".join(lines + ["# s"]) + "\n").encode()
    assert sil_path.read_bytes() == ("\n".join(sil_lines) + "\n").encode()
    write_report_csv(report_path, [], window=64)
    write_sil_csv(sil_path, [], window=64, server_ids=ids)
    assert report_path.read_bytes() == (lines[0] + "\n").encode()
    assert sil_path.read_bytes() == (sil_lines[0] + "\n").encode()


def test_sil_csv_long_form(tmp_path):
    specs = [_spec(0), _spec(7)]
    w = WeightTriple()
    reports = [full_report([_u(0.2, 0.3, 0.4), _u(0.6, 0.5, 0.4)], specs, w)]
    path = tmp_path / "sil.csv"
    write_sil_csv(path, reports, window=32, server_ids=[0, 7])
    lines = path.read_text().splitlines()
    assert lines[0] == "tick,server_id,sil"
    assert len(lines) == 3
    assert lines[1].startswith("32,0,") and lines[2].startswith("32,7,")
    with pytest.raises(ConfigError):
        write_sil_csv(path, reports, window=32, server_ids=[0, 1, 2])
