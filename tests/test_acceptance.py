"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of failures). Statistical checks use fixed seeds; runtime
bounds are asserted where a criterion states one.
"""

import math
import time

import numpy as np
import pytest

from afdmsim.ambiguity import aaf_psi0_closed, aaf_shifted_closed, caf_closed, dpaf_brute
from afdmsim.channel import PathTap, apply_channel
from afdmsim.ddgrid import (
    grid_to_vector,
    io_convolve,
    io_general,
    io_predict,
    vector_to_grid,
)
from afdmsim.experiments import (
    ExperimentSpec,
    benchmark_pipelines,
    builtin_scenarios,
    loglog_slope,
    run,
)
from afdmsim.metrics import (
    build_frame,
    lmmse_ber_compare,
    sensing_maps,
    trial_metrics,
    trial_rng,
)
from afdmsim.params import classic_params, preset, proposed_params
from afdmsim.sensing import (
    cfar_mask_batch,
    ddmf,
    dechirp,
    os_cfar_mask_batch,
    peak,
    tfmf,
)
from afdmsim.waveform import (
    dd_to_daft_index,
    demodulate,
    echo_form_subcarrier,
    fmcw_signal,
    modulate,
    subcarrier,
)

from oracles import mask_near

TABLE_N_P, TABLE_K = 64, 8
TABLE_CFG = proposed_params(TABLE_N_P, TABLE_K)
CLASSIC_CFG = classic_params(512, 3, k_chirps=8)
THREE_TARGETS = ((math.sqrt(0.6), 3, 0), (math.sqrt(0.3), 7, 2), (math.sqrt(0.1), 10, 3))


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def mean_geq_3sigma(a, b) -> tuple[bool, str]:
    """a_mean >= b_mean - 3*stderr(difference of means)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sd = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return a.mean() >= b.mean() - 3.0 * sd, f"{a.mean():.2f} vs {b.mean():.2f} (3s={3*sd:.2f})"


def rate_geq_3sigma(hits_a: int, hits_b: int, trials: int) -> tuple[bool, str]:
    pa, pb = hits_a / trials, hits_b / trials
    sd = math.sqrt(pa * (1 - pa) / trials + pb * (1 - pb) / trials)
    return pa >= pb - 3.0 * sd, f"{pa:.3f} vs {pb:.3f} (3s={3*sd:.3f})"


def test_c01_fmcw_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n_p, k in ((8, 4), (64, 8)):
        cfg = proposed_params(n_p, k)
        err = np.abs(subcarrier(cfg, 0) - fmcw_signal(n_p, k)).max()
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: base subcarrier equals sampled FMCW sweep",
        worst < 1e-12 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_orthogonality():
    t0 = time.perf_counter()
    configs = {
        "proposed": TABLE_CFG,
        "classic": CLASSIC_CFG,
        "ofdm": preset("ofdm", 512, k_chirps=8),
        "ocdm": preset("ocdm", 512, k_chirps=8),
    }
    rng = np.random.default_rng(202)
    worst = 0.0
    for cfg in configs.values():
        for _ in range(200):
            m1, m2 = (int(v) for v in rng.integers(0, cfg.n_c, size=2))
            inner = np.vdot(subcarrier(cfg, m2), subcarrier(cfg, m1))
            expected = cfg.n_c if m1 == m2 else 0.0
            worst = max(worst, abs(inner - expected))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2: subcarrier orthogonality across presets",
        worst < 1e-9 * 512 and elapsed < 5.0,
        f"max |<a,b> - Nc*delta| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_c03_subcarrier_as_echo():
    worst = 0.0
    for n_p, k in ((4, 2), (4, 4), (8, 4), (16, 4), (8, 8)):
        cfg = proposed_params(n_p, k)
        for l in range(n_p):
            for kk in range(k):
                direct = subcarrier(cfg, dd_to_daft_index(cfg, l, kk))
                echo = echo_form_subcarrier(cfg, l, kk)
                worst = max(worst, float(np.abs(echo - direct).max()))
    report(
        "criterion 3: every subcarrier is an echo of the base chirp",
        worst < 1e-10,
        f"max err {worst:.2e} over configs up to n_c=64",
    )


def test_c04_ambiguity_closed_forms():
    t0 = time.perf_counter()
    cfg = proposed_params(8, 4)
    n_c = cfg.n_c
    base = subcarrier(cfg, 0)
    rng = np.random.default_rng(404)
    worst = 0.0
    zero_worst = 0.0
    for l in range(n_c):
        for k in range(n_c):
            brute = dpaf_brute(base, base, l, k)
            closed = aaf_psi0_closed(cfg, l, k)
            worst = max(worst, abs(brute - closed))
            if closed == 0:
                zero_worst = max(zero_worst, abs(brute))
    for _ in range(3):
        sub = (int(rng.integers(0, 8)), int(rng.integers(0, 4)))
        sig = echo_form_subcarrier(cfg, *sub)
        for l in range(n_c):
            for k in range(n_c):
                worst = max(
                    worst, abs(dpaf_brute(sig, sig, l, k) - aaf_shifted_closed(cfg, sub, l, k))
                )
    for _ in range(3):
        sub_a = (int(rng.integers(0, 8)), int(rng.integers(0, 4)))
        sub_b = (int(rng.integers(0, 8)), int(rng.integers(0, 4)))
        a = echo_form_subcarrier(cfg, *sub_a)
        b = echo_form_subcarrier(cfg, *sub_b)
        for l in range(n_c):
            for k in range(n_c):
                worst = max(
                    worst,
                    abs(dpaf_brute(a, b, l, k) - caf_closed(cfg, sub_a, sub_b, l, k)),
                )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4: periodic ambiguity closed forms on the full plane",
        worst < 1e-9 and zero_worst < 1e-9 * n_c and elapsed < 10.0,
        f"max err {worst:.2e}, off-support max {zero_worst:.2e}, {elapsed:.1f}s",
    )


def test_c05_grid_io_relation():
    rng = np.random.default_rng(505)
    worst_oracle = 0.0
    worst_forms = 0.0
    plan = (((4, 4), 40), ((8, 4), 40), ((8, 8), 20))
    for (n_p, k), count in plan:
        cfg = proposed_params(n_p, k)
        half = k // 2
        for _ in range(count):
            shape = (n_p, k)
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            paths = [
                PathTap(
                    complex(rng.standard_normal(), rng.standard_normal()),
                    int(rng.integers(0, n_p)),
                    int(rng.integers(-half + 1, half)),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            predicted = io_predict(cfg, x, paths)
            s = modulate(cfg, grid_to_vector(cfg, x))
            observed = vector_to_grid(
                cfg, demodulate(cfg, apply_channel(cfg, s, paths))
            )
            worst_oracle = max(worst_oracle, float(np.abs(predicted - observed).max()))
            worst_forms = max(
                worst_forms,
                float(np.abs(io_general(cfg, x, paths) - predicted).max()),
                float(np.abs(io_convolve(cfg, x, paths) - predicted).max()),
            )
    report(
        "criterion 5: grid-domain channel relation (100 random instances)",
        worst_oracle < 1e-9 and worst_forms < 1e-9,
        f"vs time-domain oracle {worst_oracle:.2e}, form agreement {worst_forms:.2e}",
    )


def test_c06_matched_filter_decoupling():
    t0 = time.perf_counter()
    x = build_frame(TABLE_CFG, 1.0, np.random.default_rng(0))
    s = modulate(TABLE_CFG, x)
    x_grid = vector_to_grid(TABLE_CFG, x)
    hits = 0
    total = 0
    for li in range(11):
        for ki in range(-3, 4):
            r = apply_channel(TABLE_CFG, s, [PathTap(0.7 * np.exp(1.1j), li, ki)])
            y_grid = vector_to_grid(TABLE_CFG, demodulate(TABLE_CFG, r))
            z = ddmf(TABLE_CFG, y_grid, x_grid)
            total += 1
            hits += peak(z)[:2] == (li, ki % TABLE_K)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 6: grid matched filter decouples delay and Doppler exactly",
        hits == total == 77 and elapsed < 30.0,
        f"{hits}/{total} exact, {elapsed:.1f}s",
    )


def test_c07_tfmf_dechirp_equivalence_full_overhead():
    rng = trial_rng(707, 0)
    x = build_frame(TABLE_CFG, 1.0, rng)
    s = modulate(TABLE_CFG, x)
    r = apply_channel(TABLE_CFG, s, [PathTap(1.0, 10, 3)])
    noisy = r + math.sqrt(0.005) * (
        rng.standard_normal(512) + 1j * rng.standard_normal(512)
    )
    zt = np.abs(tfmf(TABLE_CFG, noisy, s))
    zd = np.abs(dechirp(TABLE_CFG, noisy, subcarrier(TABLE_CFG, 0)))
    diff = np.abs(zt / np.linalg.norm(zt) - zd / np.linalg.norm(zd)).max()
    report(
        "criterion 7: dechirp equals the matched filter at full pilot overhead",
        diff < 1e-9,
        f"normalized magnitude diff {diff:.2e}",
    )


def _three_target_counts(po: float, snr_db: float, trials: int, seed: int):
    """Trials in which each detector, at (2, 1, 1e-4), finds all three / the weak target.

    Both detectors judge the same maps; results are keyed ``[detector][algorithm]``
    with detectors ``"ca"`` (cell-averaging) and ``"os"`` (ordered-statistic).
    """
    paths = [PathTap(g, l, k) for g, l, k in THREE_TARGETS]
    detectors = {"ca": cfar_mask_batch, "os": os_cfar_mask_batch}
    all3 = {d: {"tfmf": 0, "ddmf": 0} for d in detectors}
    weak = {d: {"tfmf": 0, "ddmf": 0} for d in detectors}
    rngs = [trial_rng(seed, t) for t in range(trials)]
    for maps in sensing_maps(TABLE_CFG, po, paths, snr_db, ("tfmf", "ddmf"), rngs):
        for alg, cells in maps.items():
            power = np.abs(cells) ** 2
            for name, mask_fn in detectors.items():
                mask, _ = mask_fn(power, 2, 1, 1e-4)
                hits = np.stack([mask_near(mask, l, k) for _, l, k in THREE_TARGETS])
                all3[name][alg] += int(hits.all(axis=0).sum())
                weak[name][alg] += int(hits[2].sum())
    return all3, weak


def test_c08a_three_targets_full_overhead():
    trials = 200
    all3, _ = _three_target_counts(1.0, 20.0, trials, seed=808)
    ca = all3["ca"]
    ok = all(ca[alg] >= 0.95 * trials for alg in ("tfmf", "ddmf"))
    report(
        "criterion 8a: CFAR finds all three targets at full pilot overhead",
        ok,
        f"tfmf {ca['tfmf']}/{trials}, ddmf {ca['ddmf']}/{trials}",
    )


def test_c08b_weak_target_no_pilot():
    """Weak-target detection with data-only frames, CFAR at (2, 1, 1e-4).

    The floor checks the estimator, so it is judged by ordered-statistic
    CFAR; the contrast is judged by cell-averaging CFAR. Neither detector
    is retuned: both use 2 training cells, 1 guard cell and Pfa 1e-4.

    Why the floor cannot use CA-CFAR. The ring holds N = 40 cells and
    alpha = 40 * (1e-4^(-1/40) - 1) = 10.36. The (7, 2) target lies at
    Chebyshev distance 3 from the weak (10, 3) target, inside its ring, and
    alone adds alpha * 0.3 * 512^2 / 40 ~ 20.4k to the weak cell's power
    threshold. Data-only frames leave a cross-correlation floor of
    n_c * sum|h|^2 + noise ~ 517 per cell, the same for every matched
    filter; the other 39 ring cells add alpha * 39 * 517 / 40 ~ 5.2k. The
    threshold, ~25.6k, sits at the weak peak, which the grid matched filter
    integrates at its full coherent gain 0.1 * 512^2 ~ 26.2k. CA-CFAR
    therefore finds it in about half of the trials (classic target masking),
    and no estimator bounded by the matched-filter gain reaches 0.80.

    OS-CFAR (Rohling 1983) takes the noise level as the 30th smallest of
    the 40 ring cells, which the single in-ring target cannot move; with
    alpha = 8.15 the weak cell's threshold drops to ~6.0k. The floor then
    fails only if the estimator loses gain (weak power 0.02 instead of 0.1
    drops the rate to about one half). The contrast stays on CA-CFAR,
    where it resolves a ~3 dB loss of the matched filter; under OS-CFAR
    the transform pipeline also finds the weak target almost always.
    """
    trials = 200
    _, weak = _three_target_counts(0.0, 20.0, trials, seed=808)
    for name in ("ca", "os"):
        print(
            f"[info] criterion 8b {name.upper()}-CFAR rates: "
            f"ddmf {weak[name]['ddmf'] / trials:.2f}, tfmf {weak[name]['tfmf'] / trials:.2f}"
        )
    ca = weak["ca"]
    report(
        "criterion 8b (contrast, CA-CFAR): transform pipeline misses the weak target more",
        ca["tfmf"] < ca["ddmf"],
        f"tfmf {ca['tfmf']} < ddmf {ca['ddmf']}",
    )
    ddmf_rate = weak["os"]["ddmf"] / trials
    report(
        "criterion 8b (floor, OS-CFAR): matched filter finds the weak target in >= 80% of trials",
        ddmf_rate >= 0.80,
        f"measured {ddmf_rate:.2f}",
    )


def _ordering_cell(preset_name, algorithms, snr_db, po, trials, seed):
    """Per-trial PSLR/image SNR and hit count at table1's unit target (10, 3)."""
    table1 = builtin_scenarios()["table1"]
    config = table1.waveform(preset_name)
    samples = trial_metrics(
        config, po, table1.targets, snr_db, algorithms,
        (trial_rng(seed, t) for t in range(trials)),
    )
    return {
        alg: {"pslr": p, "isnr": isnr, "hits": int(hit.sum())}
        for alg, (p, isnr, hit) in samples.items()
    }


def test_c09_ordering_properties():
    trials = 500
    snrs = (0.0, 10.0, 20.0)
    pos = (0.0, 0.5, 1.0)
    proposed = {}
    classic = {}
    for snr in snrs:
        for po in pos:
            proposed[(snr, po)] = _ordering_cell(
                "proposed", ("tfmf", "dechirp", "ddmf"), snr, po, trials, seed=909
            )
            if po > 0.0:
                classic[(snr, po)] = _ordering_cell(
                    "classic", ("tfmf", "dechirp"), snr, po, trials, seed=909
                )

    for (snr, po), rec in proposed.items():
        ok, detail = mean_geq_3sigma(rec["ddmf"]["isnr"], rec["tfmf"]["isnr"])
        report(f"criterion 9a: grid MF image SNR >= TFMF at snr={snr} po={po}", ok, detail)
        ok, detail = mean_geq_3sigma(rec["tfmf"]["isnr"], rec["dechirp"]["isnr"])
        report(f"criterion 9a: TFMF image SNR >= dechirp at snr={snr} po={po}", ok, detail)

    for alg in ("tfmf", "dechirp", "ddmf"):
        for snr in snrs:
            for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
                ok, detail = rate_geq_3sigma(
                    proposed[(snr, hi)][alg]["hits"],
                    proposed[(snr, lo)][alg]["hits"],
                    trials,
                )
                report(
                    f"criterion 9b: {alg} Pd non-decreasing po {lo}->{hi} at snr={snr}",
                    ok,
                    detail,
                )

    for (snr, po), rec in classic.items():
        for alg in ("tfmf", "dechirp"):
            ok, detail = mean_geq_3sigma(
                proposed[(snr, po)][alg]["pslr"], rec[alg]["pslr"]
            )
            report(
                f"criterion 9c: periodic-chirp PSLR >= conventional ({alg}, snr={snr}, po={po})",
                ok,
                detail,
            )


def test_c10_cfar_calibration():
    rng = np.random.default_rng(1010)
    cells = 0
    alarms = 0
    while cells < 10_000_000:
        noise = (
            rng.standard_normal((1024, 64, 8)) + 1j * rng.standard_normal((1024, 64, 8))
        ) / math.sqrt(2.0)
        mask, _ = cfar_mask_batch(np.abs(noise) ** 2, 2, 1, 1e-4)
        alarms += int(mask.sum())
        cells += mask.size
    rate = alarms / cells
    report(
        "criterion 10: CFAR false-alarm rate calibrated",
        1e-4 / 3 < rate < 3e-4,
        f"{rate:.2e} over {cells} cells",
    )


def test_c11_ber_parity():
    t0 = time.perf_counter()
    counts = lmmse_ber_compare(
        {"proposed": TABLE_CFG, "classic": CLASSIC_CFG},
        [PathTap(g, l, k) for g, l, k in THREE_TARGETS],
        [5.0, 15.0],
        realizations=200,
        symbols_per_realization=10,
        seed=1111,
    )
    elapsed = time.perf_counter() - t0
    for snr in (5.0, 15.0):
        ep, nb = counts[("proposed", snr)]
        ec, _ = counts[("classic", snr)]
        bp, bc = ep / nb, ec / nb
        pooled = (ep + ec) / (2 * nb)
        sigma = math.sqrt(pooled * (1 - pooled) * 2 / nb)
        report(
            f"criterion 11: LMMSE BER parity at snr={snr}",
            abs(bp - bc) < 3 * sigma,
            f"{bp:.5f} vs {bc:.5f}, |diff|={abs(bp - bc):.2e}, 3s={3 * sigma:.2e}",
        )
    report("criterion 11: runtime bound", elapsed < 300.0, f"{elapsed:.0f}s")


def test_c12_complexity_scaling():
    rows = benchmark_pipelines((256, 512, 1024, 2048), seed=1212)
    by_alg: dict[str, list[tuple[int, float]]] = {}
    for alg, n_c, seconds in rows:
        by_alg.setdefault(alg, []).append((n_c, seconds))
    bounds = {"tfmf": (0.8, 1.4), "dechirp": (0.8, 1.4), "ddmf": (1.7, 2.3)}
    for alg, pts in by_alg.items():
        slope = loglog_slope([n for n, _ in pts], [s for _, s in pts])
        lo, hi = bounds[alg]
        report(
            f"criterion 12: {alg} runtime slope in [{lo}, {hi}]",
            lo <= slope <= hi,
            f"slope {slope:.2f}",
        )


def test_c13_determinism(tmp_path):
    scenarios = builtin_scenarios()
    jobs = [
        ("ddm", scenarios["fig4"], dict(presets=("proposed",), algorithms=("tfmf", "ddmf"))),
        ("io_check", scenarios["desk"], dict(trials=10)),
        ("pd_curve", scenarios["table1"], dict(
            presets=("proposed",), algorithms=("tfmf", "ddmf"), trials=3,
            snr_db_list=(20.0,),
        )),
    ]
    mismatches = []
    for kind, scenario, kwargs in jobs:
        outs = []
        for sub in ("a", "b"):
            spec = ExperimentSpec(
                kind=kind, scenario=scenario, out_dir=tmp_path / f"{kind}_{sub}",
                seed=13, **kwargs,
            )
            outs.append(sorted(run(spec)))
        for pa, pb in zip(*outs):
            if pa.name != pb.name or pa.read_bytes() != pb.read_bytes():
                mismatches.append((kind, pa.name))
    report(
        "criterion 13: fixed seed reruns are byte-identical",
        not mismatches,
        f"mismatches: {mismatches}" if mismatches else "3 experiment kinds compared",
    )
