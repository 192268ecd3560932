"""The package's public names, and the argument checks at its entry points."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afdmsim
import afdmsim.ambiguity as ambiguity
import afdmsim.channel as channel
import afdmsim.metrics as metrics
from afdmsim.ambiguity import (
    aaf_psi0_closed,
    aaf_shifted_closed,
    caf_closed,
    dpaf_brute,
    dpaf_surface,
)
from afdmsim.channel import PathTap, PhysicalPath, apply_channel, quantize_path
from afdmsim.ddgrid import interaction_coeff, io_convolve, io_general, io_predict, kernel_hw
from afdmsim.metrics import (
    image_snr,
    lmmse_ber_compare,
    pslr,
    sensing_maps,
    trial_metrics,
    trial_rng,
    trial_rngs,
)
from afdmsim.params import AfdmConfig, ScenarioConfig, classic_params, preset, proposed_params
from afdmsim.sensing import cfar_mask_batch, os_cfar_mask_batch, peak
from afdmsim.waveform import (
    daft_index_to_dd,
    dd_to_daft_index,
    echo_form_subcarrier,
    fmcw_signal,
    subcarrier,
)

PUBLIC = {
    "AfdmConfig", "PathTap", "PhysicalPath", "ScenarioConfig",
    "aaf_psi0_closed", "aaf_shifted_closed", "caf_closed", "dpaf_brute", "dpaf_surface",
    "add_cpp", "apply_channel", "build_frame", "classic_params", "daft_index_to_dd",
    "dd_to_daft_index", "ddmf", "dechirp", "demodulate", "echo_form_subcarrier",
    "fmcw_signal", "grid_to_vector", "image_snr", "interaction_coeff", "io_convolve",
    "io_general", "io_predict", "kernel_hw", "load_scenario", "modulate", "peak", "preset",
    "proposed_params", "pslr", "qam4_demodulate", "qam4_modulate", "quantize_path",
    "remove_cpp", "subcarrier", "tfmf", "vector_to_grid",
}

#: Reference forms that only the tests use, and the modules that used to define them.
MOVED_TO_ORACLES = {
    "build_effective_channel": metrics,
    "lmmse_detect": metrics,
    "ber": metrics,
    "add_awgn": channel,
    "apply_channel_linear": channel,
    "aaf_psi0_surface": ambiguity,
}


def test_public_names_are_pinned():
    names = {
        name for name, value in vars(afdmsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC
    for name, module in MOVED_TO_ORACLES.items():
        assert not hasattr(afdmsim, name), name
        assert not hasattr(module, name), (module.__name__, name)


CFG = preset("proposed", 32, 4)  # n_p = 8, K = 4
SYMBOL = np.ones(CFG.n_c, dtype=complex)
GRID = np.ones((CFG.n_p, CFG.k_chirps), dtype=complex)
POWER = np.ones((8, 8))


@pytest.mark.parametrize("call, args, message", [
    (PathTap, (True, 0, 0), "gain must be a complex number, got bool True"),
    (apply_channel, (CFG, SYMBOL, [(1.0, 1, 0)]), "paths must hold PathTap paths, got tuple"),
    (io_predict, (CFG, GRID, [(1.0, 1.5, 0)]), "paths must hold PathTap paths, got tuple"),
    (io_convolve, (CFG, GRID, [(1.0, 1, 0)]), "paths must hold PathTap paths, got tuple"),
    (io_general, (CFG, GRID, [(1.0, 1, 0)]), "paths must hold PathTap paths, got tuple"),
    (kernel_hw, (CFG, [(1.0, 1, 0)], 0, 0, 0, 0), "paths must hold PathTap paths, got tuple"),
    (kernel_hw, (CFG, [PathTap(1.0, 1, 0)], 1.5, 0, 0, 0), "l must hold integers"),
    (kernel_hw, (CFG, [PathTap(1.0, 1, 0)], 0, 0, 0, True), "k_in must hold integers"),
    (trial_metrics, (CFG, 0.0, [(1.0, 1, 0)], 10.0, ["tfmf"], [trial_rng(1, 0)]),
     "paths must hold PathTap paths"),
    (lmmse_ber_compare, ({"proposed": CFG}, [(1.0, 1, 0)], [10.0], 1, 1, 1),
     "paths must hold PathTap paths"),
    (subcarrier, (CFG, 1.5), "subcarrier index m must be an integer in [0, 32), got float"),
    (subcarrier, (CFG, True), "subcarrier index m must be an integer in [0, 32), got bool"),
    (dd_to_daft_index, (CFG, 1.5, 0), "delay index l must be an integer in [0, 8), got float"),
    (dd_to_daft_index, (CFG, True, 0), "delay index l must be an integer in [0, 8), got bool"),
    (daft_index_to_dd, (CFG, 2.5), "subcarrier index m must be an integer in [0, 32)"),
    (echo_form_subcarrier, (CFG, 1.5, 0), "delay index l must be an integer in [0, 8)"),
    (caf_closed, (CFG, (1.5, 0), (0, 0), 0, 0), "sub_a must hold integers"),
    (caf_closed, (CFG, (0, 0), (0, 0), True, 0), "l must hold integers"),
    (dpaf_brute, (SYMBOL, SYMBOL, 1.5, 0), "l must be an integer, got float 1.5"),
    (dpaf_brute, (SYMBOL, SYMBOL, 0, True), "k must be an integer, got bool True"),
    (dpaf_surface, (SYMBOL, SYMBOL, 2.5), "n_delays must be an integer in [0, 33), got float"),
    (dpaf_surface, (SYMBOL, SYMBOL, 33), "n_delays must be an integer in [0, 33), got int"),
    (cfar_mask_batch, (POWER, 1.5, 0, 1e-3), "need integers train >= 1 and guard >= 0"),
    (os_cfar_mask_batch, (POWER, True, 0, 1e-3), "need integers train >= 1 and guard >= 0"),
    (cfar_mask_batch, (POWER, 1, 0, 1e-3, (1.5, 0)), "near must be a pair of integers (l, k)"),
    (cfar_mask_batch, (POWER, 1, 0, 1e-3, (0, True)), "near must be a pair of integers (l, k)"),
    (cfar_mask_batch, (POWER, 1, 0, 1e-3, (0, 0, 0)), "near must be a pair of integers (l, k)"),
    (pslr, (np.ones((8, 4)), (9, 0)), "target delay index must be an integer in [0, 8)"),
    (image_snr, (np.ones((8, 4)), (0, 4)), "target Doppler index must be an integer in [0, 4)"),
    (AfdmConfig, (32, 4, Fraction(1, 16), math.nan), "c2 must be finite, got nan"),
    (AfdmConfig, (32, 4, Fraction(1, 16), math.inf), "c2 must be finite, got inf"),
    (AfdmConfig, (32, 4, Fraction(1, 16), 10**400), "c2 must be finite, got 1000"),
    (AfdmConfig, (32, 4, Fraction(1, 16), False), "c2 must be a real number, got bool False"),
    (AfdmConfig, (32, 4, Fraction(1, 16), "x"), "c2 must be a real number, got str 'x'"),
    (AfdmConfig, (32, 4, Fraction(1, 16), 1j), "c2 must be a real number, got complex 1j"),
    (trial_metrics, (CFG, 1.0, [PathTap(1.0, 1, 0)], True, ["tfmf"], [trial_rng(1, 0)]),
     "snr_db must be a real number, got bool True"),
    (trial_metrics, (CFG, 1.0, [PathTap(1.0, 1, 0)], "5", ["tfmf"], [trial_rng(1, 0)]),
     "snr_db must be a real number, got str '5'"),
    (sensing_maps, (CFG, 1.0, [PathTap(1.0, 1, 0)], True, ["tfmf"], [trial_rng(1, 0)]),
     "snr_db must be a real number, got bool True"),
    (lmmse_ber_compare, ({"proposed": CFG}, [PathTap(1.0, 1, 0)], ["5"], 1, 1, 1),
     "snr_db must be a real number, got str '5'"),
    (lmmse_ber_compare, ({"proposed": CFG}, [PathTap(1.0, 1, 0)], [True], 1, 1, 1),
     "snr_db must be a real number, got bool True"),
    (PhysicalPath, (True, 0.0), "range_m must be a real number, got bool True"),
    (PhysicalPath, ("a", 0.0), "range_m must be a real number, got str 'a'"),
    (quantize_path, (PhysicalPath(1.0, 0.0), math.inf, 1.0, 79e9),
     "bandwidth_hz must be finite, got inf"),
    (quantize_path, (PhysicalPath(1.0, 0.0), 1.0, math.inf, 79e9),
     "duration_s must be finite, got inf"),
    (quantize_path, (PhysicalPath(1e300, 0.0), 1e20, 1.0, 79e9),
     "delay tap B*tau must be finite, got inf"),
    (quantize_path, (PhysicalPath(0.0, 1e300), 1.0, 1e20, 79e9),
     "Doppler tap T*nu must be finite, got inf"),
    (pslr, (np.ones((8, 4)), (0, 0, 0)), "target must be a pair of integers (l, k), got (0, 0, 0)"),
    (pslr, (np.ones((8, 4)), 3), "target must be a pair of integers (l, k), got 3"),
    (image_snr, (np.ones((8, 4)), None), "target must be a pair of integers (l, k), got None"),
    (pslr, (np.ones(8), (0, 0)), "cells must be an (n_p, K) map or a stack of them"),
    (image_snr, (np.ones(8), (0, 0)), "cells must be an (n_p, K) map or a stack of them"),
    (peak, (np.ones(8),), "cells must be one (n_p, K) map, got shape (8,)"),
    (peak, (np.ones((2, 2, 2)),), "cells must be one (n_p, K) map, got shape (2, 2, 2)"),
    (trial_rng, (True, 0), "seed must be an integer, got bool True"),
    (trial_rng, ("1", 0), "seed must be an integer, got str '1'"),
    (trial_rng, (1.5, 0), "seed must be an integer, got float 1.5"),
    (trial_rng, (-1, 0), "seed must be >= 0, got -1"),
    (trial_rng, (1, True), "trial must be an integer, got bool True"),
    (trial_rng, (1, -2), "trial must be >= 0, got -2"),
    (trial_rngs, (True, range(1)), "seed must be an integer, got bool True"),
    (trial_rngs, (1.5, range(1)), "seed must be an integer, got float 1.5"),
], ids=[
    "pathtap-bool-gain", "apply_channel-tuple", "io_predict-tuple", "io_convolve-tuple",
    "io_general-tuple", "kernel_hw-tuple", "kernel_hw-float-l", "kernel_hw-bool-k_in",
    "trial_metrics-tuple", "link-tuple", "subcarrier-float", "subcarrier-bool",
    "dd_to_daft-float", "dd_to_daft-bool", "daft_to_dd-float", "echo_form-float",
    "caf-float-sub", "caf-bool-l", "dpaf_brute-float-l", "dpaf_brute-bool-k",
    "dpaf_surface-float", "dpaf_surface-outside", "cfar-float-train", "os-cfar-bool-train",
    "cfar-float-near", "cfar-bool-near", "cfar-triple-near", "pslr-cell-outside",
    "image_snr-cell-outside", "c2-nan", "c2-inf", "c2-huge-int", "c2-bool", "c2-str", "c2-complex",
    "trial_metrics-bool-snr", "trial_metrics-str-snr", "sensing_maps-bool-snr", "link-str-snr",
    "link-bool-snr", "physical-bool-range", "physical-str-range", "quantize-inf-bandwidth",
    "quantize-inf-duration", "quantize-delay-overflow", "quantize-doppler-overflow",
    "pslr-triple-target", "pslr-int-target", "image_snr-none-target", "pslr-1d", "image_snr-1d",
    "peak-1d", "peak-3d", "trial_rng-bool-seed", "trial_rng-str-seed", "trial_rng-float-seed",
    "trial_rng-negative-seed", "trial_rng-bool-trial", "trial_rng-negative-trial",
    "trial_rngs-bool-seed", "trial_rngs-float-seed",
])
def test_entry_point_rejects_argument(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert message in str(info.value)


PATHS = [PathTap(1.0, 1, 0)]
MAP = np.ones((8, 4))

#: The integer index, tap, cell and count parameters of the package's exported
#: functions: (argument as its error names it, the call with that argument
#: set to v, the valid range [lo, hi) with None for no bound, or None where
#: every integer is valid, as for the cyclic ones)
INTEGER_ARGUMENTS = [
    ("subcarrier index m", lambda v: subcarrier(CFG, v), (0, 32)),
    ("delay index l", lambda v: dd_to_daft_index(CFG, v, 0), (0, 8)),
    ("Doppler index k", lambda v: dd_to_daft_index(CFG, 0, v), (0, 4)),
    ("subcarrier index m", lambda v: daft_index_to_dd(CFG, v), (0, 32)),
    ("delay index l", lambda v: echo_form_subcarrier(CFG, v, 0), (0, 8)),
    ("Doppler index k", lambda v: echo_form_subcarrier(CFG, 0, v), (0, 4)),
    ("sub_a", lambda v: caf_closed(CFG, (v, 0), (0, 0), 0, 0), None),
    ("sub_b", lambda v: caf_closed(CFG, (0, 0), (0, v), 0, 0), None),
    ("l", lambda v: caf_closed(CFG, (0, 0), (0, 0), v, 0), None),
    ("k", lambda v: caf_closed(CFG, (0, 0), (0, 0), 0, v), None),
    ("l", lambda v: aaf_psi0_closed(CFG, v, 0), None),
    ("k", lambda v: aaf_psi0_closed(CFG, 0, v), None),
    ("sub", lambda v: aaf_shifted_closed(CFG, (0, v), 0, 0), None),
    ("sub_in", lambda v: interaction_coeff(CFG, (v, 0), (0, 0), 0, 0), None),
    ("sub_out", lambda v: interaction_coeff(CFG, (0, 0), (0, v), 0, 0), None),
    ("l_i", lambda v: interaction_coeff(CFG, (0, 0), (0, 0), v, 0), None),
    ("k_i", lambda v: interaction_coeff(CFG, (0, 0), (0, 0), 0, v), None),
    ("l", lambda v: kernel_hw(CFG, PATHS, v, 0, 0, 0), None),
    ("k", lambda v: kernel_hw(CFG, PATHS, 0, v, 0, 0), None),
    ("l_in", lambda v: kernel_hw(CFG, PATHS, 0, 0, v, 0), None),
    ("k_in", lambda v: kernel_hw(CFG, PATHS, 0, 0, 0, v), None),
    ("l", lambda v: dpaf_brute(SYMBOL, SYMBOL, v, 0), None),
    ("k", lambda v: dpaf_brute(SYMBOL, SYMBOL, 0, v), None),
    ("n_delays", lambda v: dpaf_surface(SYMBOL, SYMBOL, v), (0, 33)),
    ("target delay index", lambda v: pslr(MAP, (v, 0)), (0, 8)),
    ("target Doppler index", lambda v: pslr(MAP, (0, v)), (0, 4)),
    ("target delay index", lambda v: image_snr(MAP, (v, 0)), (0, 8)),
    ("target Doppler index", lambda v: image_snr(MAP, (0, v)), (0, 4)),
    ("delay_tap", lambda v: PathTap(1.0, v, 0), (0, None)),
    ("doppler_tap", lambda v: PathTap(1.0, 0, v), None),
    ("n_c", lambda v: preset("proposed", v, 4), (1, None)),
    ("k_chirps", lambda v: preset("proposed", 32, v), (1, None)),
    ("k_max", lambda v: preset("classic", 32, 4, v), (0, None)),
    ("l_cpp", lambda v: preset("proposed", 32, 4, 0, v), (0, None)),
    ("n_p", lambda v: proposed_params(v, 4), (1, None)),
    ("n_c", lambda v: classic_params(v, 0), (1, None)),
    ("k_max", lambda v: classic_params(32, v), (0, None)),
    ("k_chirps", lambda v: classic_params(32, 0, v), (1, None)),
    ("n_c", lambda v: ScenarioConfig(name="s", n_c=v, k_chirps=4), (1, None)),
    ("k_chirps", lambda v: ScenarioConfig(name="s", n_c=32, k_chirps=v), (1, None)),
    ("l_max", lambda v: ScenarioConfig(name="s", n_c=32, k_chirps=4, l_max=v), (0, None)),
    ("k_max", lambda v: ScenarioConfig(name="s", n_c=32, k_chirps=4, k_max=v), (0, None)),
    ("rng_seed", lambda v: ScenarioConfig(name="s", n_c=32, k_chirps=4, rng_seed=v), (0, None)),
    ("n_p", lambda v: fmcw_signal(v, 4), (1, None)),
    ("seed", lambda v: trial_rng(v, 0), (0, None)),
    ("trial", lambda v: trial_rng(0, v), (0, None)),
    ("seed", lambda v: trial_rngs(v, range(1)), (0, None)),
    ("trial", lambda v: next(trial_rngs(0, [v])), (0, None)),
]


@st.composite
def bad_integer_arguments(draw):
    """(argument name, call, value): a non-integral float, a bool or an integer out of range."""
    name, call, valid = draw(st.sampled_from(INTEGER_ARGUMENTS))
    bad = [st.floats().filter(lambda v: not v.is_integer()), st.booleans()]
    if valid is not None:
        lo, hi = valid
        bad.append(st.integers(max_value=lo - 1))
        if hi is not None:
            bad.append(st.integers(min_value=hi))
    return name, call, draw(st.one_of(bad))


@settings(deadline=None, max_examples=300)
@given(case=bad_integer_arguments())
def test_integer_arguments_reject_other_values_by_name(case):
    # the subject of the message, before "must", names the argument: alone
    # or, for the grid's two counts, as one of "n_c and k_chirps"
    name, call, value = case
    with pytest.raises(ValueError) as info:
        call(value)
    subject = str(info.value).split(" must ", 1)[0]
    assert name in subject.split(" and "), (name, value, str(info.value))
