"""The package's public names, and the argument checks at its entry points."""

import types

import numpy as np
import pytest

import afdmsim
import afdmsim.ambiguity as ambiguity
import afdmsim.channel as channel
import afdmsim.metrics as metrics
from afdmsim.ambiguity import caf_closed
from afdmsim.channel import PathTap, apply_channel
from afdmsim.ddgrid import io_predict
from afdmsim.metrics import image_snr, lmmse_ber_compare, pslr, trial_metrics, trial_rng
from afdmsim.params import preset
from afdmsim.sensing import cfar_mask_batch, os_cfar_mask_batch
from afdmsim.waveform import (
    daft_index_to_dd,
    dd_to_daft_index,
    echo_form_subcarrier,
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
    (cfar_mask_batch, (POWER, 1.5, 0, 1e-3), "need integers train >= 1 and guard >= 0"),
    (os_cfar_mask_batch, (POWER, True, 0, 1e-3), "need integers train >= 1 and guard >= 0"),
    (pslr, (np.ones((8, 4)), (9, 0)), "target delay index must be an integer in [0, 8)"),
    (image_snr, (np.ones((8, 4)), (0, 4)), "target Doppler index must be an integer in [0, 4)"),
], ids=[
    "pathtap-bool-gain", "apply_channel-tuple", "io_predict-tuple", "trial_metrics-tuple",
    "link-tuple", "subcarrier-float", "subcarrier-bool", "dd_to_daft-float", "dd_to_daft-bool",
    "daft_to_dd-float", "echo_form-float", "caf-float-sub", "caf-bool-l", "cfar-float-train",
    "os-cfar-bool-train", "pslr-cell-outside", "image_snr-cell-outside",
])
def test_entry_point_rejects_argument(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert message in str(info.value)
