"""Chirp-multicarrier (AFDM) ISAC simulation toolkit.

Waveform synthesis with FMCW-equivalent parameterization, delay-Doppler
channel simulation, periodic ambiguity analysis, grid-domain input-output
modeling, matched-filter sensing into delay-Doppler arrays with CA- and
OS-CFAR detection masks, and communication metrics with LMMSE detection.
Signals are plain complex arrays: n_c samples per symbol, (..., n_c) stacks.
"""

from .ambiguity import (
    aaf_psi0_closed,
    aaf_shifted_closed,
    caf_closed,
    dpaf_brute,
    dpaf_surface,
)
from .channel import (
    PathTap,
    PhysicalPath,
    apply_channel,
    quantize_path,
)
from .ddgrid import (
    grid_to_vector,
    interaction_coeff,
    io_convolve,
    io_general,
    io_predict,
    kernel_hw,
    vector_to_grid,
)
from .metrics import (
    build_frame,
    image_snr,
    pslr,
    qam4_demodulate,
    qam4_modulate,
)
from .params import (
    AfdmConfig,
    ScenarioConfig,
    classic_params,
    load_scenario,
    preset,
    proposed_params,
)
from .sensing import (
    ddmf,
    dechirp,
    peak,
    tfmf,
)
from .waveform import (
    add_cpp,
    daft_index_to_dd,
    dd_to_daft_index,
    demodulate,
    echo_form_subcarrier,
    fmcw_signal,
    modulate,
    remove_cpp,
    subcarrier,
)

__version__ = "0.1.0"
