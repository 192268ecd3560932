"""Chirp-multicarrier (AFDM) ISAC simulation toolkit.

Waveform synthesis with FMCW-equivalent parameterization, delay-Doppler
channel simulation, periodic ambiguity analysis, grid-domain input-output
modeling, matched-filter sensing with CA- and OS-CFAR detection, and
communication metrics with LMMSE detection.
"""

from .ambiguity import (
    aaf_psi0_closed,
    aaf_psi0_surface,
    aaf_shifted_closed,
    caf_closed,
    dpaf_brute,
    dpaf_surface,
)
from .channel import (
    PathTap,
    PhysicalPath,
    add_awgn,
    apply_channel,
    apply_channel_linear,
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
    FrameSpec,
    MetricReport,
    ber,
    build_effective_channel,
    build_frame,
    image_snr,
    lmmse_detect,
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
    DelayDopplerMap,
    Detection,
    ca_cfar_2d,
    ddmf,
    dechirp,
    os_cfar_2d,
    peak,
    tfmf,
)
from .waveform import (
    TimeSignal,
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
