"""The CLI's output pins: pinned commands and the bytes each writes.

Each row of ``PINS`` is one ``afdmsim`` command, run through
``afdmsim.cli.main`` (the console script's entry point) in a fresh
directory, with the bytes of each file it writes pinned: a literal CSV, or
the sha256 hex digest of the file. A scenario file is written under its
file name next to the outputs, and a pinned ``manifest.json`` records the
scenario's name, which is that file's stem. A change that moves a pinned
byte on purpose edits the row and lists the moved cells in CHANGES.md.
"""

import hashlib
from typing import NamedTuple

import numpy as np
import pytest

import afdmsim.csvio as csvio
from afdmsim.cli import main

HEADER = ",".join(csvio.METRIC_COLUMNS)


def _csv(*rows: str) -> str:
    """A metric CSV's literal text: the header, then ``rows``, each ending in LF."""
    return "".join(line + "\n" for line in (HEADER, *rows))


class Pin(NamedTuple):
    id: str
    #: the command line without ``--out``; a scenario file is named by its file name
    argv: tuple[str, ...]
    #: (file name, lines) of the scenario file the command reads, or None for a builtin
    scenario: tuple[str, tuple[str, ...]] | None
    #: each pinned output file's literal text (ending in LF) or sha256 hex digest
    files: dict[str, str]


#: fig4 at PO = 0: the builtin's grid and paths on data frames
FIG4_PO0 = ("fig4_po0.txt", (
    "n_c = 512", "k_chirps = 8", "l_max = 10", "k_max = 3", "seed = 1",
    "pilot_overhead = 0",
    "[path]", "power = 0.6", "l = 3", "k = 0",
    "[path]", "power = 0.3", "l = 7", "k = 2",
    "[path]", "power = 0.1", "l = 10", "k = 3",
))

PINS = [
    # 110 trials are 11 realizations: one block of 8 and a partial block of 3
    Pin("ber-desk", ("ber-curve", "--scenario", "desk", "--trials", "110", "--snr", "0", "12"),
        None, {
            "ber_curve_proposed_lmmse.csv": _csv(
                "0.0,0.0,lmmse,proposed,nan,nan,nan,0.1877840909090909,7040",
                "12.0,0.0,lmmse,proposed,nan,nan,nan,0.041335227272727273,7040",
            ),
        }),
    # delays 0 and 12 at n_c = 32: no divisor of 32 lies in [12, 32 / 3],
    # so the LMMSE sweep runs on one block of 32
    Pin("ber-one-block", ("ber-curve", "--scenario", "one_block.txt", "--preset", "proposed",
                          "--preset", "ocdm", "--trials", "110", "--snr", "0", "12"),
        ("one_block.txt", (
            "n_c = 32", "k_chirps = 2", "l_max = 12", "seed = 5",
            "[path]", "power = 0.7", "l = 0", "k = 0",
            "[path]", "power = 0.3", "l = 12", "k = 0",
        )), {
            "ber_curve_proposed_lmmse.csv": _csv(
                "0.0,0.0,lmmse,proposed,nan,nan,nan,0.22286931818181818,7040",
                "12.0,0.0,lmmse,proposed,nan,nan,nan,0.016477272727272726,7040",
            ),
            "ber_curve_ocdm_lmmse.csv": _csv(
                "0.0,0.0,lmmse,ocdm,nan,nan,nan,0.22258522727272728,7040",
                "12.0,0.0,lmmse,ocdm,nan,nan,nan,0.01875,7040",
            ),
        }),
    # 100 trials are 10 realizations: one block of 8 and a partial block
    # of 2, each an N = 64 block sweep (b = 8, n_c = 512)
    Pin("ber-fig4", ("ber-curve", "--scenario", "fig4", "--preset", "proposed",
                     "--preset", "classic", "--trials", "100", "--snr", "5", "15"),
        None, {
            "ber_curve_proposed_lmmse.csv": _csv(
                "5.0,0.0,lmmse,proposed,nan,nan,nan,0.132998046875,102400",
                "15.0,0.0,lmmse,proposed,nan,nan,nan,0.00669921875,102400",
            ),
            "ber_curve_classic_lmmse.csv": _csv(
                "5.0,0.0,lmmse,classic,nan,nan,nan,0.133193359375,102400",
                "15.0,0.0,lmmse,classic,nan,nan,nan,0.006748046875,102400",
            ),
        }),
    # the target's bin (7, 7) is the last cell of the 8 x 8 map, so the
    # 3 x 3 detection window and its training rings wrap both axes
    Pin("pd-edge", ("pd-curve", "--scenario", "edge.txt", "--trials", "40",
                    "--snr", "-10", "-7"),
        ("edge.txt", (
            "n_c = 64", "k_chirps = 8", "l_max = 7", "k_max = 3", "seed = 5",
            "[path]", "power = 1.0", "l = 7", "k = -1",
        )), {
            "pd_curve_proposed_all.csv": _csv(
                "-10.0,1.0,tfmf,proposed,nan,nan,0.175,nan,40",
                "-7.0,1.0,tfmf,proposed,nan,nan,0.725,nan,40",
                "-10.0,1.0,dechirp,proposed,nan,nan,0.175,nan,40",
                "-7.0,1.0,dechirp,proposed,nan,nan,0.725,nan,40",
                "-10.0,1.0,ddmf,proposed,nan,nan,0.15,nan,40",
                "-7.0,1.0,ddmf,proposed,nan,nan,0.825,nan,40",
            ),
        }),
    # 40 trials are 5 blocks of 8 and 3 SNR points a group of 2 and a group
    # of 1; fig4 at PO = 1 matches every trial against one shared transmit row
    Pin("pd-ddmf-po1", ("pd-curve", "--scenario", "fig4", "--algorithm", "ddmf",
                        "--trials", "40", "--snr", "-18", "-15", "-12"),
        None, {
            "pd_curve_proposed_all.csv": _csv(
                "-18.0,1.0,ddmf,proposed,nan,nan,0.075,nan,40",
                "-15.0,1.0,ddmf,proposed,nan,nan,0.325,nan,40",
                "-12.0,1.0,ddmf,proposed,nan,nan,0.925,nan,40",
            ),
        }),
    # the same command on fig4's PO = 0 copy matches each trial against its
    # own data frame
    Pin("pd-ddmf-po0", ("pd-curve", "--scenario", "fig4_po0.txt", "--algorithm", "ddmf",
                        "--trials", "40", "--snr", "-18", "-15", "-12"),
        FIG4_PO0, {
            "pd_curve_proposed_all.csv": _csv(
                "-18.0,0.0,ddmf,proposed,nan,nan,0.15,nan,40",
                "-15.0,0.0,ddmf,proposed,nan,nan,0.45,nan,40",
                "-12.0,0.0,ddmf,proposed,nan,nan,0.875,nan,40",
            ),
        }),
    # fig4's PO = 0 copy on ocdm: every trial's tfmf matches its own data
    # frame and dechirp the pilot; 11 trials are a full and a partial block
    # at each of the 2 SNR points
    Pin("snr-ocdm-po0", ("snr-sweep", "--scenario", "fig4_po0.txt", "--preset", "ocdm",
                         "--trials", "11", "--snr", "-15", "-5"),
        FIG4_PO0, {
            "snr_sweep_ocdm_all.csv":
                "72f48eaa1bd3fa88a83f8ed1ab06613abee88fbd1d4f469de26e2cce6685807b",
            "manifest.json": "8d399610f27921955297a62258e00f52c8757c37f8fc13ebbb1f53d1e9ec092e",
        }),
    # fig5 runs at PO = 1, a data-free frame shared by every trial; 11
    # trials are one block of 8 and a partial block of 3
    # (last digits re-pinned: ddmf cross-correlations, pilot gather, split sweep)
    Pin("snr-fig5-po1", ("snr-sweep", "--scenario", "fig5", "--trials", "11",
                         "--snr", "-22", "-19"),
        None, {
            "snr_sweep_proposed_all.csv": _csv(
                "-22.0,1.0,tfmf,proposed,-5.344323520348397,3.2085844174656244,"
                "0.09090909090909091,nan,11",
                "-22.0,1.0,dechirp,proposed,-5.344323520348397,3.2085844174656235,"
                "0.09090909090909091,nan,11",
                "-22.0,1.0,ddmf,proposed,-3.380131564583527,5.0341063067179554,"
                "0.09090909090909091,nan,11",
                "-19.0,1.0,tfmf,proposed,-2.682858674024026,5.9084758939613815,"
                "0.18181818181818182,nan,11",
                "-19.0,1.0,dechirp,proposed,-2.682858674024026,5.9084758939613815,"
                "0.18181818181818182,nan,11",
                "-19.0,1.0,ddmf,proposed,-0.3822514625764825,8.031986408724999,"
                "0.18181818181818182,nan,11",
            ),
        }),
    # one path given by power and phase with a negative Doppler tap, one by
    # gain_re/gain_im on the l_max and k_max edge; 11 trials are a full and a
    # partial block at each of the three pilot overheads. The manifest
    # records each target as gain_re, gain_im, l and k
    Pin("po-two-paths", ("po-sweep", "--scenario", "two_paths.txt", "--trials", "11",
                         "--po", "0", "0.5", "1"),
        ("two_paths.txt", (
            "n_c = 512", "k_chirps = 8", "l_max = 10", "k_max = 3", "seed = 3",
            "snr_db = -5",
            "[path]", "power = 0.6", "phase = 0.7", "l = 3", "k = -1",
            "[path]", "gain_re = 0.3", "gain_im = -0.4", "l = 10", "k = 3",
        )), {
            "po_sweep_proposed_all.csv":
                "bed522bad5b531dfa494d0c21ba8849344565b00ec7a4bac2ceaedf63420cc83",
            "manifest.json": "5d8a8fb427f85b7cbac32002ae8877ffd67d9e770a837fd4f9487a8a74f75e73",
        }),
    # PO = 0.09375 on n_c = 64 is (6 - 1) / 2 = 2.5 guards, rounded half up
    # to Q = 3 (half to even would give 2); 0.3 and 0.75 are fractional
    # overheads between the pinned 0, 0.5 and 1. 11 trials are a full and a
    # partial block at each overhead
    Pin("po-half-guard", ("po-sweep", "--scenario", "po_edge.txt", "--trials", "11",
                          "--po", "0.09375", "0.3", "0.75"),
        ("po_edge.txt", (
            "n_c = 64", "k_chirps = 8", "l_max = 7", "k_max = 3", "seed = 5",
            "snr_db = 0",
            "[path]", "power = 1.0", "l = 7", "k = -1",
        )), {
            "po_sweep_proposed_all.csv":
                "1bf93936786cdc3047e80398b5789baaebf4aa1d96a2220ce1436e68084e4ab3",
            "manifest.json": "2cc8bc8c4e2a86439a224fe42c05fb80f6b458aa0503ebddfb2a3ff2e202fa9b",
        }),
    # fig4 maps of each estimator
    # (ddmf re-pinned for the closed-form pilot gather: 396 cells, worst 6.2e-15 relative)
    Pin("ddm-fig4", ("ddm", "--scenario", "fig4"), None, {
        "ddm_proposed_tfmf.csv": "6fcc8091ec88ed41f7faf0e88ef1d7c87bfcaad06b0d0a5d83c9dc1095133bb9",
        "ddm_proposed_dechirp.csv":
            "cf0f717b39bf4a3d20d4df37558df64821b7eec2e7e644e6b1ce418895e7abb2",
        "ddm_proposed_ddmf.csv": "8d605dd0aa470107de1a5e107b777b1b587e566c2c9aab907e48a3da5e41cc35",
    }),
    # fig4's tfmf map against the pilot alone
    Pin("ddm-fig4-pilot", ("ddm", "--scenario", "fig4", "--pilot-only-reference",
                           "--algorithm", "tfmf"), None, {
        "ddm_proposed_tfmf.csv": "0bd679630c21a59876814d3b640325b85109ddf66cd32f4210c21ef3b103996c",
    }),
    # fig4's maps on the classic preset, whose c2 = sqrt(2) is no Fraction
    Pin("ddm-fig4-classic", ("ddm", "--scenario", "fig4", "--preset", "classic"), None, {
        "ddm_classic_tfmf.csv": "914495443d4f3981ecdc944e9c826aed0d452bcb385388074632eceb78bffc0e",
        "ddm_classic_dechirp.csv":
            "5ad6a8e51b1f4495467f88e92b20822fbd62875711e2da387031921f79052343",
    }),
    # the chirp pair's two other phase branches: c1 = c2 = 0 (ofdm) and
    # c1 = c2 = 1/(2 n_c) (ocdm)
    Pin("ddm-ofdm-ocdm", ("ddm", "--scenario", "fig4", "--preset", "ofdm", "--preset", "ocdm"),
        None, {
            "ddm_ocdm_dechirp.csv":
                "e7a12155730c0843492f413e7a0baf3ae9d62c3ad80113cf014f7df56cc889ac",
            "ddm_ocdm_tfmf.csv": "d16265c4c40a35ebc992074671307b79186743537fe363aa8f6f325e68dfe677",
            "ddm_ofdm_dechirp.csv":
                "28df5331341a9134fada4e461daf5dcc7015b4ba0ff76cdf65e07058463e3e86",
            "ddm_ofdm_tfmf.csv": "b33d3e8c0fbc9098fe2dc48741f089585019e4b16a5d8da87c35bed7ada5a70b",
            "manifest.json": "966acc19881cb616ef34aeb28ae0ead4283a5e17c2ff4a7d14d711ea42a9ad64",
        }),
]


def _mismatches(pin: Pin, directory) -> list[str]:
    """Run ``pin``'s command with ``directory`` as its working directory; the files that differ.

    A file differs when its bytes are not the pinned text or do not hash
    to the pinned digest, or when the command did not write it.
    """
    if pin.scenario is not None:
        name, lines = pin.scenario
        (directory / name).write_text("".join(line + "\n" for line in lines))
    assert main([*pin.argv, "--out", "out"]) == 0
    wrong = []
    for name, want in pin.files.items():
        path = directory / "out" / name
        got = path.read_bytes() if path.exists() else None
        if want.endswith("\n"):
            same = got == want.encode()
        else:
            same = got is not None and hashlib.sha256(got).hexdigest() == want
        if not same:
            wrong.append(name)
    return wrong


@pytest.mark.parametrize("pin", PINS, ids=[pin.id for pin in PINS])
def test_command_writes_the_pinned_bytes(pin, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _mismatches(pin, tmp_path) == []


@pytest.mark.parametrize("pin", PINS, ids=[pin.id for pin in PINS])
def test_one_ulp_in_one_cell_fails_the_pin(pin, tmp_path, monkeypatch):
    # every CSV the command writes has the first finite cell of its first
    # float column moved by one ulp; the pin must then fail on each pinned
    # CSV, literal or hashed alike, and on nothing else
    write_csv = csvio.write_csv

    def nudged(path, header, columns):
        columns = [np.asarray(column) for column in columns]
        i = next(i for i, column in enumerate(columns)
                 if column.dtype.kind == "f" and np.isfinite(column[0]))
        columns[i] = columns[i].copy()
        columns[i][0] = np.nextafter(columns[i][0], np.inf)
        return write_csv(path, header, columns)

    monkeypatch.setattr(csvio, "write_csv", nudged)
    monkeypatch.chdir(tmp_path)
    assert _mismatches(pin, tmp_path) == [name for name in pin.files if name.endswith(".csv")]
