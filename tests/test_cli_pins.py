"""The CLI's contract: pinned commands and the bytes each writes, and the commands it refuses.

Each row of ``PINS`` is one ``afdmsim`` command, run through
``afdmsim.cli.main`` (the console script's entry point) in a fresh
directory, with the bytes of each file it writes pinned: a literal CSV, or
the sha256 hex digest of the file. A scenario file is written under its
file name next to the outputs, and a pinned ``manifest.json`` records the
scenario's name, which is that file's stem. A change that moves a pinned
byte on purpose edits the row and lists the moved cells in CHANGES.md.

Each row of ``REJECTIONS`` is a command that ``main`` must refuse as a
configuration error: exit code 1 and one ``error: ...`` line on stderr,
before ``run()`` is reached and before the ``--out`` directory exists.
"""

import hashlib
from typing import NamedTuple

import numpy as np
import pytest

import afdmsim.cli as cli
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
    # a desk-sized scenario file keyed by its chirp period n_p = 8 writes the
    # same bytes as one keyed by its K = 4 chirps, and its manifest records
    # n_p = 8 and K = 4 for the scenario and for the waveform
    *(Pin(f"ddm-desk-like-{key.split()[0]}", ("ddm", "--scenario", "desk_like.txt"),
          ("desk_like.txt", ("n_c = 32", key, "l_max = 2", "k_max = 1", "seed = 7",
                             "[path]", "gain_re = 1.0", "l = 1", "k = 1")), {
        "ddm_proposed_ddmf.csv": "6ee7310067fb3bc64725073bb6f12f7b68bb47d1d3beb0431c66a35dedbba767",
        "ddm_proposed_tfmf.csv": "806fe81a0ee5d2627475e58b779a5d959e6eda25cbb97e04ed133234cf3e7a6d",
        "ddm_proposed_dechirp.csv":
            "b39bf7fb8ced9375eafdae109a04cf70720a03b13b754867c8905ed9668232de",
        "manifest.json": "b6b9b8d517a56157072accfe47911901d5982906a9a87f8c567d2ab3b63e8f31",
    }) for key in ("n_p = 8", "k_chirps = 4")),
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


class Rejection(NamedTuple):
    id: str
    #: the command line without ``--out``; ``{scen}`` stands for the scenario file's path
    argv: tuple[str, ...]
    #: (file name, lines) of the scenario file the command reads, or None
    scenario: tuple[str, tuple[str, ...]] | None
    #: the whole of stderr, one line without its LF; ``{scen}`` stands for the file's path
    stderr: str


SCEN = ("--scenario", "{scen}")
#: a 32-sample grid of K = 4 chirps, and one target at cell (0, 0)
GRID = ("n_c = 32", "k_chirps = 4")
TARGET = ("[path]", "gain_re = 1.0", "l = 0", "k = 0")

REJECTIONS = [
    # a malformed scenario file is named, with the line at fault where there is one
    Rejection("missing-key", ("ddm", *SCEN), ("empty.txt", ("",)),
              "error: {scen}: missing key n_c"),
    *(Rejection(f"malformed-{id}", ("ddm", *SCEN), ("bad.txt", lines), f"error: {{scen}}{message}")
      for id, lines, message in [
          ("section", (*GRID, "[paths]"), ":3: unknown section [paths]"),
          ("no-equals", ("n_c = 32", "k_chirps 4"), ":2: expected 'key = value'"),
          ("path-key", (*GRID, "[path]", "gain = 1"), ":4: unknown path key 'gain'"),
          ("no-k_chirps", ("n_c = 32",), ": missing key k_chirps"),
          ("no-taps", (*GRID, "[path]", "power = 1"), ": path block 0 missing taps l/k"),
          ("no-gain", (*GRID, "[path]", "l = 0", "k = 0"),
           ": path block 0 needs gain_re/gain_im or power"),
          ("preset", (*GRID, "preset = fancy"), ":3: unknown preset 'fancy'"),
      ]),
    Rejection("unknown-scenario-path", ("ddm", "--scenario", "nope.txt"), None,
              "error: [Errno 2] No such file or directory: 'nope.txt'"),
    # a value out of its range, in a file or on the command line
    *(Rejection(f"scenario-snr-{value}", ("ddm", *SCEN), ("scen.txt", (
        *GRID, "k_max = 1", "l_max = 2", f"snr_db = {value}", "[path]", "gain_re = 1.0", "l = 1",
        "k = 0")), f"error: {{scen}}:5: snr_db must be a number or +inf, got {value}")
      for value in ("nan", "-inf")),
    *(Rejection(f"zero-chirp-{id}", ("ddm", *SCEN), ("scen.txt", ("n_c = 32", *lines, *TARGET)),
                f"error: {{scen}}: {message}")
      for id, lines, message in [
          ("k_chirps", ("k_chirps = 0",), "k_chirps must be >= 1, got 0"),
          ("k_chirps-and-n_p", ("k_chirps = 0", "n_p = 8"), "k_chirps must be >= 1, got 0"),
          ("n_p", ("n_p = 0",), "n_p must be >= 1, got 0"),
          ("n_p-and-k_chirps", ("k_chirps = 4", "n_p = 0"), "n_p must be >= 1, got 0"),
      ]),
    *(Rejection(f"bad-value-{id}", ("ddm", *SCEN), ("scen.txt", (
        top, *GRID, "k_max = 1", "[path]", path_line, "l = 0", "k = 0")),
        f"error: {{scen}}:{message}")
      for id, top, path_line, message in [
          ("n_c", "n_c = 32.5", "gain_re = 1.0", "1: n_c must be an integer, got '32.5'"),
          ("snr_db", "snr_db = loud", "gain_re = 1.0", "1: snr_db must be a number, got 'loud'"),
          ("gain_re", "", "gain_re = nan", "6: gain_re must be finite, got 'nan'"),
          ("gain_im", "", "gain_im = -inf", "6: gain_im must be finite, got '-inf'"),
          ("power", "", "power = -1", "6: power must be >= 0, got '-1'"),
          ("phase", "", "phase = inf", "6: phase must be finite, got 'inf'"),
          ("l", "", "l = 0.5", "6: l must be an integer, got '0.5'"),
      ]),
    # a fault found only when the ScenarioConfig is built still names the file
    *(Rejection(f"invalid-{id}", ("ddm", *SCEN), ("scen.txt", lines), f"error: {{scen}}{message}")
      for id, lines, message in [
          ("pilot_overhead", ("pilot_overhead = 2", *GRID, *TARGET),
           ":1: pilot_overhead must lie in [0, 1]"),
          ("l_max", ("l_max = -1", *GRID, *TARGET), ":1: l_max must be non-negative, got -1"),
          ("snr_db", ("snr_db = -inf", *GRID, *TARGET),
           ":1: snr_db must be a number or +inf, got -inf"),
          ("snr_db-too-low", ("snr_db = -4000", *GRID, *TARGET),
           ":1: snr_db -4000.0 is too low: its noise variance overflows"),
          ("delay-tap", ("l_max = 1", *GRID, *TARGET[:2], "l = 3", "k = 0"),
           ": path block 0: target delay tap 3 outside [0, l_max]"),
          ("doppler-tap", ("k_max = 1", *GRID, *TARGET, *TARGET[:3], "k = -2"),
           ": path block 1: target Doppler tap -2 outside [-k_max, k_max]"),
          ("separability", ("k_max = 2", *GRID, *TARGET),
           ": path separability needs k_chirps > 2*k_max (4 <= 4)"),
          ("geometry", ("n_p = 16", *GRID, *TARGET),
           ": n_c must equal k_chirps * n_p, got 32 != 4 * 16"),
          ("period-not-dividing", ("n_c = 30", "n_p = 8", *TARGET),
           ": n_c must equal k_chirps * n_p, got 30 != 3 * 8"),
          ("repeated-key", ("k_chirps = 2", *GRID, *TARGET), ":3: k_chirps given twice"),
          ("repeated-path-key", ("", *GRID, *TARGET, "l = 1"), ":8: l given twice"),
      ]),
    Rejection("negative-scenario-seed", ("io-check", *SCEN),
              ("scen.txt", (*GRID, "seed = -3", *TARGET)),
              "error: {scen}:3: seed must be non-negative, got -3"),
    # one message for every preset: the geometry is checked before any chirp rate
    *(Rejection(f"geometry-{preset}-{n_c}", ("af-surface", *SCEN),
                ("scen.txt", (f"n_c = {n_c}", "k_chirps = 4", f"preset = {preset}")),
                f"error: {{scen}}: n_c and k_chirps must be positive integers, got {n_c}, 4")
      for n_c in (0, -8) for preset in ("proposed", "classic", "ofdm", "ocdm")),
    Rejection("geometry-ocdm-one-chirp", ("af-surface", *SCEN),
              ("zero_ocdm.txt", ("n_c = 0", "k_chirps = 1", "preset = ocdm")),
              "error: {scen}: n_c and k_chirps must be positive integers, got 0, 1"),
    Rejection("zero-trials", ("io-check", "--scenario", "desk", "--trials", "0"), None,
              "error: trials must be >= 1, got 0"),
    Rejection("negative-seed", ("io-check", "--scenario", "desk", "--seed", "-1"), None,
              "error: seed must be >= 0, got -1"),
    Rejection("non-finite-snr", ("ber-curve", "--scenario", "desk", "--snr", "5", "nan"), None,
              "error: SNR values must be finite, got [5.0, nan]"),
    Rejection("snr-variance-overflows", ("snr-sweep", "--scenario", "fig5", "--snr", "10", "-4000",
                                         "--trials", "2"), None,
              "error: snr_db -4000.0 is too low: its noise variance overflows"),
    *(Rejection(f"po-outside-{'-'.join(po)}", ("po-sweep", "--scenario", "fig5", "--po", *po), None,
                f"error: po_list values must lie in [0, 1], got [{', '.join(po)}]")
      for po in (("0.5", "1.5"), ("-0.1",), ("nan",))),
    *(Rejection(f"size-{size}", ("runtime-scaling", "--sizes", "256", size), None,
                f"error: size {size} is no proposed symbol of 8 chirps: {message}")
      for size, message in [
          ("1010", "k_chirps must divide n_c, got 1010 % 8 != 0"),
          ("1032", "n_p must be even, got 129"),
          ("0", "n_c and k_chirps must be positive integers, got 0, 8"),
          ("-16", "n_c and k_chirps must be positive integers, got -16, 8"),
      ]),
    # a flag the kind does not read would be silently ignored
    *(Rejection(f"ignored-{id}", (*argv, "--scenario", "desk"), None,
                f"error: {argv[0]} does not use {flags}")
      for id, argv, flags in [
          ("ddm", ("ddm", "--snr", "5", "--po", "0", "--trials", "3", "--sizes", "16"),
           "--trials, --snr, --po, --sizes"),
          ("af-surface-seed", ("af-surface", "--seed", "1"), "--seed"),
          ("af-surface-algorithm", ("af-surface", "--algorithm", "tfmf"), "--algorithm"),
          ("snr-sweep", ("snr-sweep", "--po", "0.5"), "--po"),
          ("po-sweep", ("po-sweep", "--snr", "10"), "--snr"),
          ("pd-curve", ("pd-curve", "--sizes", "16"), "--sizes"),
          ("ber-curve-algorithm", ("ber-curve", "--algorithm", "tfmf"), "--algorithm"),
          ("ber-curve-pilot", ("ber-curve", "--pilot-only-reference"), "--pilot-only-reference"),
          ("io-check-preset", ("io-check", "--preset", "classic"), "--preset"),
          ("io-check-snr", ("io-check", "--snr", "5"), "--snr"),
          ("runtime-scaling", ("runtime-scaling", "--trials", "3"), "--trials"),
      ]),
    # a pilot reference nothing reads would still be recorded
    *(Rejection(f"pilot-only-{argv[0]}", (*argv, "--scenario", "fig5", "--algorithm", "ddmf",
                                          "--pilot-only-reference"), None,
                "error: --pilot-only-reference sets the reference of tfmf, which is not run")
      for argv in (("snr-sweep", "--trials", "2", "--snr", "10"),
                   ("ddm", "--algorithm", "dechirp"))),
    # a repeat would redo the work and write duplicate rows (or, for a BER
    # SNR, count its bit errors twice against the bits of one)
    *(Rejection(f"repeated-{id}", (*argv, "--scenario", "desk"), None, f"error: {message}")
      for id, argv, message in [
          ("snr", ("ber-curve", "--snr", "5", "5"), "snr_db_list repeats the value 5.0"),
          ("snr-as-float", ("ber-curve", "--snr", "5", "10", "5.0"),
           "snr_db_list repeats the value 5.0"),
          ("preset", ("snr-sweep", "--preset", "proposed", "--preset", "proposed"),
           "presets repeats the value 'proposed'"),
          ("algorithm", ("pd-curve", "--algorithm", "tfmf", "--algorithm", "dechirp",
                         "--algorithm", "tfmf"), "algorithms repeats the value 'tfmf'"),
          ("po", ("po-sweep", "--po", "0.5", "0", "0.5"), "po_list repeats the value 0.5"),
          ("size", ("runtime-scaling", "--sizes", "256", "256"), "sizes repeats the value 256"),
      ]),
    # a slope through one point, or a BER that silently drops symbols, would
    # read like a real result
    Rejection("one-size", ("runtime-scaling", "--sizes", "16", "--scenario", "desk"), None,
              "error: runtime_scaling fits slopes and needs two or more sizes, got [16]"),
    *(Rejection(f"ber-trials-{trials}", ("ber-curve", "--trials", trials, "--scenario", "desk"),
                None, f"error: ber_curve trials {trials} must be a multiple of its {n} channel "
                      "realizations (trials // 10)")
      for trials, n in (("25", 2), ("101", 10))),
    # the CA-CFAR ring (2 train, 1 guard) spans 7 cells per axis, more than the
    # desk grid's 4 Doppler bins: no trial of a sweep there could be scored
    *(Rejection(f"cfar-window-{kind}", (kind, "--scenario", "desk", "--trials", "2"), None,
                "error: scenario 'desk': its (8, 4) delay-Doppler grid is smaller than the "
                f"CFAR window 7 of {kind.replace('-', '_')}")
      for kind in ("snr-sweep", "po-sweep", "pd-curve")),
    # these kinds score the scenario's first target
    *(Rejection(f"no-target-{kind}", (kind, *SCEN, "--trials", "10"),
                ("notarget.txt", ("n_c = 512", "k_chirps = 8")),
                f"error: scenario 'notarget': no target for {kind.replace('-', '_')} to score")
      for kind in ("snr-sweep", "po-sweep", "pd-curve", "ber-curve")),
    # ddmf needs the FMCW-equivalent set: such a preset would write a
    # header-only CSV (sweeps) or no CSV at all (ddm)
    *(Rejection(f"no-algorithm-{argv[0]}-{preset}", (*argv, "--algorithm", "ddmf"), None,
                f"error: preset '{preset}' runs none of the algorithms ['ddmf'] "
                "(ddmf needs the 'proposed' preset)")
      for argv, preset in [
          (("pd-curve", "--scenario", "fig4", "--preset", "ofdm"), "ofdm"),
          (("ddm", "--scenario", "desk", "--preset", "classic"), "classic"),
          (("snr-sweep", "--scenario", "fig4", "--preset", "proposed", "--preset", "ocdm"),
           "ocdm"),
      ]),
    # proposed needs an even n_p, and these kinds run proposed whatever the
    # scenario's preset
    *(Rejection(f"unfit-preset-{argv[0]}", (*argv, *SCEN),
                ("ocdm30.txt", ("n_c = 30", "k_chirps = 2", "preset = ocdm")),
                "error: scenario 'ocdm30': preset 'proposed' does not fit its grid: "
                "n_p must be even, got 15")
      for argv in (("af-surface", "--preset", "proposed"), ("io-check",),
                   ("runtime-scaling", "--sizes", "32", "64"))),
]


def _check_rejected(rejection: Rejection, directory, monkeypatch, capsys) -> None:
    """Run ``rejection``'s command in ``directory``; it must fail with its line before any work.

    The exit code is 1, stderr is exactly the row's line (so no traceback),
    ``afdmsim.cli.run`` is never reached and the ``--out`` directory is
    never created.
    """
    monkeypatch.setattr(cli, "run", lambda spec: pytest.fail(f"{rejection.id} reached run()"))
    monkeypatch.chdir(directory)
    scen = ""
    if rejection.scenario is not None:
        name, lines = rejection.scenario
        scen = str(directory / name)
        (directory / name).write_text("".join(line + "\n" for line in lines))
    argv = [arg.replace("{scen}", scen) for arg in rejection.argv]
    code = main([*argv, "--out", "out"])
    assert (code, capsys.readouterr().err) == (1, rejection.stderr.replace("{scen}", scen) + "\n")
    assert not (directory / "out").exists()


@pytest.mark.parametrize("rejection", REJECTIONS, ids=[row.id for row in REJECTIONS])
def test_command_is_rejected_before_it_runs(rejection, tmp_path, monkeypatch, capsys):
    _check_rejected(rejection, tmp_path, monkeypatch, capsys)


def test_a_valid_command_fails_the_rejection_check(tmp_path, monkeypatch, capsys):
    valid = Rejection("valid", ("io-check", "--scenario", "desk", "--trials", "3"), None, "")
    with pytest.raises(pytest.fail.Exception, match=r"valid reached run\(\)"):
        _check_rejected(valid, tmp_path, monkeypatch, capsys)
