"""Golden outputs: `mfload simulate` CSVs pinned by SHA-256.

Each config below covers one policy, or one input feature (service
classes with non-default weights, calibrated traffic), at horizon 1024.
An engine or metric change that moves any output byte fails here, so a
refactor that claims unchanged results is checked against files, not
only against the suite's tolerances.
"""

import hashlib

import pytest

from mfload.cli import main

_SIM = "[sim]\nname = {name}\nhorizon = 1024\nwindow = 64\narrival_scale = {scale}\nseed = 5\n"

CONFIGS = {
    "round_robin": (
        "[traffic]\nkind = fgn\nhurst = 0.75\n[cluster]\nservers = 3\ncpu_count = 2\n"
        "[policy]\nkind = round_robin\n" + _SIM.format(name="rr", scale=1.5)
    ),
    "least_composite": (
        "[traffic]\nkind = fgn\nhurst = 0.8\n"
        "[policy]\nkind = least_composite\n" + _SIM.format(name="lc", scale=1.2)
    ),
    "least_sil": "[policy]\nkind = least_sil\n" + _SIM.format(name="ls", scale=0.6),
    "threshold_migration": (
        "[traffic]\nkind = composite\nhurst = 0.85\nspread = 0.8\n"
        "[policy]\nkind = threshold_migration\nmigration_threshold = 0.001\n"
        + _SIM.format(name="tm", scale=1.0)
    ),
    "classes_weights": (
        "[cluster]\nserver_0 = 8, 64, 32\nserver_1 = 4, 16, 16\nserver_2 = 2, 16, 4\n"
        "[weights]\na = 0.5\nb = 0.3\nc = 0.2\n"
        "[demand]\nclasses = 0.7:1:1 0.3:2.5:0.5\n" + _SIM.format(name="cw", scale=0.8)
    ),
    "calibrate": (
        "[traffic]\nkind = calibrate\nhurst = 0.6\ndelta_h = 1.5\nbudget = 64\n"
        + _SIM.format(name="cal", scale=0.5)
    ),
}

GOLDEN = {
    "round_robin": {
        "report.csv": "f61b918e14c05bd2962a01a10686f2c7a9a88dbcb121a07b1ca23a1ab73ede28",
        "sil.csv": "04cc3d6d2a523241c025e72689dab8ffa280aab45037bbeec28adc644e08d822",
        "series.csv": "673bcefc46673843ef29b183e02d66f469f6d7838cdd0d7c43ea1b76881d0201",
    },
    "least_composite": {
        "report.csv": "df79aab7114f94d7d004de786f66d7afa87186ff2a8f0209ebb80567742cf02c",
        "sil.csv": "913060cd66299cc373c4f7999b1115fa2cea8b94975d8262c75a791e213b544f",
        "series.csv": "4cccff2ae289d72abd1c324e699f7d79a4b0d6ccdb043636bec2a8c255412da5",
    },
    "least_sil": {
        "report.csv": "f98d829df7aa5a835131edb50fac17fa02814d4e17f03f683eba48d72e45d5aa",
        "sil.csv": "851bb2e592e5897697c973e6ceff6a45f82799e8e3aa12c8434a0a2d9f1e7c23",
        "series.csv": "529233b9b1c012ebd298c7ba3ea4869397dffdd2cefe04137061ca215d5f5a64",
    },
    "threshold_migration": {
        "report.csv": "83cf757351862b1fc3ab698878c9eb0e5f6ead09b6f5d3122a4815502cd1e8af",
        "sil.csv": "a4faa68405c62268477451aec44bbb02785aec8f2500f6d499fa53f4a3824576",
        "series.csv": "275e9081712e647914c12907bad44de8362da68da13db03b0a1f0b7c57d97101",
    },
    "classes_weights": {
        "report.csv": "cc3f7d256ee048cf7f68e74c5f7993f229f401b78455882d2dcfe7324481e762",
        "sil.csv": "083170927fd05d3c2e201304d0882625ff5cfdccbacace7d52a7e3161153ef64",
        "series.csv": "529233b9b1c012ebd298c7ba3ea4869397dffdd2cefe04137061ca215d5f5a64",
    },
    "calibrate": {
        "report.csv": "db7e72c4758000ba00f28c904047bd5c17fc49f51adf16e0dedf63554f24d12c",
        "sil.csv": "bb50efb328533733f3eb06e6e6d08fd7dc6c76567ba64fada23179cbf1d8b5a7",
        "series.csv": "e92320772d5a0b66ffaaef218aae5be235eb33b70466c933e0e8a61749a3b9f5",
    },
}


def simulate_digests(name, tmp_path) -> dict:
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(CONFIGS[name], encoding="utf-8")
    out = tmp_path / name
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in GOLDEN[name]}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_outputs_match_golden_digests(name, tmp_path):
    assert simulate_digests(name, tmp_path) == GOLDEN[name]
