"""Byte pins of every seeded Monte Carlo output.

The digests are sha256 of the CLI's stdout, taken before the estimators
were fused onto one chunk stream; any change to the seeded draws, the
hit counts or the formatting shows up here.  Two configurations: the
default chunk size, and a budget that leaves a remainder chunk.
"""

import hashlib
from pathlib import Path

import pytest

from paulivol import RegionExpr, SamplerConfig, ratio_mc
from paulivol.cli import main

GOLDEN = Path(__file__).parent / "data" / "table_golden.csv"

DEFAULT = ("--samples", "100000", "--seed", "42")
REMAINDER = ("--samples", "100003", "--seed", "7", "--chunk-size", "30000")
SAMPLE_DEFAULT = ("-n", "1000", "--seed", "42")
SAMPLE_REMAINDER = ("-n", "100003", "--seed", "7", "--chunk-size", "30000")

PINS = [
    (("table", *DEFAULT, "--format", "json"),
     "38ce0896bfc73399ca19b50f3e6c4fba59ac2fa508d076802dab250e681f2336"),
    (("table", *DEFAULT, "--format", "csv"),
     "99c72a7ff0af73bc4738d4295d9dfb6d95a943c98aeb51617488ce1c219cc939"),
    (("table", *DEFAULT, "--format", "text"),
     "5b9ced250fbc8b997f3ea02ced38a515e82921465158cf5f6f613cbe60d3a8f7"),
    (("volume", "--region", "CPT,CPDIV", "--method", "mc", *DEFAULT, "--format", "json"),
     "7ab1d0fbf96e3c6686ab9bca2e46703df736641fb28e7d71e7fc3034be568025"),
    (("volume", "--region", "CPT", "--method", "fr", *DEFAULT, "--format", "json"),
     "605aa9f2f4a01b0965241977dc1a7207bd05bcb7eff1bbe447bf0bd571853aa3"),
    (("volume", "--region", "CPT,EBC", "--method", "fr", *DEFAULT, "--format", "json"),
     "ecd7442bf53b0b66fbdc5de9fcd1fa3e2da29bc1b6190d7af439d733f9cdd53c"),
    (("table", *REMAINDER, "--format", "json"),
     "7e99ec5961c27fcd5906a940fa9058b75c70aaa79b2a667f6fa12742d36a70c7"),
    (("table", *REMAINDER, "--format", "csv"),
     "d16b069ebfa4babf8087873d1a9692e972cb7374d2ef7510976fa1c6abcfaa81"),
    (("table", *REMAINDER, "--format", "text"),
     "a1fb87184a6a46707a39e530be557e630ebe50500e3d14637fc52d1302390f88"),
    (("volume", "--region", "CPT,CPDIV", "--method", "mc", *REMAINDER, "--format", "json"),
     "a19aec98394659818a9bad2695a0b449f69b2de16a5628ce54896cae63c524c7"),
    (("volume", "--region", "CPT", "--method", "fr", *REMAINDER, "--format", "json"),
     "2b94daf109deac2376c19b054dd7314d0d2fc4f4ab04ae48379d0ae17308b8a9"),
    (("volume", "--region", "CPT,EBC", "--method", "fr", *REMAINDER, "--format", "json"),
     "15881c6b327247308406bc2301e848c9a53305ed9d6c35bbc9f6750aebe1c1be"),
    (("sample", "--region", "CPT", *SAMPLE_DEFAULT, "--format", "csv"),
     "b8d47143ce61e543d76703aa215c4c2a9e2421580db5d0ebeba661d042527e8a"),
    (("sample", "--region", "CPT", *SAMPLE_DEFAULT, "--format", "json"),
     "f765d94bce9c0fb8d51e0388a5f9190ffc25cce8f02922dc959fe6030faad347"),
    (("sample", "--region", "EBC,TLG", *SAMPLE_DEFAULT, "--format", "csv"),
     "ae62dfea16929c65ea8484fdf15bc71f4ceda8a774af90fa2023f4422a3bd169"),
    (("sample", "--region", "EBC,TLG", *SAMPLE_DEFAULT, "--format", "json"),
     "d85aeb170d3aee4bd425b788de1b413dedddd1c29d33d89512e5cc7ccba60b78"),
    (("sample", "--region", "CPT", *SAMPLE_REMAINDER, "--format", "csv"),
     "38a6e216643e13d685f08a0e7e16c89072a87649efc0443701d590267a7a039c"),
    (("sample", "--region", "CPT", *SAMPLE_REMAINDER, "--format", "json"),
     "dd0e70d62fc81a21ac26e7b2ebeda49330bad0d4ee131dd6bf460df7a432a64b"),
    (("sample", "--region", "EBC,TLG", *SAMPLE_REMAINDER, "--format", "csv"),
     "723a14a50a04204dce3bcc06dec186ba9667272865328000137bce1e3943247b"),
    (("sample", "--region", "EBC,TLG", *SAMPLE_REMAINDER, "--format", "json"),
     "75affee8a71f69a021b5fdfceb8ef4e8f4bf71e3d8552d270971242d6dedb374"),
]


def _stdout(capsys, argv):
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_table_csv_matches_golden_file_byte_for_byte(capsys):
    out = _stdout(capsys, ("table", "--samples", "100000", "--seed", "42", "--format", "csv"))
    assert out == GOLDEN.read_text()


@pytest.mark.parametrize("argv, digest", PINS, ids=[" ".join(a) for a, _d in PINS])
def test_seeded_output_pinned(capsys, argv, digest):
    out = _stdout(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "samples, seed, chunk_size, value, std_error",
    [
        (100000, 42, 2**16, 0.3740981240981241, 0.0026531307663376297),
        (100003, 7, 30000, 0.38049798717757566, 0.0026512359950629618),
    ],
)
def test_ratio_mc_pinned(samples, seed, chunk_size, value, std_error):
    est = ratio_mc(
        RegionExpr.parse("CPDIV"),
        RegionExpr.parse("CPT"),
        SamplerConfig(samples, seed, chunk_size),
    )
    assert (est.value, est.std_error, est.samples) == (value, std_error, samples)
