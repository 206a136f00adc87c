"""``tools/ab_decode.py`` at small sizes: a checkout against itself, and
against a copy whose decoder scores differently."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_decode", ROOT / "tools" / "ab_decode.py")
ab_decode = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_decode)


@pytest.fixture(autouse=True)
def small_sizes(monkeypatch):
    monkeypatch.setattr(ab_decode, "TRAIN_SENTENCES", 200)
    monkeypatch.setattr(ab_decode, "DOCUMENTS", 4)
    monkeypatch.setattr(ab_decode, "ROUNDS", 1)


def test_a_checkout_against_itself(tmp_path, capsys):
    out = tmp_path / "ab.json"
    assert ab_decode.main([str(ROOT), str(ROOT), "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["parent"] == result["change"]
    assert result["parent"]["checkout"] == str(ROOT)
    assert (result["documents"], result["rounds"], result["alternations"]) == (4, 1, 4)
    shown = capsys.readouterr().out
    for key, label in (("ratio", "median"), ("cold_ratio", "cold pass")):
        ratio = result[key]
        assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
        assert "%s %.3f" % (label, ratio["median"]) in shown


def test_differing_outputs_name_the_document_and_exit_1(tmp_path, capsys):
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src" / "namefinder", change / "src" / "namefinder",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(change / "src" / "namefinder" / "decoder.py", "a", encoding="utf-8") as handle:
        handle.write("\n\n_decode_sentence = Decoder.decode_sentence\n\n\n"
                     "def _lowered(self, words):\n"
                     "    result = _decode_sentence(self, words)\n"
                     "    result.log_score -= 1.0\n"
                     "    return result\n\n\n"
                     "Decoder.decode_sentence = _lowered\n")
    # Both checkouts load afresh, even after another test loaded this one.
    assert ab_decode.compare((ROOT, ROOT))["alternations"] == 4
    out = tmp_path / "ab.json"
    assert ab_decode.main([str(ROOT), str(change), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "document 0: the outputs differ"
    assert not out.exists()
