"""``tools/ab_write.py`` at small sizes: a checkout against itself, and
against copies whose parse or model text differs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_write", ROOT / "tools" / "ab_write.py")
ab_write = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_write)


@pytest.fixture(autouse=True)
def small_sizes(monkeypatch):
    monkeypatch.setattr(ab_write, "TRAIN_SENTENCES", 200)
    monkeypatch.setattr(ab_write, "ROUNDS", 2)


def test_a_checkout_against_itself(tmp_path, capsys):
    out = tmp_path / "ab.json"
    assert ab_write.main([str(ROOT), str(ROOT), "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["parent"] == result["change"]
    assert result["parent"]["checkout"] == str(ROOT)
    assert (result["rounds"], result["train_sentences"]) == (2, 200)
    ratio = result["ratio"]
    assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    for side in ("parent", "change"):
        stages = result["ms_median"][side]
        assert set(stages) == {"parse", "train", "serialize", "deserialize", "round"}
        assert all(ms > 0 for ms in stages.values())
    assert "median %.3f" % ratio["median"] in capsys.readouterr().out


@pytest.mark.parametrize("module, patch, what", [
    ("corpus.py", "\n\n_parse = parse_annotated\n\n\n"
                  "def parse_annotated(text):\n"
                  "    return _parse(text)[:-1]\n",
     "parsed sentences"),
    ("counts.py", "\n\n_train = train\n\n\n"
                  "def train(sentences, config=FeatureConfig()):\n"
                  "    return _train(sentences, FeatureConfig(swap_comma_period=True))\n",
     "model texts"),
], ids=["parse", "model"])
def test_differing_outputs_name_the_round_and_exit_1(tmp_path, capsys, module, patch, what):
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src" / "namefinder", change / "src" / "namefinder",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(change / "src" / "namefinder" / module, "a", encoding="utf-8") as handle:
        handle.write(patch)
    out = tmp_path / "ab.json"
    assert ab_write.main([str(ROOT), str(change), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "round 0: the %s differ" % (what,)
    assert not out.exists()
