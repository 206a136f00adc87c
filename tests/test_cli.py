"""End-to-end command-line tests, invoked in process through main()."""

import os
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from namefinder import (
    Decoder,
    emit_annotated,
    generate_corpus,
    parse_annotated,
    read_model,
    score,
    serialize_model,
    train,
)
from namefinder.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_USAGE, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained model plus train/test corpora on disk."""
    root = tmp_path_factory.mktemp("cli")
    train_corpus = generate_corpus(120, seed=21)
    test_corpus = generate_corpus(40, seed=22)
    train_path = root / "train.ann"
    test_path = root / "test.ann"
    plain_path = root / "test.txt"
    train_path.write_text(emit_annotated(train_corpus), encoding="utf-8")
    test_path.write_text(emit_annotated(test_corpus), encoding="utf-8")
    plain_path.write_text(
        "\n".join(" ".join(s.tokens) for s in test_corpus) + "\n",
        encoding="utf-8")
    model_path = root / "model.nf"
    code = main(["train", str(train_path), "--model", str(model_path)])
    assert code == EXIT_OK
    return {
        "root": root,
        "train": train_path,
        "test": test_path,
        "plain": plain_path,
        "model": model_path,
        "train_corpus": train_corpus,
        "test_corpus": test_corpus,
    }


def not_utf8(path):
    """A file holding a byte that no UTF-8 text contains."""
    path.write_bytes(b"caf\xff .\n")
    return str(path)


class TestTrain:
    def test_reports_corpus_statistics(self, workspace, tmp_path, capsys):
        model_path = tmp_path / "m.nf"
        code = main(["train", str(workspace["train"]),
                     "--model", str(model_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        corpus = workspace["train_corpus"]
        total = sum(len(s.tokens) for s in corpus)
        persons = sum(1 for s in corpus for r in s.regions
                      if r.name_class == "PERSON")
        assert "total words: %d" % total in out
        assert "PERSON regions: %d" % persons in out
        assert "vocabulary size:" in out

    def test_retraining_is_byte_identical(self, workspace, tmp_path):
        a = tmp_path / "a.nf"
        b = tmp_path / "b.nf"
        assert main(["train", str(workspace["train"]), "--model", str(a)]) == 0
        assert main(["train", str(workspace["train"]), "--model", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == workspace["model"].read_bytes()

    def test_model_matches_library_training(self, workspace):
        expected = train(workspace["train_corpus"])
        stored = read_model(workspace["model"])
        assert serialize_model(stored) == serialize_model(expected)

    def test_single_sentence_corpus_cannot_form_halves(self, tmp_path, capsys):
        corpus = tmp_path / "one.ann"
        corpus.write_text("Just one sentence .\n", encoding="utf-8")
        code = main(["train", str(corpus), "--model", str(tmp_path / "m.nf")])
        assert code == EXIT_FORMAT
        assert "held-out halves" in capsys.readouterr().err

    def test_malformed_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "bad.ann"
        corpus.write_text('<ENAMEX TYPE="NOPE">x</ENAMEX>\n', encoding="utf-8")
        code = main(["train", str(corpus), "--model", str(tmp_path / "m.nf")])
        assert code == EXIT_FORMAT
        assert "parse failed" in capsys.readouterr().err

    def test_missing_corpus_file(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "absent.ann"),
                     "--model", str(tmp_path / "m.nf")])
        assert code == EXIT_IO
        assert "cannot read corpus" in capsys.readouterr().err

    def test_unwritable_model_path(self, workspace, tmp_path, capsys):
        model = tmp_path / "absent" / "m.nf"
        code = main(["train", str(workspace["train"]), "--model", str(model)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "namefinder: cannot write model: [Errno 2] No such file or directory: %r\n"
            % str(model))
        assert not (tmp_path / "absent").exists()

    def test_non_utf8_corpus(self, tmp_path, capsys):
        code = main(["train", not_utf8(tmp_path / "c.ann"),
                     "--model", str(tmp_path / "m.nf")])
        assert code == EXIT_FORMAT
        assert capsys.readouterr().err.startswith("namefinder: corpus is not UTF-8: ")
        assert not (tmp_path / "m.nf").exists()


class TestDecode:
    def test_output_reparses_and_aligns(self, workspace, tmp_path, capsys):
        out_path = tmp_path / "decoded.ann"
        code = main(["decode", str(workspace["plain"]),
                     "--model", str(workspace["model"]),
                     "--output", str(out_path)])
        assert code == EXIT_OK
        decoded = parse_annotated(out_path.read_text(encoding="utf-8"))
        assert [s.tokens for s in decoded] == \
            [s.tokens for s in workspace["test_corpus"]]
        for sentence in decoded:
            sentence.validate()
        err = capsys.readouterr().err
        assert "throughput:" in err and "MB/hr" in err

    def test_stdout_when_no_output_flag(self, workspace, capsys):
        code = main(["decode", str(workspace["plain"]),
                     "--model", str(workspace["model"])])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert parse_annotated(out)

    def test_matches_library_decoding(self, workspace, tmp_path):
        out_path = tmp_path / "decoded.ann"
        main(["decode", str(workspace["plain"]),
              "--model", str(workspace["model"]), "--output", str(out_path)])
        model = read_model(workspace["model"])
        text = workspace["plain"].read_text(encoding="utf-8")
        expected = [r.sentence for r in Decoder(model).decode_document(text)]
        assert parse_annotated(out_path.read_text(encoding="utf-8")) == expected

    def test_empty_input(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code = main(["decode", str(empty), "--model", str(workspace["model"])])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_corrupt_model_file(self, workspace, tmp_path, capsys):
        # Version 1 to 5 files are refused; their models must be retrained.
        v6 = workspace["model"].read_text(encoding="utf-8")
        old = [v6.replace("namefinder-model 6\n", "namefinder-model %d\n" % version, 1)
               for version in (1, 2, 3, 4, 5)]
        assert [text[:19] for text in old] == ["namefinder-model %d\n" % version
                                              for version in (1, 2, 3, 4, 5)]
        for text in ["namefinder-model 99\n"] + old:
            bad = tmp_path / "bad.nf"
            bad.write_text(text, encoding="utf-8")
            code = main(["decode", str(workspace["plain"]), "--model", str(bad)])
            assert code == EXIT_FORMAT
            assert "bad model file" in capsys.readouterr().err
        bad.write_text(old[4], encoding="utf-8")
        assert main(["decode", str(workspace["plain"]), "--model", str(bad)]) == EXIT_FORMAT
        assert capsys.readouterr().err == ("namefinder: bad model file: unsupported model "
                                           "version: expected 6, found 5\n")

    def test_model_file_without_words(self, workspace, tmp_path, capsys):
        # Empty tables and a bare words line: refused on load, where it
        # once loaded and then failed in the decoder with a traceback.
        lines = workspace["model"].read_text(encoding="utf-8").split("\n")
        lines = lines[:3] + ["words"] + [line for line in lines if line.startswith("[")]
        bad = tmp_path / "bad.nf"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["decode", str(workspace["plain"]), "--model", str(bad)])
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err == ("namefinder: bad model file: expected 'words ...' at line 4, "
                       "found 'words'\n")

    def test_missing_model_file(self, workspace, tmp_path, capsys):
        code = main(["decode", str(workspace["plain"]),
                     "--model", str(tmp_path / "absent.nf")])
        assert code == EXIT_IO

    def test_non_integer_vocabulary_id(self, workspace, tmp_path, capsys):
        # A word's id in a table field is its position on the words line.
        lines = workspace["model"].read_text(encoding="utf-8").split("\n")
        row = lines.index("[main.word_bigrams]") + 1
        lines[row] = "one" + lines[row][lines[row].index(" "):]
        bad = tmp_path / "bad.nf"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code = main(["decode", str(workspace["plain"]), "--model", str(bad)])
        assert code == EXIT_FORMAT
        assert "bad context 'one " in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["1_0", "07", "+3"])
    def test_count_not_in_the_written_form(self, workspace, tmp_path, capsys, count):
        lines = workspace["model"].read_text(encoding="utf-8").split("\n")
        row = lines.index("[main.word_bigrams]") + 1
        lines[row] = "%s %s" % (lines[row].rpartition(" ")[0], count)
        bad = tmp_path / "bad.nf"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code = main(["decode", str(workspace["plain"]), "--model", str(bad)])
        assert code == EXIT_FORMAT
        assert "bad model file" in capsys.readouterr().err

    @pytest.mark.parametrize("mutation, refusal", [
        pytest.param(mutation, refusal, id=mutation) for mutation, refusal in (
            ("repeated-row", "event out of order"),
            ("word-outside-the-vocabulary", "bad context"),
            ("rows-out-of-order", "context out of order"),
            ("end-token-opens-a-region", "bad event '-'"),
            ("unknown-word-in-a-main-table", "bad event '0 12'"),
            ("end-word-after-a-class", "bad context '7 -'"),
            ("real-word-after-the-sentence-start", "bad context '8 1'"),
            ("end-token-with-a-feature", "bad event '- 8'"))])
    def test_row_no_training_writes(self, workspace, tmp_path, capsys, mutation, refusal):
        lines = workspace["model"].read_text(encoding="utf-8").split("\n")
        size = len(lines[3].split(" ")) - 1  # the words on the words line
        row = lines.index("[main.word_bigrams]") + 1
        context, _, entries = lines[row].partition("\t")
        if mutation == "repeated-row":  # the same event, sorted after
            lines[row] = "%s\t%s0" % (lines[row], entries.split("\t")[-1])
        elif mutation == "word-outside-the-vocabulary":
            lines[row] = "%d%s\t%s" % (size + 1, context[context.index(" "):], entries)
        elif mutation == "rows-out-of-order":
            lines[row], lines[row + 1] = lines[row + 1], lines[row]
        elif mutation == "end-token-opens-a-region":
            # END_TOKEN as a first word, sorted first: loaded, its count
            # would outweigh the class's unigram level.
            lines.insert(lines.index("[main.first_words]") + 1, "0 0\t- 100000")
        elif mutation == "unknown-word-in-a-main-table":
            lines[row] = "%s\t0 12 1\t%s" % (context, entries)
        elif mutation == "end-word-after-a-class":  # NOT-A-NAME, then the end word
            lines.insert(lines.index("[main.class_transitions]") + 1, "7 -\t0 1")
        elif mutation == "real-word-after-the-sentence-start":
            lines.insert(lines.index("[main.first_words]"), "8 1\t0 1")
        else:  # the end token with allCaps
            lines[row] = "%s\t- 8 1\t%s" % (context, entries)
        bad = tmp_path / "bad.nf"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code = main(["decode", str(workspace["plain"]), "--model", str(bad)])
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "bad model file" in err
        assert refusal in err

    def test_count_too_large_to_decode(self, workspace, tmp_path, capsys):
        # The count loads as an integer, but its weight rounds to 1 and a
        # probability to 0; the loader refuses the file before decoding.
        lines = workspace["model"].read_text(encoding="utf-8").split("\n")
        row = lines.index("[main.class_transitions]") + 1
        lines[row] = "%s %d" % (lines[row].rpartition(" ")[0], 10 ** 400)
        bad = tmp_path / "bad.nf"
        bad.write_text("\n".join(lines), encoding="utf-8")
        code = main(["decode", str(workspace["plain"]), "--model", str(bad)])
        assert code == EXIT_FORMAT
        assert "bad model file" in capsys.readouterr().err

    def test_missing_input_file(self, workspace, tmp_path, capsys):
        absent = tmp_path / "absent.txt"
        code = main(["decode", str(absent), "--model", str(workspace["model"])])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "namefinder: cannot read input: [Errno 2] No such file or directory: %r\n"
            % str(absent))

    def test_output_into_a_missing_directory(self, workspace, tmp_path, capsys):
        out_path = tmp_path / "absent" / "decoded.ann"
        code = main(["decode", str(workspace["plain"]),
                     "--model", str(workspace["model"]), "--output", str(out_path)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "namefinder: cannot write output: [Errno 2] No such file or directory: %r\n"
            % str(out_path))
        assert not (tmp_path / "absent").exists()

    def test_failed_output_write_keeps_the_old_file(self, workspace, tmp_path, capsys,
                                                    monkeypatch):
        out_path = tmp_path / "decoded.ann"
        out_path.write_bytes(b"the previous output\n")

        def broken(source, target):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", broken)
        code = main(["decode", str(workspace["plain"]),
                     "--model", str(workspace["model"]), "--output", str(out_path)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "namefinder: cannot write output: rename failed\n"
        assert out_path.read_bytes() == b"the previous output\n"
        assert os.listdir(tmp_path) == ["decoded.ann"]

    def test_output_into_a_pipe_keeps_the_pipe(self, workspace, tmp_path, capsys):
        fifo = tmp_path / "decoded.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        code = main(["decode", str(workspace["plain"]),
                     "--model", str(workspace["model"]), "--output", str(fifo)])
        reader.join(timeout=60)
        assert code == EXIT_OK
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["decoded.fifo"]
        capsys.readouterr()
        main(["decode", str(workspace["plain"]), "--model", str(workspace["model"])])
        assert received == [capsys.readouterr().out.encode("utf-8")]

    def test_non_utf8_input(self, workspace, tmp_path, capsys):
        code = main(["decode", not_utf8(tmp_path / "in.txt"),
                     "--model", str(workspace["model"])])
        assert code == EXIT_FORMAT
        assert "namefinder: input is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_model(self, workspace, tmp_path, capsys):
        code = main(["decode", str(workspace["plain"]),
                     "--model", not_utf8(tmp_path / "m.nf")])
        assert code == EXIT_FORMAT
        assert "namefinder: bad model file: not UTF-8" in capsys.readouterr().err


class TestScore:
    def test_perfect_response(self, workspace, capsys):
        code = main(["score", str(workspace["test"]), str(workspace["test"])])
        assert code == EXIT_OK
        assert "ALL 1.000 1.000 1.000" in capsys.readouterr().out

    def test_six_of_eight_of_ten(self, tmp_path, capsys):
        words = ["w%d" % i for i in range(20)]
        key_regions = (
            [(i, i + 1, "PERSON") for i in range(4)]
            + [(i, i + 1, "LOCATION") for i in range(4, 7)]
            + [(i, i + 1, "DATE") for i in range(7, 10)])
        response_regions = key_regions[:6] + [(6, 7, "PERSON"), (12, 13, "DATE")]

        def render(regions):
            parts = []
            for i, w in enumerate(words):
                match = next((r for r in regions if r[0] == i), None)
                if match:
                    element = "ENAMEX" if match[2] != "DATE" else "TIMEX"
                    parts.append('<%s TYPE="%s">%s</%s>'
                                 % (element, match[2], w, element))
                else:
                    parts.append(w)
            return " ".join(parts) + "\n"

        key_path = tmp_path / "key.ann"
        response_path = tmp_path / "response.ann"
        key_path.write_text(render(key_regions), encoding="utf-8")
        response_path.write_text(render(response_regions), encoding="utf-8")
        code = main(["score", str(key_path), str(response_path)])
        assert code == EXIT_OK
        assert "ALL 0.750 0.600 0.667" in capsys.readouterr().out

    def test_misaligned_tokens(self, tmp_path, capsys):
        a = tmp_path / "a.ann"
        b = tmp_path / "b.ann"
        a.write_text("one two three .\n", encoding="utf-8")
        b.write_text("one 2 three .\n", encoding="utf-8")
        code = main(["score", str(a), str(b)])
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "sentence 1, token 2" in err

    def test_sentence_splits_may_differ(self, tmp_path, capsys):
        key = tmp_path / "key.ann"
        response = tmp_path / "response.ann"
        key.write_text('<ENAMEX TYPE="ORGANIZATION">Yahoo ! Inc.</ENAMEX> said .\n',
                       encoding="utf-8")
        response.write_text("Yahoo ! Inc. said .\n", encoding="utf-8")
        assert main(["score", str(key), str(response)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ALL 0.000 0.000 0.000" in out
        assert main(["score", str(key), str(key)]) == EXIT_OK
        assert "ORGANIZATION 1.000 1.000 1.000" in capsys.readouterr().out

    def test_beta_flag(self, workspace, capsys):
        code = main(["score", str(workspace["test"]), str(workspace["test"]),
                     "--beta", "0.5"])
        assert code == EXIT_OK
        assert "ALL 1.000 1.000 1.000" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["score", "learning-curve"])
    @pytest.mark.parametrize("beta", ["0", "nan", "inf", "1e200"])
    def test_nonpositive_beta_is_a_usage_error(self, workspace, command, beta):
        with pytest.raises(SystemExit) as info:
            main([command, str(workspace["test"]), str(workspace["test"]),
                  "--beta", beta])
        assert info.value.code == EXIT_USAGE

    def test_missing_key_file(self, workspace, tmp_path, capsys):
        absent = tmp_path / "absent.ann"
        code = main(["score", str(absent), str(workspace["test"])])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "namefinder: cannot read key: [Errno 2] No such file or directory: %r\n"
            % str(absent))

    def test_non_utf8_key(self, workspace, tmp_path, capsys):
        code = main(["score", not_utf8(tmp_path / "key.ann"),
                     str(workspace["test"])])
        assert code == EXIT_FORMAT
        assert capsys.readouterr().err.startswith("namefinder: key is not UTF-8: ")


class TestLearningCurve:
    def test_rows_shrink_with_fraction(self, workspace, capsys):
        code = main(["learning-curve", str(workspace["train"]),
                     str(workspace["test"]), "--fractions", "1,1/2"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "fraction words F"
        assert len(lines) == 3
        full = lines[1].split()
        half = lines[2].split()
        assert full[0] == "1" and half[0] == "1/2"
        total = sum(len(s.tokens) for s in workspace["train_corpus"])
        assert int(full[1]) == total
        assert 0 < int(half[1]) < total
        for row in (full, half):
            assert 0.0 <= float(row[2]) <= 1.0

    def test_full_fraction_matches_composed_pipeline(self, workspace, capsys):
        code = main(["learning-curve", str(workspace["train"]),
                     str(workspace["test"]), "--fractions", "1"])
        assert code == EXIT_OK
        printed = float(capsys.readouterr().out.strip().splitlines()[-1].split()[2])
        model = train(workspace["train_corpus"])
        decoder = Decoder(model)
        response = [decoder.decode_sentence(s.tokens).sentence
                    for s in workspace["test_corpus"]]
        f = score(workspace["test_corpus"], response).overall.f_measure
        assert printed == pytest.approx(f, abs=5e-5)

    def test_deterministic_output(self, workspace, capsys):
        argv = ["learning-curve", str(workspace["train"]),
                str(workspace["test"]), "--fractions", "1/2,1/4"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_fraction_order_is_descending(self, workspace, capsys):
        code = main(["learning-curve", str(workspace["train"]),
                     str(workspace["test"]), "--fractions", "1/4,1,1/2"])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [r.split()[0] for r in rows] == ["1", "1/2", "1/4"]

    def test_bad_fractions_are_usage_errors(self, workspace):
        for bad in ("0", "3/2", "x", "1/0", "-1/2"):
            with pytest.raises(SystemExit) as info:
                main(["learning-curve", str(workspace["train"]),
                      str(workspace["test"]), "--fractions", bad])
            assert info.value.code == EXIT_USAGE

    def test_tiny_fraction_that_cannot_train_fails_cleanly(
            self, workspace, capsys):
        code = main(["learning-curve", str(workspace["train"]),
                     str(workspace["test"]), "--fractions", "1/1000"])
        assert code == EXIT_FORMAT
        assert "fraction 1/1000 failed" in capsys.readouterr().err

    def test_decoder_bug_propagates(self, workspace, monkeypatch):
        # Only a prefix too small to train is an expected failure; any
        # other error in the loop is a bug, not a bad input.
        def broken(decoder, words):
            raise ValueError("math domain error")

        monkeypatch.setattr(Decoder, "decode_sentence", broken)
        with pytest.raises(ValueError, match="math domain error"):
            main(["learning-curve", str(workspace["train"]), str(workspace["test"]),
                  "--fractions", "1"])

    def test_missing_corpus_file(self, workspace, tmp_path, capsys):
        absent = tmp_path / "absent.ann"
        code = main(["learning-curve", str(absent), str(workspace["test"])])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "namefinder: cannot read corpus: [Errno 2] No such file or directory: %r\n"
            % str(absent))

    def test_non_utf8_test_corpus(self, workspace, tmp_path, capsys):
        code = main(["learning-curve", str(workspace["train"]),
                     not_utf8(tmp_path / "test.ann")])
        assert code == EXIT_FORMAT
        assert capsys.readouterr().err.startswith("namefinder: test corpus is not UTF-8: ")


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_USAGE

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as info:
            main(["learning-curve", "train.ann", "test.ann", "--seed", "3"])
        assert info.value.code == EXIT_USAGE

    def test_missing_required_flag(self, workspace):
        with pytest.raises(SystemExit) as info:
            main(["train", str(workspace["train"])])
        assert info.value.code == EXIT_USAGE

    def test_abbreviated_options_are_usage_errors(self):
        for argv in (["learning-curve", "a", "b", "--s"],
                     ["decode", "x", "--mod", "m"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == EXIT_USAGE

    def test_console_script_is_installed(self):
        exe = shutil.which("namefinder")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "train" in result.stdout and "decode" in result.stdout

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-m", "namefinder.cli", "--help"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        for command in ("train", "decode", "score", "learning-curve"):
            assert command in result.stdout
