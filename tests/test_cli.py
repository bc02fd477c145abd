"""Corpus converters and the command-line entry points, exercised end to
end on small fixtures in temporary directories."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import catsent
from catsent.checkpoint import load_model, save_model
from catsent.cli import ExperimentConfig, main
from catsent.convert import convert_semeval14, convert_sentihood
from catsent.data import CategorySchema, PolaritySet, load_dataset, load_schema
from catsent.encoder import EncoderConfig, Vocabulary
from catsent.errors import ConfigurationError, DataError, SchemaError
from catsent.experiments import (Corpus, run_incremental_pipeline, run_mix_pipeline,
                                 run_plain_pipeline)
from catsent.heads import DecoderMode, HeadKind
from catsent.training import TrainConfig, fresh_model

RESTAURANT_XML = """<?xml version="1.0" encoding="UTF-8"?>
<sentences>
  <sentence id="813">
    <text>The restaurant was expensive, but the menu was great.</text>
    <aspectCategories>
      <aspectCategory category="price" polarity="negative"/>
      <aspectCategory category="food" polarity="positive"/>
    </aspectCategories>
  </sentence>
  <sentence id="814">
    <text>We had to wait a while for a table.</text>
    <aspectCategories>
      <aspectCategory category="anecdotes/miscellaneous" polarity="neutral"/>
    </aspectCategories>
  </sentence>
</sentences>
"""

LOCATION_JSON = json.dumps([
    {"id": 1, "text": "LOCATION1 is very expensive but the area is nice",
     "opinions": [
         {"target_entity": "LOCATION1", "aspect": "price", "sentiment": "Negative"},
         {"target_entity": "LOCATION1", "aspect": "general", "sentiment": "Positive"},
         {"target_entity": "LOCATION1", "aspect": "nightlife", "sentiment": "Positive"},
     ]},
    {"id": 2, "text": "LOCATION2 has great transit links", "opinions": [
        {"target_entity": "LOCATION2", "aspect": "transit-location",
         "sentiment": "Positive"},
    ]},
])


def test_convert_restaurant_xml(tmp_path):
    path = tmp_path / "reviews.xml"
    path.write_text(RESTAURANT_XML)
    ds = convert_semeval14(path)
    assert len(ds) == 2
    s = ds.samples[0]
    assert s.id == "813"
    assert s.labels["price"] == "negative"
    assert s.labels["food"] == "positive"
    assert s.labels["service"] == "none"
    assert ds.samples[1].labels["anecdotes/miscellaneous"] == "neutral"
    assert ds.schema.target_categories == ("service",)


def test_convert_restaurant_rejects_unknown_category(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text(RESTAURANT_XML.replace('category="price"', 'category="drinks"'))
    with pytest.raises(DataError):
        convert_semeval14(path)


def test_convert_restaurant_rejects_malformed(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<sentences><sentence>")
    with pytest.raises(DataError):
        convert_semeval14(path)


def test_convert_location_json(tmp_path):
    path = tmp_path / "loc.json"
    path.write_text(LOCATION_JSON)
    ds = convert_sentihood(path)
    assert len(ds) == 2
    s = ds.samples[0]
    assert s.labels["location-1 price"] == "negative"
    assert s.labels["location-1 general"] == "positive"
    # non-standard aspect dropped silently
    assert all(not k.endswith("nightlife") for k in s.labels)
    assert ds.samples[1].labels["location-2 transit-location"] == "positive"
    assert ds.samples[1].labels["location-1 price"] == "none"


def test_convert_location_rejects_bad_sentiment(tmp_path):
    path = tmp_path / "loc.json"
    path.write_text(LOCATION_JSON.replace("Negative", "meh"))
    with pytest.raises(DataError):
        convert_sentihood(path)


def test_experiment_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(seed=5, head="sep", rates=[0.5, 1.0])
    path = tmp_path / "cfg.json"
    cfg.save(path)
    back = ExperimentConfig.from_file(path)
    assert back == cfg
    assert back.fingerprint() == cfg.fingerprint()


def test_experiment_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seeed": 3}')
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(path)


def test_cli_convert_command(tmp_path):
    xml = tmp_path / "r.xml"
    xml.write_text(RESTAURANT_XML)
    out = tmp_path / "out"
    assert main(["convert", "--format", "semeval14", "--input", str(xml),
                 "--out", str(out), "--split-tag", "train"]) == 0
    schema, pol = load_schema(out / "schema.json")
    ds = load_dataset(out / "train.jsonl", schema, pol)
    assert len(ds) == 2


def test_cli_convert_bad_input_exit_code(tmp_path):
    xml = tmp_path / "r.xml"
    xml.write_text("<oops>")
    assert main(["convert", "--format", "semeval14", "--input", str(xml),
                 "--out", str(tmp_path / "o")]) == 3


def workspace(tmp_path, count=30):
    out = tmp_path / "data"
    assert main(["generate", "--count", str(count), "--seed", "1",
                 "--source", "food,price", "--target", "service",
                 "--out", str(out)]) == 0
    cfg = ExperimentConfig(
        schema=str(out / "schema.json"), train=str(out / "train.jsonl"),
        valid=str(out / "valid.jsonl"), test=str(out / "test.jsonl"),
        seed=1, out=str(tmp_path / "run"),
        encoder={"layers": 1, "heads": 2, "d": 8, "ff": 16, "max_len": 32},
        training={"learning_rate": 1e-3, "epochs": 1, "batch_size": 8})
    cfg_path = tmp_path / "config.json"
    cfg.save(cfg_path)
    return out, cfg_path


def test_cli_generate_and_split(tmp_path):
    out, cfg_path = workspace(tmp_path)
    assert main(["split", "--config", str(cfg_path),
                 "--rate", "0.5", "--rate", "1.0"]) == 0
    run = tmp_path / "run"
    manifest = json.loads((run / "split_manifest.json").read_text())
    assert set(manifest["files"]) == {"train", "valid", "test"}
    schema, pol = load_schema(out / "schema.json")
    sampled = load_dataset(run / manifest["files"]["train"]["sampled"]["0.5"],
                           schema, pol)
    assert len(sampled) == 15


def test_cli_train_eval_forgetting(tmp_path):
    out, cfg_path = workspace(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--workflow", "plain"]) == 0
    run = tmp_path / "run"
    report = json.loads((run / "report.json").read_text())
    assert report["workflow"] == "plain"
    assert "micro_f1" in report["metrics"]["all"]["extraction"]
    assert (run / "model.npz").exists()
    assert (run / "steps.jsonl").exists()

    eval_out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(run / "model.npz"),
                 "--dataset", str(out / "test.jsonl"),
                 "--group", "target", "--out", str(eval_out)]) == 0
    assert json.loads(eval_out.read_text())["group"] == "target"

    assert main(["train", "--config", str(cfg_path), "--workflow", "incremental",
                 "--out", str(tmp_path / "run2")]) == 0
    rep2 = json.loads((tmp_path / "run2" / "report.json").read_text())
    assert set(rep2["metrics"]) == {"stage1", "stage2"}

    assert main(["forgetting", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run3")]) == 0
    forg = json.loads((tmp_path / "run3" / "forgetting.json").read_text())
    assert {"shared", "unshared"} <= set(forg)
    assert "drop" in forg["shared"]


def npz_arrays(path):
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


@pytest.mark.parametrize("workflow", ["plain", "mix", "incremental"])
def test_cli_train_runs_the_experiment_pipeline(tmp_path, workflow):
    """`train` saves exactly the models the experiment pipeline returns for
    the same corpus, configs, rate and seed: every array, metadata included."""
    out, cfg_path = workspace(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--workflow", workflow,
                 "--rate", "0.5"]) == 0
    raw = json.loads(cfg_path.read_text())
    schema, pol = load_schema(out / "schema.json")
    corpus = Corpus(schema, pol, *(load_dataset(out / f"{tag}.jsonl", schema, pol, split)
                                   for tag, split in (("train", "train"),
                                                      ("valid", "validation"),
                                                      ("test", "test"))))
    enc, tr = EncoderConfig(**raw["encoder"]), TrainConfig(**raw["training"])
    head, mode, seed = HeadKind.SEP_SENT_ATT, DecoderMode.SHARED, raw["seed"]
    args = (corpus, head, mode, 0.5, seed, enc, tr)
    if workflow == "plain":
        models = {"model": run_plain_pipeline(corpus, head, mode, seed, enc, tr)}
    elif workflow == "mix":
        models = {"model": run_mix_pipeline(*args)}
    else:
        models = dict(zip(("model.stage1", "model"), run_incremental_pipeline(*args, tr)))
    run = tmp_path / "run"
    for name, model in models.items():
        save_model(model, tmp_path / "want.npz")
        got, want = npz_arrays(run / f"{name}.npz"), npz_arrays(tmp_path / "want.npz")
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), (name, key)
    tags = {"plain": None, "mix": "mix", "incremental": "incremental-stage2"}
    assert load_model(run / "model.npz").provenance.get("workflow") == tags[workflow]
    if workflow == "incremental":
        assert (load_model(run / "model.stage1.npz").provenance["workflow"]
                == "incremental-stage1")


def test_cli_unknown_workflow_exit_code(tmp_path):
    _, cfg_path = workspace(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--workflow", "mix",
                 "--rate", "2.0"]) == 2


def test_cli_incremental_accepts_a_record_without_target_labels(tmp_path):
    out, cfg_path = workspace(tmp_path)
    train_path = out / "train.jsonl"
    lines = train_path.read_text().splitlines()
    first = json.loads(lines[0])
    del first["labels"]["service"]     # absent key: unlabeled
    lines[0] = json.dumps(first)
    train_path.write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", str(cfg_path), "--workflow", "incremental"]) == 0


def test_cli_nonfinite_gradient_exit_code(tmp_path, monkeypatch):
    import catsent.numerics as nx

    class NanGradTape(nx.Tape):
        def backward(self, loss, params):
            super().backward(loss, params)
            params[0].grad.flat[0] = float("inf")

    _, cfg_path = workspace(tmp_path)
    monkeypatch.setattr("catsent.training.Tape", NanGradTape)
    assert main(["train", "--config", str(cfg_path), "--workflow", "plain"]) == 4


def run_cli(*argv):
    """The CLI in a fresh interpreter, as a user runs it."""
    src = str(Path(catsent.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "catsent.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


def assert_exit(proc, code, *needles):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    for needle in needles:
        assert needle in proc.stderr


@pytest.mark.parametrize("section,key", [("encoder", "layerz"), ("training", "lr"),
                                         ("stage2", "epoch"), ("training", "dropout"),
                                         ("training", "seed"), ("stage2", "seed")])
def test_cli_unknown_section_key_exits_2(tmp_path, section, key):
    _, cfg_path = workspace(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw[section][key] = 1
    cfg_path.write_text(json.dumps(raw))
    assert_exit(run_cli("train", "--config", cfg_path, "--workflow", "incremental"),
                2, key)


def edited_config(cfg_path, edit):
    """Write ``edit`` into the config file: an object merges into its section."""
    raw = json.loads(cfg_path.read_text())
    for key, value in edit.items():
        if isinstance(value, dict):
            raw[key].update(value)
        else:
            raw[key] = value
    cfg_path.write_text(json.dumps(raw))


@pytest.mark.parametrize("command, edit, flags, needle", [
    pytest.param("train", {}, ["--seed", "-1"], "seed -1 is negative", id="seed-flag-negative"),
    pytest.param("train", {"seed": 1.5}, [], "'seed'", id="seed-float"),
    pytest.param("train", {"seed": "abc"}, [], "'seed'", id="seed-string"),
    pytest.param("train", {"seed": True}, [], "'seed'", id="seed-true"),
    pytest.param("train", {"rate": "x"}, ["--workflow", "mix"], "'rate'", id="rate-string"),
    pytest.param("train", {"head": "bogus"}, [], "'head'", id="head-unknown"),
    pytest.param("train", {"decoder": 3}, [], "'decoder'", id="decoder-number"),
    pytest.param("train", {"out": 5}, [], "'out'", id="out-number"),
    pytest.param("train", {"encoder": {"d": "8"}}, [], "'encoder.d'", id="encoder-d-string"),
    pytest.param("train", {"encoder": {"layers": 1.5}}, [], "'encoder.layers'",
                 id="encoder-layers-float"),
    pytest.param("train", {"training": {"epochs": "2"}}, [], "'training.epochs'",
                 id="training-epochs-string"),
    pytest.param("split", {"rates": 5}, [], "'rates'", id="rates-number"),
    pytest.param("split", {"rates": ["a"]}, [], "'rates'", id="rates-of-strings"),
])
def test_cli_rejects_a_config_value_of_the_wrong_type_with_exit_2(tmp_path, command, edit,
                                                                 flags, needle):
    _, cfg_path = workspace(tmp_path)
    edited_config(cfg_path, edit)
    assert_exit(run_cli(command, "--config", cfg_path, *flags), 2, needle)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit, workflow, code, needle", [
    pytest.param({"training": {"learning_rate": float("nan")}}, "plain", 2,
                 "training: learning_rate=nan", id="learning-rate-nan"),
    pytest.param({"training": {"learning_rate": -1.0}}, "plain", 2,
                 "training: learning_rate=-1.0", id="learning-rate-negative"),
    pytest.param({"training": {"learning_rate": 10 ** 400}}, "plain", 2,
                 "training: learning_rate=1000", id="learning-rate-past-the-floats"),
    pytest.param({"training": {"l2_lambda": -5.0}}, "plain", 2,
                 "training: l2_lambda=-5.0", id="l2-lambda-negative"),
    pytest.param({"stage2": {"learning_rate": -1.0}}, "incremental", 2,
                 "stage2: learning_rate=-1.0", id="stage2-learning-rate-negative"),
    pytest.param({"training": {"learning_rate": 1e300}}, "plain", 4,
                 "divergence: non-finite forward pass", id="learning-rate-diverges"),
])
def test_cli_train_rejects_a_bad_learning_rate_and_reports_divergence(tmp_path, edit,
                                                                      workflow, code, needle):
    _, cfg_path = workspace(tmp_path)
    edited_config(cfg_path, edit)
    assert_exit(run_cli("train", "--config", cfg_path, "--workflow", workflow), code, needle)
    assert (tmp_path / "run").exists() == (code == 4)


@pytest.mark.parametrize("data", [
    pytest.param(b'{"seed": ' + b"1" * 5000 + b"}", id="integer-over-the-digit-limit"),
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-too-deep"),
    pytest.param(b'{"out": "\xff"}', id="not-utf-8"),
])
def test_cli_config_file_that_does_not_decode_exits_2(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert_exit(run_cli("split", "--config", path), 2, "invalid JSON")


@pytest.mark.parametrize("flag, value, needle", [("--seed", "-1", "seed -1 is negative"),
                                                 ("--count", "-5", "count=-5"),
                                                 ("--count", "0", "count=0")],
                         ids=["seed-negative", "count-negative", "count-zero"])
def test_cli_generate_rejects_a_negative_seed_or_count_with_exit_2(tmp_path, flag, value,
                                                                   needle):
    out = tmp_path / "data"
    assert_exit(run_cli("generate", flag, value, "--out", out), 2, needle)
    assert not out.exists()


@pytest.mark.parametrize("field_name", ["train", "schema"])
def test_cli_missing_data_file_exits_3(tmp_path, field_name):
    _, cfg_path = workspace(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw[field_name] = str(tmp_path / "absent.jsonl")
    cfg_path.write_text(json.dumps(raw))
    assert_exit(run_cli("train", "--config", cfg_path), 3, "absent.jsonl")


@pytest.mark.parametrize("field_name, value", [
    ("polarities", 5), ("categories", [["a"]]), ("polarities", [{"x": 1}, "none"]),
    ("categories", "abc"), ("source_categories", "food")],
    ids=["polarities-int", "categories-nested", "polarities-object", "categories-str",
         "source-str"])
def test_cli_schema_field_not_a_list_of_strings_exits_3(tmp_path, field_name, value):
    out, cfg_path = workspace(tmp_path)
    schema_path = out / "schema.json"
    raw = json.loads(schema_path.read_text())
    raw[field_name] = value
    schema_path.write_text(json.dumps(raw))
    assert_exit(run_cli("train", "--config", cfg_path), 3, repr(field_name))


@pytest.mark.parametrize("key", ["text", "id", "labels"])
def test_cli_record_without_a_field_exits_3_naming_the_line(tmp_path, key):
    out, cfg_path = workspace(tmp_path)
    train_path = out / "train.jsonl"
    lines = train_path.read_text().splitlines()
    rec = json.loads(lines[2])
    del rec[key]
    lines[2] = json.dumps(rec)
    train_path.write_text("\n".join(lines) + "\n")
    assert_exit(run_cli("train", "--config", cfg_path), 3, f"{train_path}:3", repr(key))


def test_cli_missing_checkpoint_exits_2(tmp_path):
    out, _ = workspace(tmp_path)
    assert_exit(run_cli("eval", "--checkpoint", tmp_path / "absent.npz",
                        "--dataset", out / "test.jsonl"), 2, "absent.npz")


def test_cli_checkpoint_without_meta_exits_2(tmp_path):
    out, _ = workspace(tmp_path)
    path = tmp_path / "foreign.npz"
    np.savez(path, weights=np.zeros(3))
    assert_exit(run_cli("eval", "--checkpoint", path, "--dataset", out / "test.jsonl"),
                2, "__meta__")


def _set_meta(arrays, meta):
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


@pytest.mark.parametrize("edit, needle", [
    pytest.param(lambda a, m: a.update(__meta__=np.frombuffer(b"{not", dtype=np.uint8)),
                 "__meta__", id="meta-not-json"),
    pytest.param(lambda a, m: _set_meta(a, {"format_version": 1}),
                 "malformed checkpoint", id="meta-version-only"),
    pytest.param(lambda a, m: (a.pop("dec/W2"), a.pop("dec/b2")),
                 "n_decoders", id="decoder-row-missing"),
    pytest.param(lambda a, m: a.update({"dec/W3": a["dec/W0"], "dec/b3": a["dec/b0"]}),
                 "n_decoders", id="decoder-row-extra"),
    pytest.param(lambda a, m: _set_meta(a, {**m, "n_decoders": 1}),
                 "n_decoders", id="n-decoders-1"),
    pytest.param(lambda a, m: _set_meta(a, {**m, "decoder_mode": "shared"}),
                 "n_decoders", id="shared-with-3-rows"),
    pytest.param(lambda a, m: a.update({"dec/W1": np.zeros((9, 3))}),
                 "decoder rows", id="one-row-wrong-shape"),
    pytest.param(lambda a, m: a.update({f"dec/W{i}": np.zeros((9, 3)) for i in range(3)}),
                 "decoder rows", id="all-rows-wrong-d"),
    pytest.param(lambda a, m: a.update({"enc/l0.wq": np.zeros((9, 8))}),
                 "encoder arrays", id="encoder-matrix-wrong-shape"),
    pytest.param(lambda a, m: a.update({"enc/tok_emb": a["enc/tok_emb"][:-1]}),
                 "encoder arrays", id="tok-emb-rows-not-vocab-size"),
    pytest.param(lambda a, m: _set_meta(a, {**m, "encoder_config": {**m["encoder_config"],
                                                                     "layers": 1}}),
                 "enc/l1.wq", id="meta-names-fewer-layers"),
])
def test_cli_malformed_checkpoint_exits_2(tmp_path, edit, needle):
    """An unshared 3-category, 2-layer checkpoint with its arrays or meta
    record edited."""
    out, _ = workspace(tmp_path)
    schema, pol = load_schema(out / "schema.json")
    vocab = Vocabulary.build([s.text for s in load_dataset(out / "train.jsonl", schema,
                                                           pol).samples], schema)
    enc = EncoderConfig(layers=2, heads=2, d=8, ff=16, max_len=32)
    path = tmp_path / "edited.npz"
    save_model(fresh_model(schema, pol, vocab, enc, HeadKind.SEP, DecoderMode.UNSHARED, 0),
               path)
    arrays = dict(np.load(path))
    edit(arrays, json.loads(bytes(arrays["__meta__"]).decode()))
    np.savez(path, **arrays)
    assert_exit(run_cli("eval", "--checkpoint", path, "--dataset", out / "test.jsonl"),
                2, needle)


def test_cli_eval_rejects_a_bad_threshold_with_exit_2(tmp_path):
    out, cfg_path = workspace(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--workflow", "plain"]) == 0
    for threshold in ("nan", "-1", "2"):
        assert_exit(run_cli("eval", "--checkpoint", tmp_path / "run" / "model.npz",
                            "--dataset", out / "test.jsonl", "--threshold", threshold),
                    2, "threshold")


def test_cli_eval_rejects_a_bad_threshold_before_predicting(tmp_path, monkeypatch, capsys):
    out, cfg_path = workspace(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--workflow", "plain"]) == 0

    def predict(*args, **kwargs):
        raise AssertionError("predict ran before the threshold was checked")

    monkeypatch.setattr("catsent.cli.predict", predict)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "model.npz"),
                 "--dataset", str(out / "test.jsonl"), "--threshold", "nan"]) == 2
    assert "threshold" in capsys.readouterr().err


def test_cli_train_logs_step_time_grad_norm_and_run_facts(tmp_path):
    out, cfg_path = workspace(tmp_path)
    train_path = out / "train.jsonl"
    lines = train_path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["text"] = " ".join(["food great"] * 40)   # 80 tokens, max_len is 32
    lines[0] = json.dumps(rec)
    train_path.write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", str(cfg_path), "--workflow", "plain"]) == 0
    run = tmp_path / "run"
    rows = [json.loads(x) for x in (run / "steps.jsonl").read_text().splitlines()]
    steps = [r for r in rows if r["split"] == "train"]
    assert steps and all(r["ms"] > 0 and np.isfinite(r["grad_norm"]) and r["grad_norm"] > 0
                         for r in steps)
    assert all("ms" not in r for r in rows if r["split"] == "validation")
    report = json.loads((run / "report.json").read_text())
    assert report["truncated"] == {"train": 1, "valid": 0, "test": 0}
    assert set(report["wall_s"]) == {"train", "evaluate"}
    assert all(v > 0 for v in report["wall_s"].values())
    assert report["machine"]["numpy"] == np.__version__
    assert report["machine"]["nproc"] >= 1 and report["machine"]["blas"]


EVAL_SCHEMA = CategorySchema(("food", "service"))
EVAL_POLARITIES = PolaritySet(("positive", "negative", "none"))


@pytest.fixture(scope="module")
def eval_checkpoint(tmp_path_factory):
    """A tiny sep-sent-att checkpoint, saved once for every example."""
    path = tmp_path_factory.mktemp("eval") / "model.npz"
    vocab = Vocabulary.build(["the food was great", "service awful"], EVAL_SCHEMA)
    enc = EncoderConfig(layers=1, heads=2, d=8, ff=16, max_len=16)
    save_model(fresh_model(EVAL_SCHEMA, EVAL_POLARITIES, vocab, enc, HeadKind.SEP_SENT_ATT,
                           DecoderMode.SHARED, 0), path)
    return path


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)
WORDS = st.sampled_from(["the", "food", "was", "great", "service", "awful", "", "!!"])
RECORDS = st.fixed_dictionaries({}, optional={
    "id": st.text(max_size=4) | st.integers(0, 3) | JSON_VALUES,
    "text": st.lists(WORDS, max_size=4).map(" ".join) | JSON_VALUES,
    "labels": st.dictionaries(st.sampled_from(["food", "service", "drinks"]),
                              st.sampled_from(["positive", "negative", "none", "meh"])
                              | JSON_VALUES, max_size=3) | JSON_VALUES,
    "extra": JSON_VALUES})
LINES = st.one_of(
    RECORDS.map(json.dumps),                                  # right or wrong keys and types
    JSON_VALUES.map(json.dumps),                              # any JSON value
    st.text(max_size=20),                                     # mostly not JSON
    st.sampled_from(["", "   ", "\t"]),                      # blank lines
).map(lambda line: line.encode()) | st.binary(max_size=8)     # bytes: often not UTF-8


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(LINES, max_size=5))
def test_the_loader_and_the_cli_never_traceback(eval_checkpoint, tmp_path, capsys, lines):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        load_dataset(path, EVAL_SCHEMA, EVAL_POLARITIES)
    except (SchemaError, DataError):
        pass
    assert main(["eval", "--checkpoint", str(eval_checkpoint), "--dataset", str(path)]) in (0, 2, 3)
    capsys.readouterr()


SECTIONS = {"encoder": EncoderConfig, "training": TrainConfig, "stage2": TrainConfig}
CONFIG_FILES = st.fixed_dictionaries({}, optional={
    **{name: JSON_VALUES for name in ExperimentConfig.__dataclass_fields__
       if name not in SECTIONS},
    **{name: st.dictionaries(st.sampled_from(sorted(cls.__dataclass_fields__)), JSON_VALUES,
                             max_size=4) | JSON_VALUES
       for name, cls in SECTIONS.items()}})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=CONFIG_FILES)
def test_a_config_file_of_any_values_raises_only_configuration_errors(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    try:
        cfg = ExperimentConfig.from_file(path)
        cfg.encoder_config(), cfg.train_config(), cfg.stage2_config()
        cfg.head_kind(), cfg.decoder_mode()
    except ConfigurationError:
        pass


def test_cli_eval_of_a_wordless_sentence_among_others_exits_3(eval_checkpoint, tmp_path):
    """The sep-sent-att head attends over every sentence: one without a word
    token exits 3 whatever batch it lands in, not only when its batch holds
    no word at all."""
    path = tmp_path / "data.jsonl"
    texts = ["the food was great", "service awful", "!!", "the service was great"] * 3
    labels = {"food": "positive", "service": "none"}
    path.write_text("".join(json.dumps({"id": f"s{i}", "text": t, "labels": labels}) + "\n"
                            for i, t in enumerate(texts)))
    assert_exit(run_cli("eval", "--checkpoint", eval_checkpoint, "--dataset", path), 3,
                "'s2'", "span is empty")


@pytest.mark.parametrize("data, needle", [
    pytest.param(b'{"id": "a", "text": "food", "labels": {}}\n\xff\xfe\n', "UTF-8",
                 id="not-utf-8"),
    pytest.param(b'{"id": ' + b"1" * 5000 + b', "text": "food", "labels": {}}\n',
                 "invalid JSON", id="integer-over-the-digit-limit"),
    pytest.param(b"[" * 100000 + b"]" * 100000 + b"\n", "invalid JSON", id="nested-too-deep"),
    pytest.param(b'{"id": "a", "text": "!!", "labels": {}}\n', "span is empty",
                 id="sentence-without-a-token"),
])
def test_cli_eval_of_a_dataset_that_used_to_escape_exits_3(eval_checkpoint, tmp_path, data,
                                                           needle):
    path = tmp_path / "data.jsonl"
    path.write_bytes(data)
    assert_exit(run_cli("eval", "--checkpoint", eval_checkpoint, "--dataset", path), 3, needle)
