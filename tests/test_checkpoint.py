"""Checkpoint round trips: save -> load must reproduce predictions to
float64 identity."""

import json

import numpy as np
import pytest

from catsent.checkpoint import load_model, save_model
from catsent.data import (CategorySchema, PolaritySet, SyntheticSpec,
                          make_synthetic)
from catsent.encoder import EncoderConfig, Vocabulary
from catsent.errors import ConfigurationError
from catsent.heads import DecoderMode, HeadKind
from catsent.training import TrainConfig, fresh_model, predict, train

POL = PolaritySet(("positive", "negative", "none"))
SCHEMA = CategorySchema(("food", "service"), ("food",), ("service",))
ENC = EncoderConfig(layers=1, heads=2, d=8, ff=16, max_len=32, dropout=0.1)


def trained_model(mode=DecoderMode.UNSHARED):
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 10), 0)
    vocab = Vocabulary.build([s.text for s in ds.samples], SCHEMA)
    init = fresh_model(SCHEMA, POL, vocab, ENC, HeadKind.SEP_SENT_ATT, mode, 0)
    return train(ds, ds, init,
                 TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4)), ds


def test_roundtrip_bitwise(tmp_path):
    model, ds = trained_model()
    path = tmp_path / "model.npz"
    save_model(model, path)
    with np.load(path) as npz:
        meta = json.loads(bytes(npz["__meta__"]).decode())
        dec_keys = sorted(k for k in npz.files if k.startswith("dec/"))
    assert meta["format_version"] == 1
    assert dec_keys == ["dec/W0", "dec/W1", "dec/b0", "dec/b1"]
    back = load_model(path)
    assert back.schema == model.schema
    assert back.polarities == model.polarities
    assert back.vocab == model.vocab
    assert back.encoder_config == model.encoder_config
    assert back.head_kind == model.head_kind
    assert back.dec.mode == model.dec.mode
    assert back.provenance == model.provenance
    for (na, pa), (nb, pb) in zip(model.param_items(), back.param_items()):
        assert na == nb and np.array_equal(pa.data, pb.data)


def test_roundtrip_predictions_identical(tmp_path):
    model, ds = trained_model(DecoderMode.SHARED)
    before = predict(model, ds)
    save_model(model, tmp_path / "m.npz")
    after = predict(load_model(tmp_path / "m.npz"), ds)
    assert np.abs(before - after).max() < 1e-12


def test_rejects_unknown_format_version(tmp_path):
    model, _ = trained_model()
    path = tmp_path / "m.npz"
    save_model(model, path)
    import json
    import numpy as np_

    data = dict(np_.load(path))
    meta = json.loads(bytes(data["__meta__"]).decode())
    meta["format_version"] = 999
    data["__meta__"] = np_.frombuffer(json.dumps(meta).encode(), dtype=np_.uint8)
    np_.savez(path, **data)
    with pytest.raises(ConfigurationError):
        load_model(path)
