"""Model checkpoints: one .npz container holding config, vocabulary and all
parameter arrays, version-tagged. float64 round-trips bit-exactly."""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict

import numpy as np

from .data import CategorySchema, PolaritySet
from .encoder import EncoderConfig, Vocabulary, encoder_param_names
from .errors import ConfigurationError
from .heads import DecoderMode, DecoderParams, HeadKind
from .numerics import NdArray
from .training import TrainedModel

FORMAT_VERSION = 1


def save_model(model: TrainedModel, path) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "encoder_config": asdict(model.encoder_config),
        "vocab": model.vocab.token_to_id,
        "schema": {
            "categories": list(model.schema.categories),
            "source_categories": list(model.schema.source_categories),
            "target_categories": list(model.schema.target_categories),
        },
        "polarities": list(model.polarities.labels),
        "head_kind": model.head_kind.value,
        "decoder_mode": model.dec.mode.value,
        "n_decoders": len(model.dec.W),
        "provenance": model.provenance,
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for name in encoder_param_names(model.encoder_config):
        arrays["enc/" + name] = model.enc_params[name].data
    for i, (w, b) in enumerate(zip(model.dec.W, model.dec.b)):
        arrays[f"dec/W{i}"] = w.data
        arrays[f"dec/b{i}"] = b.data
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path) -> TrainedModel:
    try:
        npz = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"{path}: cannot read checkpoint: {exc}") from exc
    if not isinstance(npz, np.lib.npyio.NpzFile):   # a bare .npy array
        raise ConfigurationError(f"{path}: not a catsent checkpoint")
    with npz:
        if "__meta__" not in npz.files:
            raise ConfigurationError(f"{path}: not a catsent checkpoint (no __meta__ record)")
        meta = json.loads(bytes(npz["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint version {meta.get('format_version')}")
        config = EncoderConfig(**meta["encoder_config"])
        schema = CategorySchema(tuple(meta["schema"]["categories"]),
                                tuple(meta["schema"]["source_categories"]),
                                tuple(meta["schema"]["target_categories"]))
        polarities = PolaritySet(tuple(meta["polarities"]))
        vocab = Vocabulary(meta["vocab"])
        enc_params = {name: NdArray(npz["enc/" + name], copy=True)
                      for name in encoder_param_names(config)}
        n_dec = meta["n_decoders"]
        dec = DecoderParams(DecoderMode(meta["decoder_mode"]),
                            [NdArray(npz[f"dec/W{i}"], copy=True) for i in range(n_dec)],
                            [NdArray(npz[f"dec/b{i}"], copy=True) for i in range(n_dec)])
    return TrainedModel(config, vocab, schema, polarities,
                        HeadKind(meta["head_kind"]), enc_params, dec,
                        provenance=meta["provenance"])
