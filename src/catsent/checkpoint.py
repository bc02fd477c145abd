"""Model checkpoints: one .npz container holding config, vocabulary and all
parameter arrays, version-tagged. float64 round-trips bit-exactly."""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict

import numpy as np

from .data import CategorySchema, PolaritySet
from .encoder import (EncoderConfig, Vocabulary, encoder_param_names,
                      encoder_param_shapes)
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
        "n_decoders": model.dec.W.shape[0],
        "provenance": model.provenance,
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for name in encoder_param_names(model.encoder_config):
        arrays["enc/" + name] = model.enc_params[name].data
    for i in range(model.dec.W.shape[0]):
        arrays[f"dec/W{i}"] = model.dec.W.data[i]
        arrays[f"dec/b{i}"] = model.dec.b.data[i]
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
        try:
            meta = json.loads(bytes(npz["__meta__"]).decode("utf-8"))
        except ValueError as exc:
            raise ConfigurationError(f"{path}: __meta__ record is not JSON: {exc}") from exc
        version = meta.get("format_version") if isinstance(meta, dict) else None
        if version != FORMAT_VERSION:
            raise ConfigurationError(f"unsupported checkpoint version {version}")
        try:
            return _model_from(meta, npz)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}: malformed checkpoint: {exc!r}") from exc


def _model_from(meta: dict, npz) -> TrainedModel:
    config = EncoderConfig(**meta["encoder_config"])
    schema = CategorySchema(tuple(meta["schema"]["categories"]),
                            tuple(meta["schema"]["source_categories"]),
                            tuple(meta["schema"]["target_categories"]))
    polarities = PolaritySet(tuple(meta["polarities"]))
    vocab = Vocabulary(meta["vocab"])
    shapes = encoder_param_shapes(config, len(vocab), schema.n_cat + 1)
    extra = sorted(k for k in npz.files if k.startswith("enc/") and k[4:] not in shapes)
    if extra:
        raise ConfigurationError(f"encoder arrays not named by the encoder config: "
                                 f"{', '.join(extra)}")
    enc_params = {name: NdArray(npz["enc/" + name], copy=True) for name in shapes}
    bad = [f"{name} {p.shape} != {shapes[name]}" for name, p in enc_params.items()
           if p.shape != shapes[name]]
    if bad:
        raise ConfigurationError(f"encoder arrays do not match the encoder config, "
                                 f"vocabulary and schema: {', '.join(bad)}")
    mode, n_dec = DecoderMode(meta["decoder_mode"]), meta["n_decoders"]
    want = {f"dec/{x}{i}" for x in "Wb" for i in range(n_dec)}
    if (n_dec != (1 if mode is DecoderMode.SHARED else schema.n_cat)
            or want != {k for k in npz.files if k.startswith("dec/")}):
        raise ConfigurationError(
            f"decoder arrays do not match n_decoders={n_dec} of a {mode.value} decoder "
            f"over {schema.n_cat} categories")
    d, n_pol = config.d, polarities.size
    rows = [(npz[f"dec/W{i}"], npz[f"dec/b{i}"]) for i in range(n_dec)]
    if any(w.shape != (d, n_pol) or b.shape != (n_pol,) for w, b in rows):
        raise ConfigurationError(f"decoder rows do not all have shapes W [{d}, {n_pol}], "
                                 f"b [{n_pol}]")
    # stored one array per row, held as W [n_dec, d, s] and b [n_dec, s]
    W, b = (NdArray(np.stack(arrays)) for arrays in zip(*rows))
    return TrainedModel(config, vocab, schema, polarities, HeadKind(meta["head_kind"]),
                        enc_params, DecoderParams(mode, W, b),
                        provenance=meta["provenance"])
