"""Experiment runner: dataset conversion, synthetic generation, incremental
splitting, training workflows, evaluation, and the forgetting comparison.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 divergence.
All randomness flows from one root seed recorded in every output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .checkpoint import load_model, save_model
from .convert import convert_semeval14, convert_sentihood
from .data import (load_dataset, load_schema, sample_target, save_dataset,
                   save_schema, split_incremental)
from .encoder import EncoderConfig
from .errors import (CatsentError, ConfigurationError, DataError,
                     DivergenceError, SchemaError)
from .experiments import (Corpus, forgetting_experiment, run_incremental_pipeline,
                          run_mix_pipeline, run_plain_pipeline, synthetic_corpus)
from .heads import DecoderMode, HeadKind
from .metrics import check_threshold, compute_report
from .training import TrainConfig, predict, prepare_inputs


WORKFLOWS = ("plain", "mix", "incremental")


def _check_type(name: str, value, kind: type) -> None:
    """Raise ConfigurationError unless ``value`` is a ``kind``: a float field
    takes an integer too, and a JSON true or false is never a number."""
    kinds = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        noun = {str: "a string", int: "an integer", float: "a number"}[kind]
        raise ConfigurationError(f"config field {name!r} must be {noun}, got {value!r}")


@dataclass
class ExperimentConfig:
    """One JSON config file drives every command; CLI flags override."""

    schema: str = "schema.json"
    train: str = "train.jsonl"
    valid: str = "valid.jsonl"
    test: str = "test.jsonl"
    head: str = "sep-sent-att"
    decoder: str = "shared"
    workflow: str = "plain"
    rate: float = 1.0
    rates: list[float] = field(default_factory=lambda: [1.0])
    seed: int = 0
    out: str = "out"
    encoder: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)
    stage2: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("schema", "train", "valid", "test", "out"):
            _check_type(name, getattr(self, name), str)
        for name, values in (("head", [k.value for k in HeadKind]),
                             ("decoder", [m.value for m in DecoderMode]),
                             ("workflow", WORKFLOWS)):
            if getattr(self, name) not in values:
                raise ConfigurationError(
                    f"config field {name!r} must be one of {values}, got {getattr(self, name)!r}")
        _check_type("rate", self.rate, float)
        if not isinstance(self.rates, list):
            raise ConfigurationError(f"config field 'rates' must be a list, got {self.rates!r}")
        for rate in self.rates:
            _check_type("rates", rate, float)
        _check_type("seed", self.seed, int)
        if self.seed < 0:
            raise ConfigurationError(f"seed {self.seed} is negative")
        for section, cls in (("encoder", EncoderConfig), ("training", TrainConfig),
                             ("stage2", TrainConfig)):
            values = getattr(self, section)
            if not isinstance(values, dict):
                raise ConfigurationError(f"config field {section!r} must be an object")
            fields = cls.__dataclass_fields__
            unknown = set(values) - set(fields)
            if unknown:
                raise ConfigurationError(f"unknown {section} fields: {sorted(unknown)}")
            if "seed" in values:
                raise ConfigurationError(
                    f"{section}.seed: the training seeds derive from the root 'seed'")
            for key, value in values.items():
                _check_type(f"{section}.{key}", value, type(fields[key].default))
        for section, build in (("training", self.train_config),
                               ("stage2", self.stage2_config)):
            try:                         # the values' own checks, before any run starts
                build()
            except ConfigurationError as exc:
                raise ConfigurationError(f"{section}: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"{path}: cannot read config: {exc.strerror}") from exc
        except (ValueError, RecursionError) as exc:   # also an over-long integer, not UTF-8
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(**self.encoder)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.training)

    def stage2_config(self) -> TrainConfig:
        return TrainConfig(**{**self.training, **self.stage2})

    def head_kind(self) -> HeadKind:
        return HeadKind(self.head)

    def decoder_mode(self) -> DecoderMode:
        return DecoderMode(self.decoder)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    for name in ("seed", "out", "head", "decoder", "workflow"):
        v = getattr(args, name, None)
        if v is not None:
            cfg = replace(cfg, **{name: v})
    if getattr(args, "rate", None):
        cfg = replace(cfg, rates=list(args.rate), rate=args.rate[0])
    return cfg


def _load_config(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    return _apply_overrides(cfg, args)


def _load_corpus(cfg: ExperimentConfig) -> Corpus:
    schema, polarities = load_schema(cfg.schema)
    return Corpus(schema, polarities,
                  load_dataset(cfg.train, schema, polarities, "train"),
                  load_dataset(cfg.valid, schema, polarities, "validation"),
                  load_dataset(cfg.test, schema, polarities, "test"))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    converters = {"semeval14": convert_semeval14, "sentihood": convert_sentihood}
    ds = converters[args.format](args.input)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out / f"{args.split_tag}.jsonl")
    save_schema(ds.schema, ds.polarities, out / "schema.json")
    labeled = sum(len(s.labels) for s in ds.samples)
    print(f"converted {len(ds.samples)} samples, {labeled} labels -> {out}")
    return 0


def cmd_generate(args) -> int:
    corpus = synthetic_corpus(count=args.count, seed=args.seed,
                              source=tuple(args.source.split(",")),
                              target=tuple(args.target.split(",")))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_schema(corpus.schema, corpus.polarities, out / "schema.json")
    for name, ds in (("train", corpus.train), ("valid", corpus.valid),
                     ("test", corpus.test)):
        save_dataset(ds, out / f"{name}.jsonl")
    print(f"generated {args.count}+{len(corpus.valid)}+{len(corpus.test)} samples -> {out}")
    return 0


def cmd_split(args) -> int:
    cfg = _load_config(args)
    corpus = _load_corpus(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"version": 1, "seed": cfg.seed, "rates": cfg.rates,
                "config_fingerprint": cfg.fingerprint(), "files": {}}
    for tag, ds in (("train", corpus.train), ("valid", corpus.valid),
                    ("test", corpus.test)):
        source, target = split_incremental(ds, corpus.schema)
        save_dataset(source, out / f"{tag}.source.jsonl")
        save_dataset(target, out / f"{tag}.target.jsonl")
        manifest["files"][tag] = {"source": f"{tag}.source.jsonl",
                                  "target": f"{tag}.target.jsonl", "sampled": {}}
        if tag == "train":
            for rate in cfg.rates:
                sampled = sample_target(target, rate, cfg.seed)
                name = f"{tag}.target.rate{rate}.jsonl"
                save_dataset(sampled, out / name)
                manifest["files"][tag]["sampled"][str(rate)] = name
    _write_json(out / "split_manifest.json", manifest)
    print(f"split written to {out}")
    return 0


def _evaluate(model, test_ds, groups):
    probs = predict(model, test_ds)
    return {g: compute_report(test_ds, probs, g).to_dict() for g in groups}


def _machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):   # numpy without ``mode=``, or no BLAS entry
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": blas_name}


def cmd_train(args) -> int:
    cfg = _load_config(args)
    corpus = _load_corpus(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    head, mode = cfg.head_kind(), cfg.decoder_mode()
    enc, tr = cfg.encoder_config(), cfg.train_config()
    log: list = []
    stage1 = None
    t0 = perf_counter()
    if cfg.workflow == "plain":
        model = run_plain_pipeline(corpus, head, mode, cfg.seed, enc, tr, log=log)
    elif cfg.workflow == "mix":
        model = run_mix_pipeline(corpus, head, mode, cfg.rate, cfg.seed, enc, tr, log=log)
    else:
        stage1, model = run_incremental_pipeline(corpus, head, mode, cfg.rate, cfg.seed,
                                                 enc, tr, cfg.stage2_config(), log=log)
    wall = {"train": perf_counter() - t0}
    save_model(model, out / "model.npz")
    if stage1 is not None:
        save_model(stage1, out / "model.stage1.npz")

    t0 = perf_counter()
    if stage1 is None:
        groups = ["all", "source", "target"] if corpus.schema.has_split else ["all"]
        metrics = _evaluate(model, corpus.test, groups)
    else:
        metrics = {"stage1": _evaluate(stage1, corpus.test, ["source", "target"]),
                   "stage2": _evaluate(model, corpus.test, ["source", "target"])}
    wall["evaluate"] = perf_counter() - t0

    report = {"version": 1, "tool_version": __version__, "workflow": cfg.workflow,
              "seed": cfg.seed, "config_fingerprint": cfg.fingerprint(),
              "machine": _machine(),
              "truncated": {tag: int((prepare_inputs(ds, model).dropped > 0).sum())
                            for tag, ds in (("train", corpus.train), ("valid", corpus.valid),
                                            ("test", corpus.test))},
              "metrics": metrics, "wall_s": wall}
    with open(out / "steps.jsonl", "w", encoding="utf-8") as fh:
        for rec in log:
            fh.write(json.dumps(rec) + "\n")
    _write_json(out / "report.json", report)
    print(json.dumps(metrics, indent=2))
    return 0


def cmd_eval(args) -> int:
    check_threshold(args.threshold)
    model = load_model(args.checkpoint)
    dataset = load_dataset(args.dataset, model.schema, model.polarities, "test")
    probs = predict(model, dataset)
    report = compute_report(dataset, probs, args.group, args.threshold)
    print(report.render())
    if args.out:
        _write_json(Path(args.out), report.to_dict())
    return 0


def cmd_forgetting(args) -> int:
    cfg = _load_config(args)
    result = forgetting_experiment(
        _load_corpus(cfg), cfg.head_kind(), cfg.rate, cfg.seed,
        cfg.encoder_config(), cfg.train_config(), cfg.stage2_config())
    result["config_fingerprint"] = cfg.fingerprint()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "forgetting.json", result)
    rows = [("decoder", "before", "after", "drop")]
    for mode in ("shared", "unshared"):
        r = result[mode]
        rows.append((mode, f"{r['before']:.4f}", f"{r['after']:.4f}", f"{r['drop']:+.4f}"))
    width = 12
    for row in rows:
        print("".join(f"{c:>{width}}" for c in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="catsent",
                                description="category-sentiment experiment runner")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convert", help="convert a published corpus format")
    c.add_argument("--format", choices=["semeval14", "sentihood"], required=True)
    c.add_argument("--input", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--split-tag", default="train")
    c.set_defaults(fn=cmd_convert)

    g = sub.add_parser("generate", help="generate a synthetic corpus")
    g.add_argument("--count", type=int, default=2000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--source", default="food,price,ambience,staff")
    g.add_argument("--target", default="service")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--rate", type=float, action="append", default=None)
        sp.add_argument("--head", choices=[k.value for k in HeadKind], default=None)
        sp.add_argument("--decoder", choices=[m.value for m in DecoderMode], default=None)

    s = sub.add_parser("split", help="write Sample-Source / Sample-Target files")
    common(s)
    s.set_defaults(fn=cmd_split)

    t = sub.add_parser("train", help="train (plain | mix | incremental) and evaluate")
    common(t)
    t.add_argument("--workflow", choices=WORKFLOWS, default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--group", choices=["all", "source", "target"], default="all")
    e.add_argument("--threshold", type=float, default=0.5)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_eval)

    f = sub.add_parser("forgetting", help="shared vs unshared incremental comparison")
    common(f)
    f.set_defaults(fn=cmd_forgetting)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError,) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, SchemaError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    except CatsentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
