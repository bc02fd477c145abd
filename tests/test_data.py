"""Schema validation, IO round trips, the incremental split invariants, and
the cue-phrase generator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsent.data import (CategorySchema, Dataset, PolaritySet, Sample,
                          SyntheticSpec, concat_datasets, load_dataset,
                          load_schema, make_dataset, make_synthetic,
                          sample_target, save_dataset, save_schema,
                          split_incremental)
from catsent.errors import ConfigurationError, SchemaError

POL = PolaritySet(("positive", "negative", "none"))
SCHEMA = CategorySchema(("food", "service"), ("food",), ("service",))


def small_dataset():
    samples = (
        Sample("a", "food great", {"food": "positive", "service": "none"}),
        Sample("b", "service bad", {"food": "none", "service": "negative"}),
        Sample("c", "just a visit", {"food": "none"}),
    )
    return make_dataset(samples, SCHEMA, POL)


def test_polarity_set_validation():
    with pytest.raises(ConfigurationError):
        PolaritySet(("positive", "none", "negative"))
    with pytest.raises(ConfigurationError):
        PolaritySet(("positive", "positive", "none"))
    assert POL.none_index == 2 and POL.size == 3
    assert PolaritySet.acsa().size == 5
    assert PolaritySet.tacsa().size == 3


def test_schema_validation():
    with pytest.raises(ConfigurationError):
        CategorySchema(())
    with pytest.raises(ConfigurationError):
        CategorySchema(("food", "food"))
    with pytest.raises(ConfigurationError):
        CategorySchema(("food", "service"), ("food", "service"), ("service",))
    with pytest.raises(ConfigurationError):
        CategorySchema(("food", "service"), ("food",), ())
    plain = CategorySchema(("food", "service"))
    assert not plain.has_split and SCHEMA.has_split
    assert SCHEMA.index("service") == 1


def test_make_dataset_rejects_bad_samples():
    with pytest.raises(SchemaError):
        make_dataset([Sample("a", "x", {"drinks": "positive"})], SCHEMA, POL)
    with pytest.raises(SchemaError):
        make_dataset([Sample("a", "x", {"food": "meh"})], SCHEMA, POL)
    with pytest.raises(SchemaError):
        make_dataset([Sample("a", "x", {}), Sample("a", "y", {})], SCHEMA, POL)


def test_dataset_roundtrip(tmp_path):
    ds = small_dataset()
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path, SCHEMA, POL)
    assert back.samples == ds.samples


def test_load_dataset_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "x", "labels": {}}\nnot json\n')
    with pytest.raises(SchemaError):
        load_dataset(path, SCHEMA, POL)


def test_schema_roundtrip(tmp_path):
    path = tmp_path / "schema.json"
    save_schema(SCHEMA, POL, path)
    schema, pol = load_schema(path)
    assert schema == SCHEMA and pol == POL


def test_split_incremental_invariants():
    spec = SyntheticSpec(SCHEMA, POL, 500)
    ds = make_synthetic(spec, seed=3)
    source, target = split_incremental(ds, SCHEMA)
    assert len(source) == len(ds) and len(target) == len(ds)
    for orig, s, t in zip(ds.samples, source.samples, target.samples):
        # text identity
        assert s.text == orig.text and t.text == orig.text
        # label partition: source keys and target keys are disjoint and
        # together reconstruct the original label map
        assert set(s.labels) <= set(SCHEMA.source_categories)
        assert set(t.labels) <= set(SCHEMA.target_categories)
        merged = dict(s.labels)
        merged.update(t.labels)
        assert merged == orig.labels


CATS = ("c0", "c1", "c2", "c3", "c4")


@st.composite
def partitioned_datasets(draw):
    """A dataset over a random source/target partition of CATS whose label
    maps cover any subset of the categories, the empty one included."""
    n_src = draw(st.integers(1, len(CATS) - 1))
    schema = CategorySchema(CATS, CATS[:n_src], CATS[n_src:])
    label_maps = draw(st.lists(st.dictionaries(st.sampled_from(CATS),
                                               st.sampled_from(POL.labels)),
                               max_size=40))
    samples = [Sample(f"s{i}", f"text {i}", labels) for i, labels in enumerate(label_maps)]
    return make_dataset(samples, schema, POL)


@settings(max_examples=60, deadline=None)
@given(partitioned_datasets(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_split_and_sample_properties(ds, rate, seed):
    schema = ds.schema
    source, target = split_incremental(ds, schema)
    for orig, s, t in zip(ds.samples, source.samples, target.samples, strict=True):
        assert (s.id, s.text) == (t.id, t.text) == (orig.id, orig.text)
        assert set(s.labels) <= set(schema.source_categories)
        assert set(t.labels) <= set(schema.target_categories)
        assert not set(s.labels) & set(t.labels)
        assert {**s.labels, **t.labels} == orig.labels
    sampled = sample_target(target, rate, seed)
    assert len(sampled) == math.floor(rate * len(target))
    assert sampled.samples == sample_target(target, rate, seed).samples
    position = {s.id: i for i, s in enumerate(target.samples)}
    kept = [position[s.id] for s in sampled.samples]
    assert kept == sorted(set(kept))            # distinct, in input order
    assert all(target.samples[i] == s for i, s in zip(kept, sampled.samples))


def test_split_requires_partition():
    ds = make_dataset([Sample("a", "x", {"food": "none"})],
                      CategorySchema(("food",)), POL)
    with pytest.raises(ConfigurationError):
        split_incremental(ds, ds.schema)


@pytest.mark.parametrize("rate", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_sample_target_exact_floor(rate):
    spec = SyntheticSpec(SCHEMA, POL, 500)
    ds = make_synthetic(spec, seed=11)
    out = sample_target(ds, rate, seed=5)
    assert len(out) == math.floor(rate * 500)
    # deterministic per seed, subset of the original
    again = sample_target(ds, rate, seed=5)
    assert out.samples == again.samples
    assert {s.id for s in out.samples} <= {s.id for s in ds.samples}
    if rate == 1.0:
        assert out.samples == ds.samples


def test_sample_target_seed_sensitivity():
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 200), seed=0)
    a = sample_target(ds, 0.5, seed=1)
    b = sample_target(ds, 0.5, seed=2)
    assert a.samples != b.samples


def test_sample_target_rejects_bad_rate():
    ds = small_dataset()
    with pytest.raises(ConfigurationError):
        sample_target(ds, 1.5, seed=0)


def test_concat_disambiguates_ids():
    ds = small_dataset()
    both = concat_datasets(ds, ds)
    assert len(both) == 6
    assert len({s.id for s in both.samples}) == 6


def test_concat_rejects_schema_mismatch():
    other = make_dataset([Sample("a", "x", {"food": "none"})],
                         CategorySchema(("food",)), POL)
    with pytest.raises(ConfigurationError):
        concat_datasets(small_dataset(), other)


def test_synthetic_labels_follow_cues():
    spec = SyntheticSpec(SCHEMA, POL, 300)
    ds = make_synthetic(spec, seed=9)
    pos_cues = set(spec.cue_words("positive"))
    neg_cues = set(spec.cue_words("negative"))
    for s in ds.samples:
        words = s.text.split()
        for cat in SCHEMA.categories:
            cat_words = cat.split()
            cues = set()
            for i in range(len(words) - len(cat_words)):
                if words[i:i + len(cat_words)] == cat_words:
                    cues.add(words[i + len(cat_words)])
            gold = s.labels[cat]
            if gold == "positive":
                assert cues & pos_cues
            elif gold == "negative":
                assert cues & neg_cues
            else:
                assert not (cues & (pos_cues | neg_cues))


def test_synthetic_deterministic_per_seed():
    spec = SyntheticSpec(SCHEMA, POL, 50)
    assert make_synthetic(spec, 4).samples == make_synthetic(spec, 4).samples
    assert make_synthetic(spec, 4).samples != make_synthetic(spec, 5).samples


def test_synthetic_every_category_labeled():
    ds = make_synthetic(SyntheticSpec(SCHEMA, POL, 40), seed=2)
    for s in ds.samples:
        assert set(s.labels) == set(SCHEMA.categories)
