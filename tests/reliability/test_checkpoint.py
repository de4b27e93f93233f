"""JSONL checkpoint durability and refusal semantics."""

import json

import pytest

from repro.reliability.checkpoint import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    CheckpointError,
    config_digest,
)


def _shard(scheme="uniform-ecc", index=0, trials=10):
    return {
        "scheme": scheme,
        "index": index,
        "trials": trials,
        "seed": 42,
        "outcomes": {"data": {"masked": trials}},
    }


def test_digest_is_canonical():
    a = config_digest({"x": 1, "y": [1, 2]})
    b = config_digest({"y": [1, 2], "x": 1})  # key order irrelevant
    c = config_digest({"x": 2, "y": [1, 2]})
    assert a == b != c


def test_missing_file_loads_empty(tmp_path):
    ckpt = CampaignCheckpoint(tmp_path / "none.jsonl")
    assert ckpt.load("whatever") == {}


def test_roundtrip(tmp_path):
    digest = config_digest({"seed": 0})
    with CampaignCheckpoint(tmp_path / "c.jsonl") as ckpt:
        ckpt.write_header(digest, {"seed": 0})
        ckpt.append_shard(_shard(index=0))
        ckpt.append_shard(_shard(index=1, scheme="non-uniform"))
    done = CampaignCheckpoint(tmp_path / "c.jsonl").load(digest)
    assert set(done) == {("uniform-ecc", 0), ("non-uniform", 1)}
    assert done[("uniform-ecc", 0)]["trials"] == 10


def test_header_written_once(tmp_path):
    digest = config_digest({})
    path = tmp_path / "c.jsonl"
    for _ in range(2):
        with CampaignCheckpoint(path) as ckpt:
            ckpt.write_header(digest, {})
    lines = path.read_text().splitlines()
    assert len(lines) == 1


def test_torn_final_line_is_skipped(tmp_path):
    digest = config_digest({})
    path = tmp_path / "c.jsonl"
    with CampaignCheckpoint(path) as ckpt:
        ckpt.write_header(digest, {})
        ckpt.append_shard(_shard(index=0))
    with open(path, "a") as fh:
        fh.write('{"scheme": "uniform-ecc", "index": 1, "tr')  # killed here
    done = CampaignCheckpoint(path).load(digest)
    assert set(done) == {("uniform-ecc", 0)}


def test_malformed_interior_line_is_an_error(tmp_path):
    digest = config_digest({})
    path = tmp_path / "c.jsonl"
    with CampaignCheckpoint(path) as ckpt:
        ckpt.write_header(digest, {})
    with open(path, "a") as fh:
        fh.write("not json\n")
        fh.write(json.dumps(dict(_shard(), type="shard")) + "\n")
    with pytest.raises(CheckpointError, match="malformed"):
        CampaignCheckpoint(path).load(digest)


def test_digest_mismatch_refuses_to_resume(tmp_path):
    path = tmp_path / "c.jsonl"
    with CampaignCheckpoint(path) as ckpt:
        ckpt.write_header(config_digest({"seed": 0}), {"seed": 0})
    with pytest.raises(CheckpointError, match="configuration changed"):
        CampaignCheckpoint(path).load(config_digest({"seed": 1}))


def test_version_mismatch_refuses_to_resume(tmp_path):
    path = tmp_path / "c.jsonl"
    header = {
        "type": "header",
        "version": CHECKPOINT_VERSION + 1,
        "digest": "d",
    }
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(CheckpointError, match="version"):
        CampaignCheckpoint(path).load("d")


def test_missing_header_is_an_error(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(dict(_shard(), type="shard")) + "\n")
    with pytest.raises(CheckpointError, match="header"):
        CampaignCheckpoint(path).load("d")


def _bad_shard(**changes):
    record = dict(_shard(), type="shard")
    record.update(changes)
    return record


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"type": "shard", "scheme": "uniform-ecc"}, "'index' must be an integer"),
        (_bad_shard(outcomes=[1, 2]), "'outcomes' must be an object"),
        ([1, 2], "must be a JSON object"),
        ("shard", "must be a JSON object"),
        (_bad_shard(scheme=3), "'scheme' must be a string"),
        (_bad_shard(index="0"), "'index' must be an integer"),
        (_bad_shard(trials=1.5), "'trials' must be an integer"),
        (_bad_shard(seed=True), "'seed' must be an integer"),
        (_bad_shard(outcomes={"cache": {"masked": 1}}), "unknown fault domain"),
        (_bad_shard(outcomes={"data": [1]}), r"outcomes\['data'\] must be"),
        (_bad_shard(outcomes={"data": {"lost": 1}}), "unknown outcome 'lost'"),
        (_bad_shard(outcomes={"data": {"sdc": "1"}}), "non-negative integer"),
        (_bad_shard(outcomes={"data": {"sdc": -1}}), "non-negative integer"),
        (_bad_shard(index=-1), "'index' must be non-negative"),
        (_bad_shard(trials=0, outcomes={}), "'trials' must be positive"),
        (_bad_shard(trials=-3), "'trials' must be positive"),
        (_bad_shard(outcomes={"data": {"masked": 9}}), "sum to 9, not"),
        (
            _bad_shard(outcomes={"data": {"masked": 6}, "tag": {"sdc": 5}}),
            "sum to 11, not",
        ),
    ],
    ids=[
        "missing-index", "outcomes-list", "bare-list", "bare-string",
        "scheme-int", "index-str", "trials-float", "seed-bool",
        "unknown-domain", "domain-list", "unknown-outcome", "count-str",
        "count-negative", "index-negative", "trials-zero",
        "trials-negative", "counts-short", "counts-over",
    ],
)
def test_malformed_shard_record_names_its_line(tmp_path, bad, match):
    digest = config_digest({})
    path = tmp_path / "c.jsonl"
    with CampaignCheckpoint(path) as ckpt:
        ckpt.write_header(digest, {})
        ckpt.append_shard(_shard(index=0))
    with open(path, "a") as fh:
        fh.write(json.dumps(bad) + "\n")
        fh.write(json.dumps(dict(_shard(index=1), type="shard")) + "\n")
    with pytest.raises(CheckpointError, match=match) as err:
        CampaignCheckpoint(path).load(digest)
    assert "line 3" in str(err.value)
    assert "\n" not in str(err.value)


def test_malformed_final_record_is_not_a_torn_line(tmp_path):
    # Valid JSON of the wrong shape was written whole: refuse it rather
    # than silently dropping it like a torn write.
    digest = config_digest({})
    path = tmp_path / "c.jsonl"
    with CampaignCheckpoint(path) as ckpt:
        ckpt.write_header(digest, {})
    with open(path, "a") as fh:
        fh.write(json.dumps(_bad_shard(outcomes=[1, 2])) + "\n")
    with pytest.raises(CheckpointError, match="line 2"):
        CampaignCheckpoint(path).load(digest)
