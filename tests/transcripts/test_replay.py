"""Golden transcripts replay byte-identical against both front ends."""

import json

import pytest

from tests.transcripts.scenario import (
    SCENARIOS,
    SERVERS,
    TRANSPORTS,
    load,
    normalise,
    run_scenario,
)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("kind", SERVERS)
def test_transcript_replays_byte_identical(kind, transport):
    golden = load(kind, transport)
    assert [entry["send"].encode("latin-1") for entry in golden] == list(
        SCENARIOS[transport]
    ), "the scenario changed; re-record the transcripts"
    replayed = run_scenario(kind, transport)
    for entry, (request, reply) in zip(golden, replayed):
        assert normalise(request, reply).decode("latin-1") == entry["recv"], (
            entry["send"]
        )


@pytest.mark.parametrize("kind", SERVERS)
def test_http_transcript_covers_every_status(kind):
    statuses = {
        entry["recv"].split(" ", 2)[1] for entry in load(kind, "http")
    }
    assert statuses == {"200", "400", "404", "429", "503"}


@pytest.mark.parametrize("kind", SERVERS)
def test_ndjson_transcript_answers_every_op(kind):
    ops = {
        json.loads(entry["send"])["op"]
        for entry in load(kind, "ndjson")
        if entry["recv"] and json.loads(entry["recv"])["ok"]
    }
    assert ops == {
        "query", "batch", "topk", "append", "scan", "patterns",
        "metrics", "ping", "drain",
    }
