"""The wire format exists once: every door parses and renders the same way.

``repro batch``, ``POST /query`` / ``POST /batch`` and the cluster router's
node pushes all go through :mod:`repro.server.protocol`, so these tests feed
*one* input to several entry points and compare:

* a query file replays against a live server verbatim (same answers, same
  resolved parameters, line for line), unsharded and through a 2-shard
  router's scatter-gather merge;
* a malformed line is rejected with the same message by the parser, by
  ``POST /query`` (400) and by ``repro batch`` (exit 2, no traceback);
* every encoder/decoder pair round-trips through JSON text bit-for-bit --
  the property scatter-gather exactness and node resync rest on.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.cli import build_parser, main
from repro.core.engine import ALGORITHM_CHOICES
from repro.datagen.io import load_dataset
from repro.exceptions import InvalidQueryError
from repro.index.planner import BatchQuery
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.model.result import QueryResult, ScoredObject
from repro.planner import AUTO_CHOICE
from repro.server import QueryService, make_server
from repro.server.protocol import (
    ParsedRequest,
    RequestDefaults,
    dataset_body,
    decode_objects,
    encode_objects,
    objects_body,
    parse_dataset_spec,
    parse_objects_spec,
    parse_query_spec,
    resolved_spec,
    result_payload,
    scored_entries,
    split_batch_body,
    split_epoch,
)
from repro.sharding import ShardRouter, ShardingConfig

#: The flags both doors are started with (2 shards split a 10-cell grid on
#: a cell boundary, and so they do the 4- and 20-cell per-line overrides).
FLAGS = ["--grid-size", "10", "--radius-fraction", "0.5", "--k", "4",
         "--algorithm", "espq-len"]

QUERY_FILE = """\
{"keywords": ["w0001", "w0002"], "k": 3, "radius": 5.0}
# a comment line, then a blank one

{"keywords": "w0003,w0004"}
{"keywords": [" w0005 "], "k": 2}
{"keywords": ["w0001"], "algorithm": "pspq", "grid_size": 4}
{"keywords": ["w0002"], "grid_size": 20}
{"keywords": ["w0006", "w0007"], "grid_size": 20, "radius": 6.5, "stats": true}
{"keywords": ["w0008"], "deadline_ms": 60000}
"""


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("wire") / "un.tsv"
    assert main(["generate", "--dataset", "uniform", "--objects", "400",
                 "--output", str(path)]) == 0
    return path


def _post(url, body: bytes):
    """(status, decoded body text) of one POST, error statuses included."""
    request = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class _Served:
    """A front door configured from ``repro serve`` flags, behind a live
    server: the query service ``repro serve`` builds, or a ``shards``-way
    shard router."""

    def __init__(self, dataset_file, shards=1):
        args = build_parser().parse_args(
            ["serve", "--input", str(dataset_file), *FLAGS]
        )
        data, features = load_dataset(dataset_file)
        engine_config, service_config = cli._engine_config(args), cli._service_config(args)
        if shards == 1:
            self.service = QueryService(
                data, features, engine_config=engine_config, config=service_config
            )
        else:
            self.service = ShardRouter(
                data, features, engine_config=engine_config,
                service_config=service_config,
                sharding=ShardingConfig(shards=shards),
            )

    def __enter__(self):
        self.service.start()
        self.server = make_server(self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        return f"http://127.0.0.1:{self.server.port}"

    def __exit__(self, *exc_info):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.service.shutdown()


# --------------------------------------------------------------------- #
# what an ``auto`` answer carries


class TestAutoStatsContract:
    """``auto`` runs no simulated job, so no door reports a
    ``simulated_seconds`` for it -- the router's max-over-shards rule takes
    the absence as it is -- while a named algorithm keeps its simulated
    time; ``auto`` names what ran and reports the work it did."""

    @pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "2-shards"])
    def test_auto_has_no_simulated_seconds(self, dataset_file, shards):
        request = {"keywords": ["w0001", "w0002"], "k": 3, "radius": 5.0, "stats": True}
        with _Served(dataset_file, shards) as url:
            auto, named = (
                json.loads(_post(f"{url}/query", json.dumps(
                    {**request, "algorithm": algorithm}
                ).encode())[1])
                for algorithm in ("auto", "espq-sco")
            )
        assert auto["results"] and auto["planned_algorithm"] == AUTO_CHOICE
        assert "simulated_seconds" not in auto["stats"]
        assert auto["stats"]["features_examined"] > 0
        assert auto["stats"]["score_computations"] > 0
        assert named["stats"]["simulated_seconds"] > 0.0
        assert "planned_algorithm" not in named


# --------------------------------------------------------------------- #
# replay is verbatim


class TestReplayIsVerbatim:
    @pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "2-shards"])
    def test_query_file_replays_against_post_batch(
        self, dataset_file, tmp_path, shards
    ):
        query_file = tmp_path / "queries.jsonl"
        query_file.write_text(QUERY_FILE)
        output = tmp_path / "offline.jsonl"
        assert main(["batch", "--input", str(dataset_file), *FLAGS,
                     "--queries", str(query_file), "--output", str(output)]) == 0
        offline = [json.loads(line) for line in output.read_text().splitlines()]

        with _Served(dataset_file, shards) as url:
            status, body = _post(f"{url}/batch", query_file.read_bytes())
        assert status == 200
        online = [json.loads(line) for line in body.splitlines()]

        assert len(offline) == len(online) == 7
        for number, (off, on) in enumerate(zip(offline, online), start=1):
            for field in ("results", "k", "radius", "keywords", "algorithm"):
                assert off[field] == on[field], (number, field)
        # The padded keyword is the stripped keyword, at both doors.
        assert offline[2]["keywords"] == ["w0005"]
        # An execution parameter never changes the answer's radius: both
        # radius-less lines resolve against the --grid-size cell.
        assert offline[4]["radius"] == offline[1]["radius"]
        # Per-line "stats" attaches stats without --stats; nothing else does.
        assert [("stats" in record) for record in offline] == [
            False, False, False, False, False, True, False
        ]

    def test_batch_objects_are_the_service_payload(self, dataset_file, tmp_path, capsys):
        """``repro batch`` writes ``result_payload`` objects: ``cached`` and,
        with ``--stats``, the full ``STATS_KEYS`` subset."""
        query_file = tmp_path / "q.jsonl"
        query_file.write_text('{"keywords": ["w0001"], "radius": 5.0}\n')
        assert main(["batch", "--input", str(dataset_file), *FLAGS, "--stats",
                     "--queries", str(query_file)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cached"] is False
        assert record["stats"]["algorithm"] == "eSPQlen"
        assert {"grid_size", "shuffled_records", "index"} <= set(record["stats"])

    def test_one_splitter_numbers_lines_as_in_the_file(self):
        numbered = split_batch_body('\n# c\n{"a": 1}\n\n{"b": 2}\n')
        assert numbered == [(3, {"a": 1}), (5, {"b": 2})]
        assert split_batch_body(b'[{"a": 1}, 7]') == [(1, {"a": 1}), (2, 7)]
        with pytest.raises(ValueError, match="line 2: invalid JSON"):
            split_batch_body('{"a": 1}\n{oops\n')
        with pytest.raises(ValueError, match="no queries"):
            split_batch_body("# nothing\n")
        with pytest.raises(ValueError, match="empty batch body"):
            split_batch_body(b"  \n")


# --------------------------------------------------------------------- #
# one malformed-input matrix for both doors

MALFORMED = [
    '{"keywords": ["w0001"], "radius": NaN}',
    '{"keywords": ["w0001"], "radius": Infinity}',
    '{"keywords": ["w0001"], "k": true}',
    '{"keywords": ["w0001"], "k": "3"}',
    '{"keyword": ["w0001"]}',
    '{"keywords": ["w0001", 5]}',
    '{"keywords": ["w0001"], "grid_size": 2.5}',
    '{"keywords": ["w0001"], "grid_size": false}',
    '{"k": 3}',
    '"w0001"',
]


class TestMalformedInputMatrix:
    @pytest.fixture(scope="class")
    def live_url(self, dataset_file):
        with _Served(dataset_file) as url:
            yield url

    @pytest.mark.parametrize("line", MALFORMED)
    def test_same_rejection_at_every_door(
        self, line, dataset_file, live_url, tmp_path, capsys
    ):
        defaults = RequestDefaults(k=4, radius=1.0, algorithm="espq-len", grid_size=10)
        with pytest.raises(InvalidQueryError) as raised:
            parse_query_spec(json.loads(line), defaults, ALGORITHM_CHOICES)
        message = str(raised.value)

        status, body = _post(f"{live_url}/query", line.encode())
        assert status == 400
        assert json.loads(body) == {"error": message}

        query_file = tmp_path / "bad.jsonl"
        query_file.write_text('{"keywords": ["w0001"]}\n' + line + "\n")
        code = main(["batch", "--input", str(dataset_file), *FLAGS,
                     "--queries", str(query_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: line 2: {message}\n"
        assert captured.out == ""


# --------------------------------------------------------------------- #
# round trips through JSON text

_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_oids = st.text(min_size=1, max_size=8)
_words = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
)
_data_objects = st.builds(DataObject, oid=_oids, x=_floats, y=_floats)
_feature_objects = st.builds(
    FeatureObject, oid=_oids, x=_floats, y=_floats,
    keywords=st.frozensets(_words, max_size=4),
)
_items = st.builds(
    BatchQuery,
    query=st.builds(
        SpatialPreferenceQuery.create,
        k=st.integers(min_value=1, max_value=50),
        radius=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        keywords=st.sets(
            _words.map(str.strip).filter(bool), min_size=1, max_size=4
        ),
    ),
    algorithm=st.sampled_from(ALGORITHM_CHOICES),
    grid_size=st.integers(min_value=1, max_value=500),
    score_mode=st.just("range"),
)
_DEFAULTS = RequestDefaults(k=1, radius=0.0, algorithm="pspq", grid_size=1)


def _through_json(value):
    return json.loads(json.dumps(value))


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(item=_items)
    def test_resolved_spec_inverts_parse_query_spec(self, item):
        parsed = parse_query_spec(
            _through_json(resolved_spec(item)), _DEFAULTS, ALGORITHM_CHOICES
        )
        assert parsed.item == item
        assert parsed.include_stats is True

    @settings(max_examples=100, deadline=None)
    @given(item=_items, objects=st.lists(_data_objects, max_size=5),
           scores=st.lists(_floats, min_size=5, max_size=5))
    def test_result_entries_survive_the_wire(self, item, objects, scores):
        result = QueryResult(
            [ScoredObject(obj, score) for obj, score in zip(objects, scores)]
        )
        payload = result_payload(ParsedRequest(item=item), result)
        assert scored_entries(_through_json(payload)["results"]) == list(result)

    @settings(max_examples=100, deadline=None)
    @given(data=st.lists(_data_objects, max_size=5),
           features=st.lists(_feature_objects, max_size=5))
    def test_object_lists_round_trip(self, data, features):
        assert decode_objects(_through_json(encode_objects(data)), False) == data
        assert decode_objects(
            _through_json(encode_objects(features)), True
        ) == features

    @settings(max_examples=100, deadline=None)
    @given(data=st.lists(_data_objects, max_size=4),
           features=st.lists(_feature_objects, max_size=4),
           delete_data=st.lists(_oids, max_size=3),
           delete_features=st.lists(_oids, max_size=3),
           epoch=st.none() | st.text(min_size=1, max_size=6))
    def test_objects_body_round_trips(
        self, data, features, delete_data, delete_features, epoch
    ):
        update = {
            "append_data": data,
            "append_features": features,
            "delete_data_oids": delete_data,
            "delete_feature_oids": delete_features,
        }
        spec, tag = split_epoch(_through_json(objects_body(update, epoch)))
        assert tag == ({} if epoch is None else {"epoch": epoch})
        if any(update.values()) or epoch is not None:
            assert parse_objects_spec(spec, allow_empty=bool(tag)) == update
        else:
            with pytest.raises(ValueError, match="empty update"):
                parse_objects_spec(spec)

    @settings(max_examples=100, deadline=None)
    @given(data=st.lists(_data_objects, min_size=1, max_size=4),
           features=st.lists(_feature_objects, max_size=4),
           epoch=st.none() | st.text(min_size=1, max_size=6))
    def test_dataset_body_round_trips(self, data, features, epoch):
        spec, tag = split_epoch(_through_json(dataset_body(data, features, epoch)))
        assert tag == ({} if epoch is None else {"epoch": epoch})
        assert parse_dataset_spec(spec) == (data, features)

    def test_epoch_tag_rules(self):
        # An epoch-only update is a legal epoch bump, but only with the tag.
        empty = dict.fromkeys(
            ("append_data", "append_features", "delete_data_oids",
             "delete_feature_oids"), [],
        )
        spec, tag = split_epoch(_through_json(objects_body(empty, "v1w2")))
        assert tag == {"epoch": "v1w2"}
        assert parse_objects_spec(spec, allow_empty=True) == empty
        # A service that does not accept epochs keeps the tag in the body,
        # where the body parser rejects it as an unknown field.
        body = objects_body(empty, "v1w2")
        assert split_epoch(body, accepted=False) == (body, {})
        with pytest.raises(ValueError, match=r"unknown field\(s\) \['epoch'\]"):
            parse_objects_spec(body)
        for bad in ("", 7, None):
            with pytest.raises(ValueError, match="'epoch' must be a non-empty"):
                split_epoch({"epoch": bad})
