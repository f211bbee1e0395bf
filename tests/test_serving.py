"""Tests for the serving tier: artifacts, server, loadgen, bench cell."""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

from repro.graphs import bfs_distances
from repro.perf import ServiceCell, run_service_cell, service_matrix
from repro.serving import (
    ArtifactError,
    QueryService,
    SpannerServer,
    build_bundle,
    dumps_bundle,
    load_bundle,
    loads_bundle,
    make_queries,
    run_loadgen,
    run_service_benchmark,
    save_bundle,
)
from repro.serving.loadgen import percentile
from repro.serving.server import LINE_LIMIT, _split_lines


def _smoke_bundle(seed: int = 1, k: int = 2):
    return build_bundle("er", "smoke", seed, k=k)


@pytest.fixture(scope="module")
def bundle():
    return _smoke_bundle()


class TestArtifactFormat:
    def test_same_seed_twice_is_byte_identical(self):
        # The acceptance criterion: two independent builds from the
        # same recipe serialize to the same bytes.
        assert dumps_bundle(_smoke_bundle()) == dumps_bundle(_smoke_bundle())

    def test_different_seed_differs(self, bundle):
        assert dumps_bundle(bundle) != dumps_bundle(_smoke_bundle(seed=2))

    def test_roundtrip_is_byte_identical(self, bundle):
        text = dumps_bundle(bundle)
        assert dumps_bundle(loads_bundle(text)) == text

    def test_save_load_file_roundtrip(self, bundle, tmp_path):
        path = tmp_path / "bundle.json"
        checksum = save_bundle(bundle, path)
        assert checksum.startswith("sha256:")
        loaded = load_bundle(path)
        assert dumps_bundle(loaded) == dumps_bundle(bundle)
        assert loaded.recipe == bundle.recipe

    def test_loaded_oracle_answers_match_in_memory(self, bundle):
        loaded = loads_bundle(dumps_bundle(bundle))
        vertices = sorted(bundle.graph.vertices())
        pairs = itertools.islice(itertools.combinations(vertices, 2), 500)
        for u, v in pairs:
            assert bundle.oracle.query(u, v) == loaded.oracle.query(u, v)
            assert bundle.router.route(u, v) == loaded.router.route(u, v)

    def test_loaded_labeling_matches_in_memory(self, bundle):
        loaded = loads_bundle(dumps_bundle(bundle))
        for v in bundle.labeling.vertices()[:40]:
            ours, theirs = bundle.labeling.label(v), loaded.labeling.label(v)
            assert ours.pivots == theirs.pivots
            assert ours.bunch == theirs.bunch

    def test_checksum_tamper_detected(self, bundle):
        document = json.loads(dumps_bundle(bundle))
        document["payload"]["oracle"]["k"] = 99
        with pytest.raises(ArtifactError, match="checksum"):
            loads_bundle(json.dumps(document))

    def test_wrong_format_and_schema_rejected(self, bundle):
        document = json.loads(dumps_bundle(bundle))
        foreign = dict(document, format="other")
        with pytest.raises(ArtifactError, match="format"):
            loads_bundle(json.dumps(foreign))
        future = dict(document, schema=999)
        with pytest.raises(ArtifactError, match="schema"):
            loads_bundle(json.dumps(future))

    def test_garbage_rejected(self):
        with pytest.raises(ArtifactError, match="JSON"):
            loads_bundle("not json{")
        with pytest.raises(ArtifactError):
            loads_bundle('"a string"')


class TestQueryService:
    def test_cache_on_off_identical_answers(self, bundle):
        cached = QueryService(bundle, cache_size=256, landmarks=8)
        raw = QueryService(bundle, cache_size=0, landmarks=0)
        queries = make_queries(
            sorted(bundle.graph.vertices()), 300, mix="zipf", seed=7
        )
        for request in queries:
            assert cached.handle_request(request) == raw.handle_request(
                dict(request)
            )
        assert cached.hits > 0  # the cached tier actually engaged
        assert raw.hits == 0

    def test_dist_matches_oracle_and_is_symmetric(self, bundle):
        service = QueryService(bundle)
        vertices = sorted(bundle.graph.vertices())
        for u, v in itertools.islice(
            itertools.combinations(vertices, 2), 200
        ):
            estimate = service.dist(u, v)
            assert estimate == service.dist(v, u)
            assert estimate == bundle.oracle.query(u, v)

    def test_served_stretch_bound_vs_exact_bfs(self, bundle):
        # The end-to-end guarantee: every served distance sits within
        # [d, (2k-1) d] of the exact BFS distance.
        service = QueryService(bundle)
        k = bundle.k
        for source in (0, 17, 55):
            truth = bfs_distances(bundle.graph, source)
            for v, d in sorted(truth.items()):
                if v == source:
                    continue
                estimate = service.dist(source, v)
                assert estimate is not None
                assert d <= estimate <= (2 * k - 1) * d

    def test_route_reverses_and_verifies(self, bundle):
        service = QueryService(bundle)
        vertices = sorted(bundle.graph.vertices())
        for u, v in itertools.islice(
            itertools.combinations(vertices, 2), 100
        ):
            path = service.route(u, v)
            assert path is not None
            assert path[0] == u and path[-1] == v
            assert bundle.router.verify_route(path)
            assert service.route(v, u) == path[::-1]

    def test_route_cache_returns_copies(self, bundle):
        service = QueryService(bundle)
        first = service.route(0, 5)
        assert first is not None
        first.append(999)  # caller mutation must not poison the cache
        assert service.route(0, 5)[-1] == 5

    def test_label_op_is_plain_data(self, bundle):
        service = QueryService(bundle)
        label = service.label(3)
        assert label["vertex"] == 3
        assert label["size_words"] == bundle.labeling.label(3).size_words
        json.dumps(label)  # wire-encodable

    def test_unknown_vertex_is_service_error(self, bundle):
        service = QueryService(bundle)
        response = service.handle_request(
            {"id": 1, "op": "dist", "u": 0, "v": 10**9}
        )
        assert response == {
            "id": 1,
            "ok": False,
            "error": "unknown vertex: 1000000000",
        }

    def test_malformed_requests_answered_not_fatal(self, bundle):
        service = QueryService(bundle)
        for request in (
            {"id": 2, "op": "dist"},  # missing vertices
            {"id": 3, "op": "warp", "u": 0, "v": 1},  # unknown op
            {"id": 4, "op": "dist", "u": "x", "v": 1},  # non-int vertex
            {"id": 5, "op": "dist", "u": float("inf"), "v": 1},  # 1e999
        ):
            response = service.handle_request(request)
            assert response["ok"] is False
            assert response["id"] == request["id"]

    def test_stats_counts_probes(self, bundle):
        service = QueryService(bundle, cache_size=64, landmarks=4)
        service.dist(0, 1)
        service.dist(0, 1)
        stats = service.stats()
        assert stats["requests"] == 2
        cache = stats["cache"]
        assert cache["hits_lru"] + cache["hits_landmark"] >= 1
        assert 0.0 <= cache["hit_rate"] <= 1.0


    def test_metric_series_follow_the_stream(self, bundle):
        # Metric handles bind on first use: the registry lists exactly
        # the series the stream touched, with the plain-int counts.
        service = QueryService(bundle, cache_size=64, landmarks=4)
        assert len(service.metrics) == 0
        queries = make_queries(
            sorted(bundle.graph.vertices()), 200, mix="zipf", seed=3
        )
        stream = queries + [{"id": -1, "op": "warp"}, {"id": -2, "op": None}]
        answers = [service.handle_request(dict(q)) for q in stream]
        snapshot = service.metrics.snapshot()
        expected: dict = {}
        for request, answer in zip(stream, answers):
            key = (
                f"serving_requests{{ok={str(answer['ok']).lower()},"
                f"op={request['op']}}}"
            )
            expected[key] = expected.get(key, 0) + 1
        requests = {
            k: v for k, v in snapshot.items()
            if k.startswith("serving_requests")
        }
        assert requests == expected
        tiers = {
            k: v for k, v in snapshot.items()
            if k.startswith("serving_cache_events")
        }
        assert sum(tiers.values()) == service.hits + service.misses
        assert tiers.get("serving_cache_events{tier=miss}") == service.misses
        assert snapshot["serving_service_us"]["count"] == len(queries)
        assert set(snapshot) == set(requests) | set(tiers) | {
            "serving_service_us"
        }


class TestLineFraming:
    def test_complete_lines_keep_newlines(self):
        lines, partial, skipping = _split_lines(b"a\nbc\n\nde", False)
        assert lines == [b"a\n", b"bc\n", b"\n"]
        assert (partial, skipping) == (b"de", False)

    def test_overlong_line_answered_once_then_skipped(self):
        long_line = b"x" * (LINE_LIMIT + 1)
        assert _split_lines(long_line + b"\nok\n", False) == (
            [None, b"ok\n"], b"", False
        )
        # No newline yet: answered as soon as it passes the limit, and
        # the rest is dropped up to the newline whenever it comes.
        assert _split_lines(long_line, False) == ([None], b"", True)
        assert _split_lines(b"y" * 10, True) == ([], b"", True)
        assert _split_lines(b"yy\nok\nta", True) == ([b"ok\n"], b"ta", False)


class TestSpannerServer:
    def _ask(self, bundle, lines):
        """Start a server, send raw lines on one connection, collect
        one response per line, shut down."""

        async def _run():
            service = QueryService(bundle)
            server = SpannerServer(service, port=0)
            await server.start()
            assert server.address is not None
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            responses = []
            for line in lines:
                writer.write(line.encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.write(b'{"id": "bye", "op": "shutdown"}\n')
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
            writer.close()
            await server.wait_closed()
            return responses

        return asyncio.run(_run())

    def test_end_to_end_query_roundtrip(self, bundle):
        responses = self._ask(
            bundle,
            [
                '{"id": 0, "op": "ping"}',
                '{"id": 1, "op": "dist", "u": 0, "v": 7}',
                '{"id": 2, "op": "route", "u": 0, "v": 7}',
                '{"id": 3, "op": "label", "v": 7}',
                '{"id": 4, "op": "stats"}',
            ],
        )
        ping, dist, route, label, stats, bye = responses
        assert ping == {"id": 0, "ok": True, "value": "pong"}
        assert dist["ok"] and dist["value"] == bundle.oracle.query(0, 7)
        assert route["ok"] and route["value"][0] == 0
        assert route["value"][-1] == 7
        assert len(route["value"]) - 1 == dist["value"]
        assert label["ok"] and label["value"]["vertex"] == 7
        assert stats["ok"] and stats["value"]["n"] == bundle.graph.n
        assert bye == {"id": "bye", "ok": True, "value": "bye"}

    def test_malformed_lines_answered_inline(self, bundle):
        responses = self._ask(
            bundle, ["this is not json", '["not", "an", "object"]']
        )
        bad_json, bad_shape, _bye = responses
        assert bad_json["ok"] is False and "JSON" in bad_json["error"]
        assert bad_shape["ok"] is False

    def _exchange(self, bundle, chunks, answers, eof=False):
        """Write raw ``chunks`` on one connection, a tick apart, and read
        ``answers`` response lines; with ``eof``, half-close and wait for
        the server to hang up.  Then ask a second connection for
        ``stats`` and shut down.  Returns (responses, stats value,
        service)."""

        async def _run():
            service = QueryService(bundle)
            server = SpannerServer(service, port=0)
            await server.start()
            assert server.address is not None
            reader, writer = await asyncio.open_connection(*server.address)
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                await asyncio.sleep(0.01)
            responses = [
                json.loads(await asyncio.wait_for(reader.readline(), 5))
                for _ in range(answers)
            ]
            if eof:
                writer.write_eof()
                assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            reader2, writer2 = await asyncio.open_connection(*server.address)
            writer2.write(
                b'{"id": "s", "op": "stats"}\n{"id": "b", "op": "shutdown"}\n'
            )
            await writer2.drain()
            stats = json.loads(await reader2.readline())
            await reader2.readline()
            writer2.close()
            await server.wait_closed()
            return responses, stats["value"], service

        return asyncio.run(_run())

    def test_request_split_across_writes(self, bundle):
        responses, stats, _ = self._exchange(
            bundle,
            [b'{"id": 1, "op": "di', b'st", "u": 0, "v": 3}\n{"id": 2,',
             b' "op": "ping"}\n'],
            answers=2,
        )
        assert responses[0] == {
            "id": 1, "ok": True, "value": bundle.oracle.query(0, 3)
        }
        assert responses[1] == {"id": 2, "ok": True, "value": "pong"}
        assert stats["requests"] == 1

    def test_overlong_line_answered_and_connection_kept(self, bundle):
        pad = b"x" * (LINE_LIMIT // 2)
        responses, _, _ = self._exchange(
            bundle,
            # one over-long line in three writes, then a good request
            [b'{"id": 1, "pad": "' + pad, pad, pad + b'"}\n',
             b'{"id": 2, "op": "ping"}\n'],
            answers=2,
        )
        assert responses[0]["id"] is None and responses[0]["ok"] is False
        assert str(LINE_LIMIT) in responses[0]["error"]
        assert responses[1] == {"id": 2, "ok": True, "value": "pong"}

    def test_line_at_the_limit_is_served(self, bundle):
        head = b'{"id": 1, "op": "ping", "pad": "'
        line = head + b"x" * (LINE_LIMIT - len(head) - 2) + b'"}'
        assert len(line) == LINE_LIMIT
        responses, _, _ = self._exchange(bundle, [line + b"\n"], answers=1)
        assert responses == [{"id": 1, "ok": True, "value": "pong"}]

    def test_unterminated_tail_at_eof_is_dropped(self, bundle):
        responses, stats, service = self._exchange(
            bundle,
            [b'{"id": 1, "op": "dist", "u": 0, "v": 3}\n',
             b'{"id": 2, "op": "dist", "u": 0, "v": 5}'],
            answers=1,
            eof=True,
        )
        assert responses[0]["id"] == 1
        assert stats["requests"] == 1  # the tail was never served
        assert service.metrics.snapshot()[
            "serving_requests{ok=true,op=dist}"
        ] == 1

    def test_undecodable_lines_answered_not_fatal(self, bundle):
        probes = [
            b"\xff\xfe not utf-8\n",  # bad UTF-8
            b"[" * 5000 + b"\n",  # nested past the recursion limit
            b'{"id": 1e999, "op": "ping"}\n',  # id decodes to inf
            b'{"id": NaN, "op": "ping"}\n',
            b'{"id": 7, "op": "dist", "u": 1e999, "v": 1}\n',
        ]
        responses, _, _ = self._exchange(
            bundle, [b"".join(probes) + b'{"id": 8, "op": "ping"}\n'],
            answers=len(probes) + 1,
        )
        *bad, last = responses
        assert [r["ok"] for r in bad] == [False] * len(probes)
        assert "JSON" in bad[0]["error"] and "JSON" in bad[1]["error"]
        assert bad[4]["id"] == 7
        assert last == {"id": 8, "ok": True, "value": "pong"}

    def test_one_write_per_connection_per_batch(self, bundle, monkeypatch):
        writes = []
        real_write = asyncio.StreamWriter.write

        def counting_write(self, data):
            writes.append((self, data))
            return real_write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)

        async def _run():
            service = QueryService(bundle)
            server = SpannerServer(service, port=0)
            await server.start()
            assert server.address is not None
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b"".join(
                json.dumps({"id": rid, "op": "ping"}).encode() + b"\n"
                for rid in range(50)
            ) + b'{"id": "bye", "op": "shutdown"}\n')
            await writer.drain()
            got = [json.loads(await reader.readline()) for _ in range(51)]
            writer.close()
            await server.wait_closed()
            served = [data for who, data in writes if who is not writer]
            return got, served, service.metrics.histogram("serving_batch_size")

        got, served, batches = asyncio.run(_run())
        assert [r["id"] for r in got] == list(range(50)) + ["bye"]
        assert len(served) == batches.count
        assert b"".join(served).count(b"\n") == 51

    def test_max_requests_stops_server(self, bundle):
        async def _run():
            service = QueryService(bundle)
            server = SpannerServer(service, port=0, max_requests=3)
            await server.start()
            assert server.address is not None
            reader, writer = await asyncio.open_connection(*server.address)
            for rid in range(3):
                writer.write(
                    json.dumps({"id": rid, "op": "ping"}).encode() + b"\n"
                )
            await writer.drain()
            answers = [json.loads(await reader.readline()) for _ in range(3)]
            await asyncio.wait_for(server.wait_closed(), timeout=5)
            writer.close()
            return answers

        answers = asyncio.run(_run())
        assert all(a["ok"] for a in answers)

    def test_unix_socket_transport(self, bundle, tmp_path):
        sock = str(tmp_path / "svc.sock")

        async def _run():
            service = QueryService(bundle)
            server = SpannerServer(service, unix_path=sock)
            await server.start()
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b'{"id": 1, "op": "dist", "u": 0, "v": 3}\n')
            await writer.drain()
            answer = json.loads(await reader.readline())
            writer.write(b'{"id": 2, "op": "shutdown"}\n')
            await writer.drain()
            await reader.readline()
            writer.close()
            await server.wait_closed()
            return answer

        answer = asyncio.run(_run())
        assert answer["ok"] and answer["value"] == bundle.oracle.query(0, 3)

    def test_pipelined_batching_observed(self, bundle):
        # A burst written in one flush should be served in few batches:
        # the drainer takes everything queued per tick.
        async def _run():
            service = QueryService(bundle)
            server = SpannerServer(service, port=0)
            await server.start()
            assert server.address is not None
            reader, writer = await asyncio.open_connection(*server.address)
            burst = b"".join(
                json.dumps({"id": rid, "op": "ping"}).encode() + b"\n"
                for rid in range(50)
            )
            writer.write(burst)
            await writer.drain()
            got = [json.loads(await reader.readline()) for _ in range(50)]
            writer.write(b'{"id": "bye", "op": "shutdown"}\n')
            await writer.drain()
            await reader.readline()
            writer.close()
            await server.wait_closed()
            histogram = service.metrics.histogram("serving_batch_size")
            return got, histogram.max or 0

        got, max_batch = asyncio.run(_run())
        assert [r["id"] for r in got] == list(range(50))  # arrival order
        assert max_batch > 1


class TestLoadgen:
    def test_query_stream_is_deterministic(self, bundle):
        vertices = sorted(bundle.graph.vertices())
        a = make_queries(vertices, 100, mix="zipf", seed=3)
        b = make_queries(vertices, 100, mix="zipf", seed=3)
        assert a == b
        assert a != make_queries(vertices, 100, mix="zipf", seed=4)

    def test_zipf_mix_is_skewed_uniform_is_not(self, bundle):
        vertices = sorted(bundle.graph.vertices())

        def top_share(mix):
            queries = make_queries(vertices, 2000, mix=mix, seed=5)
            hits = {}
            for query in queries:
                for key in ("u", "v"):
                    if key in query:
                        hits[query[key]] = hits.get(query[key], 0) + 1
            ranked = sorted(hits.values(), reverse=True)
            return sum(ranked[:5]) / sum(ranked)

        assert top_share("zipf") > 2 * top_share("uniform")

    def test_queries_only_touch_known_vertices(self, bundle):
        vertices = set(bundle.graph.vertices())
        for query in make_queries(sorted(vertices), 200, mix="zipf", seed=6):
            assert query["v"] in vertices
            if "u" in query:
                assert query["u"] in vertices

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            make_queries([1, 2], 5, mix="bursty")
        with pytest.raises(ValueError, match="universe"):
            make_queries([], 5)

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile([], 50) == 0.0

    def test_percentile_edges(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        # q=25 on n=4 is exactly element 1 (nearest-rank, 1-indexed).
        assert percentile(values, 25) == 1.0
        assert percentile(values, 25.0001) == 2.0

    def test_percentile_float_q_no_overshoot(self):
        # 1000 * 99.9 / 100 = 999.0000000000001 in floats; the nearest
        # rank is 999 (1-indexed), i.e. the 999th value, not the 1000th.
        values = [float(i) for i in range(1, 1001)]
        assert percentile(values, 99.9) == 999.0
        assert percentile(values, 99.99) == 1000.0
        assert percentile(values, 0.1) == 1.0

    def test_percentile_tiny_inputs(self):
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 100) == 7.0
        two = [1.0, 2.0]
        assert percentile(two, 0) == 1.0
        assert percentile(two, 50) == 1.0
        assert percentile(two, 50.001) == 2.0
        assert percentile(two, 100) == 2.0

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], -1)
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], 100.5)

    def test_benchmark_counts_replay_exactly(self, bundle):
        # The BENCH_service gate: a fresh server + the same seeded
        # stream must reproduce every cache hit.
        first = run_service_benchmark(bundle, requests=150, mix="zipf", seed=2)
        second = run_service_benchmark(
            bundle, requests=150, mix="zipf", seed=2
        )
        assert first.answered == second.answered == 150
        assert first.errors == second.errors == 0
        assert first.cache_hits_lru == second.cache_hits_lru
        assert first.cache_hits_landmark == second.cache_hits_landmark
        assert first.cache_misses == second.cache_misses
        assert first.p99_ms >= first.p50_ms >= 0

    def test_open_loop_and_concurrency(self, bundle):
        summary = run_service_benchmark(
            bundle,
            requests=40,
            mix="uniform",
            seed=3,
            mode="open",
            concurrency=2,
            rate=4000.0,
        )
        assert summary.answered == 40 and summary.errors == 0

    def test_loadgen_against_external_server(self, bundle):
        async def _run():
            service = QueryService(bundle)
            server = SpannerServer(service, port=0)
            await server.start()
            assert server.address is not None
            host, port = server.address
            queries = make_queries(
                sorted(bundle.graph.vertices()), 80, mix="uniform", seed=9
            )
            summary = await run_loadgen(
                ("tcp", host, port), queries, shutdown=True
            )
            await server.wait_closed()
            return summary

        summary = asyncio.run(_run())
        assert summary.answered == 80 and summary.errors == 0
        assert summary.server_stats is not None
        assert summary.server_stats["requests"] == 80


class TestServiceBenchCell:
    def test_matrix_shape_and_ids_unique(self):
        cells = service_matrix()
        ids = [cell.cell_id for cell in cells]
        assert len(ids) == len(set(ids))
        # kinds x mixes x scales x one seed
        assert len(cells) == 3 * 2 * 2
        smoke_ids = {cell.cell_id for cell in service_matrix(("smoke",))}
        assert smoke_ids < set(ids)

    def test_run_service_cell_fields(self):
        cell = ServiceCell("grid", "smoke", 1, "zipf")
        result = run_service_cell(cell, reps=1)
        assert result["protocol"] == "service"
        assert result["cell_id"] == cell.cell_id
        assert result["rounds"] == cell.requests  # requests issued
        assert result["messages"] == cell.requests  # all answered
        assert result["words"] > 0  # zipf mix must produce cache hits
        assert 0.0 <= result["hit_rate"] <= 1.0
        assert result["p99_ms"] >= result["p50_ms"]

    def test_cell_counts_stable_across_reps(self):
        # reps=2 exercises the in-run nondeterminism assertion.
        cell = ServiceCell("er", "smoke", 1, "uniform")
        first = run_service_cell(cell, reps=2)
        second = run_service_cell(cell, reps=1)
        for name in ("rounds", "messages", "words", "n", "m"):
            assert first[name] == second[name]
