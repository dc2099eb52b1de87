"""Ratchet: the code in the serving paths, the execution core and ``src/repro`` is pinned.

ROADMAP aim 2 is "the same behaviour from the least code", and a total that
nobody checks only ever goes up.  The counts below are *code-only* lines --
blank lines, comment lines and docstrings are excluded (``ast`` finds the
docstrings, ``tokenize`` the comments) -- so the cheap ways to shrink a
number (deleting reason-giving comments, trimming docstrings) are
worthless, and documenting code is free.

The knob inventory's rule applies: a PR that grows a number edits it below
in the same diff, which is what makes growth a reviewed decision instead of
a side effect; a PR that shrinks one lowers it, so the gain cannot silently
be spent later.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: Path under ``src/repro`` -> code-only lines, as of the last PR to touch it.
#: The four serving paths summed: 4 901 before the front-door consolidation,
#: 4 748 after it, 4 538 after the wire module.  The execution core (``core``,
#: ``execution``, ``mapreduce``, ``index``) summed: 3 751 (1 384 / 702 / 670 /
#: 995) with six representations of a cell's data, 3 722 with one, 3 816
#: (1 450 / 716 / 644 / 1 006) with the columnar map side: +94 where ~+40 was
#: budgeted.  The fused kernel and its three per-class column hooks replace
#: two ``map()`` branches (core +47); ``MapSplit`` with its ``slices`` replaces
#: two record classes and a generator, the per-radius running totals and their
#: lock come with it (index +16); ``run_map_task`` now routes a split to the
#: kernel with the ``JobExecutionError`` wrapping and shares one
#: written-once emission tail between both routes (execution +19), plus +8
#: there that the estimate did not foresee -- process pools start the
#: resource tracker before forking, a segment-unlinking bug the new
#: split_size = 1 x process cases exposed.  ``"."`` is all of ``src/repro``.
#:
#: The PR-21 audit: ``"."`` 11 337 -> 11 153, all of it deletion (the thread
#: backend, the planner's off switch, twelve one-valued config fields and the
#: re-exports of what moved).  ``paper`` is new and is *moved* code: 786
#: lines that left ``core`` (93), ``mapreduce`` (149), ``spatial`` (134) and
#: the former top-level ``bench`` (410) unchanged.  That is why ``core`` and
#: ``mapreduce`` fell further than anything was deleted from them, and why
#: ``paper`` counts in ``"."`` -- a moved line is not a reduction.  The
#: serving surface (``server`` + ``sharding`` + ``cluster`` + ``cli.py``) is
#: 4 502, from 4 538.
#:
#: PR 22, the shuffle as a view: execution core 3 448 -> 3 467 (+19 where up
#: to +60 was budgeted).  ``core`` -11: the kernel's per-copy loop (key
#: tuple, entry tuple, sequence number, lazy bucket opening) became a sort
#: and a two-line scatter of row numbers, and ``_feature_columns`` returns
#: two columns, not three.  ``index`` +18: ``CellRun`` (three fields, the
#: lazy ``read``, ``detached`` for the process boundary, ``followed_by`` for
#: cells several map tasks fed), and one line in ``DatasetIndex.release``
#: that drops the cached shuffle so a retired index dies by refcount, not at
#: the collector's next full pass.  ``execution`` +5: ``run_reduce_task`` reads
#: runs beside the raw route's entries (which alone are still sorted and
#: grouped), the tracking iterator wraps any iterable and lost its position
#: arithmetic, the process backend detaches runs in ``reduce_payloads``.
#: ``mapreduce`` +7: the runner merges the cells more than one task fed.
#: Outside the core, ``text`` +9: ``JaccardScorer.score_many``.
#:
#: PR 23, one execution path: execution core 3 467 -> 3 460, ``"."`` 11 181
#: -> 11 176.  ``core`` -21: ``SPQEngine.execute``'s raw branch (-11) and
#: ``_input_records`` (-17) left ``src/`` (the record stream is
#: ``tests/raw_oracle.py`` now), with them a duplicate empty-snapshot check
#: and an always-true ``if index_stats`` (-2 net of one import); the
#: deferred shared-memory release of ``close()`` came in (+6: a flag and
#: ``_release_planes_if_idle`` replace the unconditional ``release_all``),
#: and a tombstoned feature is no longer counted as pruned (+3).
#: ``index`` +14, all of it the
#: LRU over radii (``MAX_CACHED_RADII``, ``_radius_cache``: look-up, touch,
#: insert and eviction under the lock that already guarded the totals, and
#: the guard that keeps an evicted radius from re-growing its totals) -- the
#: price of every ``execute`` now feeding that cache.  Outside the core,
#: ``planner`` +2: ``radius_bucket`` survives a denormal radius.
#:
#: PR 25, ``Lk`` keeps its ``tau``: ``"."`` 11 176 -> 11 175, all of it in
#: ``model/result.py`` (85 -> 84); ``core`` unchanged at 1 253.  Function by
#: function: ``_kth_best`` left (-3); ``_prune`` -2 (its size guard moved
#: into ``offer``) and ``offer`` +3 (the guard, a bound ``oid``, the stale
#: mark); ``threshold`` +1 and ``__init__`` +1 (the cached ``tau``);
#: ``_select`` (the one selection) +2 and ``TopKList._best`` +2, ``ranked``
#: (what the reducers emit) +2, ``top`` -1; ``ScoredObject.__iter__`` +2 (the
#: engine hands ``merge_top_k`` plain ``(obj, score)`` pairs); ``merge_top_k``
#: -7 (one dedupe dict and ``_select``: no heap, counter or ``seen`` set);
#: module level -1 (the ``heapq`` / ``itertools`` imports out, the ``Entry``
#: alias in).  In ``core`` the four reducers' return lines and ``_merge``'s
#: per-cell dict became ``ranked()`` reads and one list of checked pairs,
#: line for line.
#:
#: The process backend leaves: ``"."`` 11 175 -> 10 727, all of it
#: deletion; every task runs serially.  ``execution`` 672 -> 375:
#: ``process.py`` (138) and ``base.py`` (40: the ``ExecutionBackend`` ABC)
#: are gone, ``ReduceTask`` moved into ``tasks.py`` (+3 net of the
#: ``task_state`` field) and ``run_task_in_process`` into
#: ``SerialBackend.run_reduce_tasks`` (``serial.py`` +12); ``__init__.py``
#: -69 (backend resolution, validation, creation, ``execution_info``, the
#: two environment variables); ``shm.py`` -65 (the reduce plane, the
#: resource-tracker start and the pool-worker branch of ``attach_segment``).
#: ``core`` 1 253 -> 1 195: ``engine.py`` -48 (the lazy backend, its
#: check-out/check-in refcount, the deferred plane release,
#: ``active_backend_name``, the ``workers`` field and the ``backend`` /
#: ``workers`` stats, net of a three-line ``__post_init__`` that rejects any
#: backend but ``serial``); ``jobs.py`` -10 (``__getstate__``, ``task_state``,
#: ``merge_task_state``).  ``index`` 1 038 -> 1 003: ``dataset_index.py`` -31
#: (``_plane``, ``_ensure_plane``, ``shared_plane_ref``, the unlink in
#: ``release``), ``CellRun.detached`` -2, ``DataBlock.__reduce__`` -2.
#: ``mapreduce`` 497 -> 478: ``PreloadedShuffle.shared_ref`` / ``blob`` /
#: ``_blobs`` and the task-state merge (``runtime.py`` -16), the task-state
#: hooks (``job.py`` -3).  ``cli.py`` -19 (``--workers``, backend
#: resolution, forwarding backend flags to cluster nodes); ``server`` -9 and
#: ``sharding`` -3 (the backend keys of ``/stats`` and of result stats);
#: ``paper`` -4 (the ``backend`` / ``workers`` fields of harness rows);
#: ``__init__.py`` -4 (the backend re-exports).
#:
#: eSPQsco from the index's columns: ``"."`` 10 727 -> 10 789.  ``index``
#: 1 003 -> 1 053: ``dataset_index.py`` +16 (the per-feature record-size and
#: ``|f.W|`` columns, ``keyword_hits``, ``prepare``'s score and size slices,
#: net of the oid-keyed ``feature_sizes`` memo), ``columns.py`` +15
#: (``DataBlock.oid_rows``, the rows sharing each row's oid, which the
#: closed-form ``score_computations`` needs), ``records.py`` +12 (the
#: ``scores`` / ``sizes`` columns of ``MapSplit``, their length check and
#: slicing, ``DATA_RECORD_BYTES`` and ``feature_record_size`` -- the one
#: size formula), ``delta.py`` +7 (appended features scored and sized).
#: ``core`` 1 195 -> 1 201: ``jobs.py`` +5 (the closed-form counter of the
#: eSPQsco reduce, net of the size memo and ``share_feature_sizes``),
#: ``engine.py`` +1 (``prepare`` takes the planner's hits).  Outside the
#: core, ``planner`` +3 (``QueryStatistics.keyword_hits``) and ``text`` +3
#: (``PositionalInvertedIndex.keyword_hits``).
#:
#: A shard maps only the features that can reach its data: ``"."`` 10 789 ->
#: 10 827, the outside-``paper`` ceiling with it (10 007 -> 10 045).
#: ``index`` 1 053 -> 1 079: ``dataset_index.py`` +19 (the ``scope`` and its
#: reach column -- per-feature ``MINDIST`` to the shard box, kept sorted beside
#: running record bytes so a radius's in-reach count and bytes are one
#: bisection -- ``features_within``, ``in_reach``, ``keyword_hits`` and
#: ``average_feature_bytes`` taking the radius), ``delta.py`` +7 (appended
#: features get the reach test; the snapshot's append dict is a cached
#: property, built once per snapshot instead of once per query).  ``core``
#: 1 201 -> 1 208: ``engine.py`` +7 (``scope`` at construction and swap, a
#: tombstone counted only in reach, and ``_merge``'s set-operation checks and
#: k-winner selection, which replace the per-output loop and fix the
#: re-appended-oid bug).  ``server`` +3 and ``cluster`` +1 pass the scope (and
#: keep it across compaction); ``sharding`` +1 (``_shard_slice`` returns the
#: shard-service arguments, box included).  ``mapreduce`` is flat: the closed-
#: form makespan (+4) paid for by the task -> slot map nobody read (-4).
#:
#: Oracles leave ``src/``: ``"."`` 10 827 -> 10 638 (-189), of which 114
#: lines *moved* and 75 were *deleted*.  Moved: the three per-object reduce
#: loops (``_reduce_objects``) of ``core/jobs.py``, verbatim, to
#: ``tests/object_oracle.py`` -- test code now, not a reduction.  Deleted:
#: in ``core`` (1 208 -> 1 087) the ``dataplane`` attribute and the three
#: ``if self.dataplane != "columnar"`` branches (-7); in ``index`` (1 079 ->
#: 1 013) ``CellColumns`` (-40), ``dataplane_mode`` with ``DATAPLANE_ENV``,
#: ``DATAPLANE_MODES`` and their imports and exports (-13), the ``cells``
#: group of ``ColumnStore`` (-11) and ``DatasetIndex.feature_home_of`` (-2);
#: in ``mapreduce`` (478 -> 476) ``JobResult.reduce_report`` (-2).  The
#: outside-``paper`` ceiling falls with it (10 045 -> 9 856).
#:
#: pSPQ and eSPQlen stop re-deriving each feature's neighbours: ``"."``
#: 10 638 -> 10 632 and the outside-``paper`` ceiling 9 856 -> 9 850.
#: ``core`` 1 087 -> 1 056: the two reducers lost their x-window, distance
#: filter and sort (now one ``rows_within`` call) and their ``scorer.score``
#: call; ``_feature_columns`` is written once in the base class (the
#: ``(feature, score)`` value every job ships), each job keeps a one-line
#: ``_feature_sort_keys``, and eSPQsco's ``_feature_value`` override left
#: with the base taking its body.  ``index`` 1 013 -> 1 037:
#: ``DataBlock.rows_within``, its memo and the row room that bounds it
#: (+24).  ``execution`` 375 -> 376: ``block_without`` builds its one-reduce
#: view with ``memo=False``.
#:
#: ``auto`` is eSPQsco: ``"."`` 10 632 -> 9 688 (-944) and the
#: outside-``paper`` ceiling 9 850 -> 8 906, all of it deleted, none moved.
#: The measured per-query oracle (``benchmarks/bench_planner.py``) found
#: the cost-based choice buying no CPU over a constant eSPQsco, so the
#: estimate and everything that learned or stored it went: ``planner``
#: 677 -> 20 (the estimator, the calibrator, calibration persistence and
#: ``PlannerConfig``; ``QueryPlanner`` keeps the posting-list walk and a
#: constant ``decide``), ``server`` 1 662 -> 1 565 (the calibration fields,
#: the checkpoint thread, ``checkpoint()``, ``seed_calibration_if_cold``
#: and their ``/stats`` entries), ``cli.py`` 827 -> 748 (the three
#: calibration flags, ``--explain`` and its printer, the restore/save
#: messages), ``core`` 1 056 -> 1 022 (``planner=``, ``planner_snapshot``,
#: ``restore_planner``, the estimate stats and the ``observe`` call),
#: ``index`` 1 037 -> 1 001 (the planner-only statistics: the feature home
#: cells, candidate-cell counts, the duplication estimate and its running
#: totals, the in-reach record bytes), ``sharding`` 1 009 -> 986 (the
#: scoped calibration paths, the per-shard plan map and the re-seed after
#: a rebalance), ``cluster`` 978 -> 962 (the spawner's calibration
#: arguments), ``exceptions.py`` and ``__init__.py`` one line each.
#:
#: A feature's keywords are a sorted tuple of shared words: ``"."`` 9 688
#: -> 9 698 and the outside-``paper`` ceiling 8 906 -> 8 916.  ``model``
#: 174 -> 193 (unpinned): ``keyword_tuple`` (the canonical, interned form),
#: ``shared_words`` (``|f.W ∩ q.W|`` by bisection, which
#: ``has_common_keyword`` and ``jaccard`` share), the constructor's
#: linear canonical check, the parser's empty-word strip and the query's
#: bare-string refusal.  ``server`` 1 565 -> 1 569: ``decode_objects``
#: refuses a bare string as ``"keywords"``.  ``index`` 1 001 -> 991:
#: ``FeatureColumns`` lost its per-row keyword-set cache and ``keywords()``
#: (a row's tuple is a slice over the interned vocabulary, built once by
#: the one ``to_objects`` call).  ``text`` 209 -> 206 (unpinned):
#: ``JaccardScorer.score_many`` left, the scorer's memo stays (measured
#: faster than none).
#:
#: Compaction folds the delta into the retired index instead of rebuilding
#: it: ``"."`` 9 698 -> 9 833 (+135) and the outside-``paper`` ceiling
#: 8 916 -> 9 051, all of it the fold, which deletes nothing: a full swap
#: keeps the fresh build, and that build is the fold's test oracle.
#: ``index`` 991 -> 1 059: ``dataset_index.py`` +45 (``fold`` itself: the
#: survivors' rows, the renumbering, the Lemma-1 re-keying; ``_adopt``,
#: the one place a build and a fold install their fields, and
#: ``_feature_rows``, the feature columns both compute), ``cache.py`` +19
#: (``retire`` and the retired map, the ``predecessor`` / ``fold`` hand-over
#: in ``get_or_build``, ``invalidate`` dropping what is retired),
#: ``delta.py`` +3 (``surviving``, the one survival rule ``materialize``
#: and the fold share), ``records.py`` +1 (``feature_record_size`` as
#: ``len(W) + sum(map(len, W))``, half the cost).  ``core`` 1 022 -> 1 044:
#: ``SPQEngine.compact``, the folded snapshot the successor folds in, and
#: the ownership of a shared delta (a pooled engine no longer resets it,
#: which made one compaction count one reset per engine).  ``server``
#: 1 569 -> 1 579: ``_swap_engines``, the gated swap a full swap and a
#: compaction share, where the pool's cache and delta are handled once.
#: Outside the pins, ``text`` 206 -> 241: ``PositionalInvertedIndex.fold``
#: (posting lists shifted past the dropped positions, emptied words gone).
#:
#: The cluster hands its dataset to the nodes through an inherited memfd:
#: ``"."`` 9 833 -> 9 731 (-102) and the outside-``paper`` ceiling 9 051 ->
#: 8 949.  ``execution`` 376 -> 238: ``shm.py`` (138) is gone -- the
#: refcounted ``SharedSegment``, unlink-on-last-release, the
#: ``weakref.finalize`` backstop, the live-segment registry, the
#: resource-tracker deregistration and the ``shared_memory_available``
#: probe.  ``cluster`` 962 -> 995: ``spawn.py`` owns both ends of the
#: hand-off (``publish_dataset`` writes a memfd, ``attach_dataset`` maps,
#: materializes and closes it) and launches every node before it waits
#: for any ready line (one wait loop over all of them).  ``index`` 1 059 ->
#: 1 062: ``unpack_sections`` checks the whole frame before it takes a
#: view, so a truncated file raises ``ValueError`` and leaves no export on
#: the mapping.  ``cli.py`` is flat (``--dataset-fd`` for ``--dataset-shm``).
#:
#: What is not the system leaves ``src/repro``: ``"."`` 9 731 -> 9 019
#: (-712) and the outside-``paper`` ceiling 8 949 -> 8 237, of which 490
#: lines *moved* and 222 were *deleted*.  Moved: ``repro.traffic`` (559)
#: became ``benchmarks/traffic_lab.py`` (490), the client of
#: ``bench_traffic.py``.  Deleted: the package's re-exports, ``__all__``
#: lists and second import block and ``ServiceTarget`` (-69); ``cli.py``
#: 748 -> 628, ``repro loadgen`` (its 21 options, ``_cmd_loadgen``,
#: ``_WORKLOAD_CONFIG_FLAGS``) and an import only it used; ``mapreduce``
#: 476 -> 446, the unused ``partitioner.py`` and its re-exports; ``core``
#: 1 044 -> 1 023, ``pad_with_zero_scores`` and ``SPQEngine._pad`` (the
#: padding is a test helper in ``tests/raw_oracle.py``); ``sharding`` 986
#: -> 981, ``layout_resolution`` (the router derives it) and the two
#: rebalance-controller fields (module constants now).  ``cluster`` 995 ->
#: 1 018: ``max_misses`` became ``MAX_MISSES`` (flat), and the router's
#: shutdown closes the keep-alive connections of every thread to its nodes
#: (``transport.py`` +20: the pool registry, ``close_connections`` and
#: the exited-thread sweep that stops a dead thread's sockets waiting on
#: the collector; ``router.py`` +3).  ``server`` is flat: a failed
#: ``submit_many`` batch counts one failure per unanswered request.
#:
#: A node round trip is one segment each way: ``"."`` 9 019 -> 9 058 (+39)
#: and the outside-``paper`` ceiling 8 237 -> 8 276.  ``cluster`` 1 018 ->
#: 1 057: ``transport.py`` speaks its own keep-alive HTTP/1.1 exchange in
#: place of ``http.client`` (``_Connection``: the socket and its reader,
#: one-``sendall`` requests, the status-line / header / exact-body reader
#: with its framing errors and header-count cap, and the stale-versus-
#: timeout split of the retry), net of the per-thread pools and their
#: exited-thread sweep becoming one shared idle pool per node.  ``server``
#: 1 579 -> 1 581: ``_send_text`` joins the headers and the body into one
#: write.  ``sharding`` 981 -> 979: the
#: scatter runs its first shard on the calling thread, which also folds
#: away the one-shard branch.
#:
#: A reduce task costs its reducer: ``"."`` 9 058 -> 9 006 (-52) and the
#: outside-``paper`` ceiling 8 276 -> 8 218.  ``execution`` 238 -> 220 and
#: ``mapreduce`` 446 -> 414: the per-task reduce route (``run_reduce_task``,
#: ``_reduce_group``, the consumption-tracking iterator, the report
#: dataclass with its per-task ``Counters``, and the runner's per-task merge
#: with ``_run_reduce_phase``) left ``src/`` for ``tests/reduce_oracle.py``;
#: in its place ``SerialBackend.run_reduce_tasks`` is the phase as one loop
#: (``serial.py`` +40), ``reduce_groups`` lays a partition out for it, and
#: ``Counters.total`` reads a task's work units.  ``paper`` 782 -> 788: the
#: cell-size experiment meters its reducers' score computations itself.
#: ``sharding`` 979 -> 971: a ``/batch`` call's misses run on the calling
#: thread, with no per-call thread pool.
#:
#: ``auto`` answers by one global Lemma-3 scan: ``"."`` 9 006 -> 9 124
#: (+118) and the outside-``paper`` ceiling 8 218 -> 8 336.  Deleted: only
#: the ``_execute_planned`` / ``_run_job`` lines ``auto`` no longer needs
#: (resolving it and handing ``planned_algorithm`` through the job path,
#: 7 lines, against 4 that hand ``auto`` to the scan).  ``index`` 1 062 ->
#: 1 146: ``DatasetIndex.scan`` (the score levels over ``(|f.W ∩ q.W|,
#: |f.W|)`` pairs, appended features scored and located beside them, the
#: level loop over Lemma-1 cells' blocks and appended data with the
#: tombstone filter) and ``ScanResult``; ``_data_blocks`` split out of
#: ``partition_block``.  ``core`` 1 023 -> 1 052: ``_execute_scan`` (the
#: scan's stats: work counters, index subtree, no simulated time).
#: ``sharding`` 971 -> 973: the router takes ``planned_algorithm`` from its
#: shards and reports no ``simulated_seconds`` for ``auto``.  ``cli.py``
#: 628 -> 631: ``repro query --stats`` prints an ``auto`` answer's work
#: without the job lines.  ``repro.planner`` stays (the e2e tracer patches
#: it); its deletion is ROADMAP item 2(i)'s.
BUDGET = {
    "server": 1581,
    "sharding": 973,
    "cluster": 1057,
    "cli.py": 631,
    "core": 1052,
    "execution": 220,
    "mapreduce": 414,
    "index": 1146,
    "paper": 788,
    ".": 9124,
}

#: What the serving path can reach (``src/repro`` minus ``repro.paper``) may
#: not grow past this, whatever moves in or out of ``paper``.
OUTSIDE_PAPER_CEILING = 8336

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    """Lines of ``path`` that hold code: not blank, comment-only or docstring."""
    source = path.read_text(encoding="utf-8")
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    token_lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            token_lines.update(range(token.start[0], token.end[0] + 1))
    return len(token_lines - docstring_lines)


def measure(relative: str) -> int:
    path = SRC / relative
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(file) for file in files)


@pytest.mark.parametrize("relative", sorted(BUDGET))
def test_code_size_is_pinned(relative):
    measured = measure(relative)
    assert measured == BUDGET[relative], (
        f"src/repro/{relative} holds {measured} code lines, pinned at "
        f"{BUDGET[relative]}: edit BUDGET in this diff (and say in the PR "
        "why it grew, if it grew)"
    )


def test_everything_outside_paper_stays_under_its_ceiling():
    assert measure(".") - measure("paper") <= OUTSIDE_PAPER_CEILING


def test_counter_ignores_comments_docstrings_and_blanks(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comments do not hide the code\n"
        "\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    text = '''a string\n"
        "    that is data, not a docstring'''\n"
        "    return (x,\n"
        "            text)\n"
    )
    assert code_lines(sample) == 6
