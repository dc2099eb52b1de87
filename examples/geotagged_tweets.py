#!/usr/bin/env python
"""Ranking locations by the relevance of geotagged tweets in their vicinity.

This mirrors the paper's Twitter use case: the feature dataset is a stream of
geotagged tweets (here: the TW-like generator with the published keyword
statistics), the data objects are candidate locations, and the query asks for
the top-k locations that have highly relevant tweets within a radius.

The example also demonstrates the supporting substrates:

* building a query workload from the dataset's vocabulary (Section 7.1),
* storing the dataset in the simulated HDFS and reading it back,
* inspecting the MapReduce counters and the simulated cost breakdown.

Run with::

    python examples/geotagged_tweets.py
"""

from __future__ import annotations

from repro import SPQEngine
from repro.core.centralized import dataset_extent
from repro.datagen.queries import QueryWorkload
from repro.datagen.realistic import RealisticDatasetConfig, generate_twitter_like
from repro.paper.hdfs import HDFS
from repro.model.objects import DataObject, FeatureObject
from repro.text.vocabulary import Vocabulary


def main() -> None:
    # 1. Generate a Twitter-like dataset (9.8 keywords/tweet on average).
    config = RealisticDatasetConfig(
        num_objects=6_000, mean_keywords=9.8, vocabulary_size=5_000, seed=99
    )
    locations, tweets = generate_twitter_like(config=config)
    print(f"Generated {len(locations)} candidate locations and {len(tweets)} tweets")

    # 2. Store the dataset in the simulated HDFS, as the deployment would.
    hdfs = HDFS(num_datanodes=16, block_records=1_000, replication=3)
    hdfs.write("/datasets/tweets.tsv", [obj.to_record() for obj in locations + tweets])
    stored = hdfs.read("/datasets/tweets.tsv")
    print(
        f"Stored as {stored.num_blocks} HDFS blocks "
        f"(replica distribution: {hdfs.replica_distribution()})"
    )

    # 3. Read it back, exactly as map tasks would (record at a time).
    parsed_locations, parsed_tweets = [], []
    for record in stored.records():
        if record.count("\t") == 2:
            parsed_locations.append(DataObject.from_record(record))
        else:
            parsed_tweets.append(FeatureObject.from_record(record))

    # 4. Build a query workload from the tweet vocabulary.
    vocabulary = Vocabulary.from_features(parsed_tweets)
    extent = dataset_extent(parsed_locations, parsed_tweets)
    workload = QueryWorkload(vocabulary, extent, seed=7)
    query = workload.make_query(
        k=10, num_keywords=5, grid_size=20, radius_fraction=0.10, strategy="frequent"
    )
    print(f"\nQuery: {query.describe()}")

    # 5. Execute with the best algorithm of the paper and inspect the stats.
    engine = SPQEngine(parsed_locations, parsed_tweets)
    result = engine.execute(query, algorithm="espq-sco", grid_size=20)

    print("\nTop locations:")
    for rank, entry in enumerate(result, start=1):
        print(f"  {rank:>2}. {entry.obj.oid:<12} score={entry.score:.3f}")

    stats = result.stats
    breakdown = stats["simulated_breakdown"]
    print("\nExecution statistics (eSPQsco):")
    print(f"  reduce tasks (grid cells):   {stats['num_reduce_tasks']}")
    print(f"  shuffled records:            {stats['shuffled_records']}")
    print(f"  feature duplicates:          {stats['feature_duplicates']}")
    print(f"  features pruned map-side:    {stats['features_pruned']}")
    print(f"  features examined (reduce):  {stats['features_examined']}")
    print(f"  score computations:          {stats['score_computations']}")
    print(
        "  simulated job time:          "
        f"{breakdown['total']:.1f}s  (startup {breakdown['startup']:.1f}s, "
        f"map {breakdown['map']:.2f}s, shuffle {breakdown['shuffle']:.2f}s, "
        f"reduce {breakdown['reduce']:.2f}s)"
    )

    # 6. Contrast with the baseline algorithm on the same query.
    baseline = engine.execute(query, algorithm="pspq", grid_size=20)
    ratio = baseline.stats["simulated_seconds"] / stats["simulated_seconds"]
    print(
        f"\npSPQ on the same query: {baseline.stats['simulated_seconds']:.1f}s simulated "
        f"({ratio:.1f}x slower), examining {baseline.stats['features_examined']} features."
    )


if __name__ == "__main__":
    main()
