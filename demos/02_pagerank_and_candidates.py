"""Topic-centered subgraphs and string-matched candidate links.

Run with:  python3 demos/02_pagerank_and_candidates.py
"""

import numpy as np

from wikilinks import network_stats, personalized_pagerank, topk_subgraph
from wikilinks.synthetic import PlantedCorpusParams, planted_dataset


def main() -> None:
    print("=== A small planted-topic corpus (built through the real pipeline) ===")
    dataset = planted_dataset(PlantedCorpusParams(topics=3, docs_per_topic=10, seed=7))
    net = dataset.network
    print(f"  {net.node_count} documents, {net.edge_count} edges")

    print("\n=== Personalized PageRank concentrates mass near the seed ===")
    seed = 0
    ppr = personalized_pagerank(net, seed=seed, damping=0.85)
    print(f"  seed: {dataset.articles[seed].title!r}")
    print(f"  converged={ppr.converged} after {ppr.iterations} iterations,"
          f" sum={ppr.scores.sum():.12f}")
    top = np.argsort(-ppr.scores)[:5]
    for rank, node in enumerate(top):
        print(f"  #{rank}  {ppr.scores[node]:.4f}  {dataset.articles[node].title}")

    print("\n=== Top-k extraction keeps the seed's topical neighborhood ===")
    titles = [a.title for a in dataset.articles]
    subgraph, old_to_new = topk_subgraph(net, ppr.scores, k=10, titles=titles)
    kept = sorted(old_to_new, key=old_to_new.get)
    same_topic = sum(1 for old in kept if dataset.articles[old].title.split()[1][1]
                     == dataset.articles[seed].title.split()[1][1])
    print(f"  kept {subgraph.node_count} nodes, {subgraph.edge_count} edges;"
          f" {same_topic}/10 share the seed's topic")

    print("\n=== Anchor map + scan: every link is matched, plus hard negatives ===")
    candidates = dataset.anchor_candidates()  # source -> target -> matched anchors
    doc = dataset.articles[0]
    print(f"  candidates of {doc.title!r}:")
    for target, anchors in candidates[0].items():
        label = "LINK" if net.has_edge(0, target) else "no link (hard negative)"
        print(f"    -> {dataset.articles[target].title:20}  "
              f"matched {anchors}  [{label}]")

    print("\n=== Dataset statistics in the style of the published tables ===")
    stats = network_stats(net, dataset.articles, candidates)
    print(f"  n_V={stats.n_docs}  n_E={stats.n_links} ({stats.density_pct:.2f}%)  "
          f"n_W={stats.n_vocab}")
    print(f"  doc length {stats.doc_length_mean:.2f} ({stats.doc_length_std:.2f})")
    print(f"  positives/doc {stats.positives_per_doc_mean:.2f} "
          f"({stats.positives_per_doc_std:.2f}), "
          f"negatives/doc {stats.negatives_per_doc_mean:.2f} "
          f"({stats.negatives_per_doc_std:.2f})")


if __name__ == "__main__":
    main()
