"""Similarity Flooding baseline (Melnik, Garcia-Molina, Rahm -- ICDE 2002).

SF turns the two schemata into labelled graphs, builds the *pairwise
connectivity graph* (PCG) whose nodes are cross-schema element pairs and
whose edges connect pairs that are neighbours under the same edge label in
both graphs, and then propagates initial similarities over the PCG until a
fixpoint.  Per the paper's adaptation, initial scores come from embedding
similarities of the element names.

Schema graph model used here (flat relational schemata):

* nodes: entities and attributes,
* ``contains`` edges: entity -> attribute,
* ``references`` edges: FK child entity -> parent entity.

Propagation implements the canonical SF update with inverse-product edge
weights and basic fixpoint formula ``sigma' = normalize(sigma0 + sigma +
phi(sigma0 + sigma))``, truncated at ``max_iterations``.
"""

from __future__ import annotations

import numpy as np

from ..embeddings.subword import SubwordEmbeddings
from ..schema.model import Schema
from ..text.tokenize import split_identifier
from .base import Baseline, ScoredMatrix


def _schema_graph(schema: Schema) -> tuple[list[tuple[str, str]], dict[tuple[str, str], int], list[tuple[int, int, str]]]:
    """Nodes (kind, name) with ids and labelled edges of one schema graph."""
    nodes: list[tuple[str, str]] = []
    index: dict[tuple[str, str], int] = {}

    def node_id(kind: str, name: str) -> int:
        key = (kind, name)
        if key not in index:
            index[key] = len(nodes)
            nodes.append(key)
        return index[key]

    edges: list[tuple[int, int, str]] = []
    for entity in schema.entities:
        entity_id = node_id("entity", entity.name)
        for attribute in entity.attributes:
            attribute_id = node_id("attribute", f"{entity.name}.{attribute.name}")
            edges.append((entity_id, attribute_id, "contains"))
    for relationship in schema.relationships:
        child_id = node_id("entity", relationship.child.entity)
        parent_id = node_id("entity", relationship.parent.entity)
        edges.append((child_id, parent_id, "references"))
    return nodes, index, edges


class SimilarityFloodingMatcher(Baseline):
    """Fixpoint similarity propagation over the pairwise connectivity graph."""

    name = "similarity_flooding"

    def __init__(self, embeddings: SubwordEmbeddings) -> None:
        self.embeddings = embeddings

    def variants(self) -> dict[str, dict]:
        return {
            "iters=8": {"max_iterations": 8},
            "iters=16": {"max_iterations": 16},
        }

    def _initial_similarity(
        self,
        source_nodes: list[tuple[str, str]],
        target_nodes: list[tuple[str, str]],
    ) -> np.ndarray:
        def vector(kind: str, name: str) -> np.ndarray:
            label = name.split(".")[-1] if kind == "attribute" else name
            return self.embeddings.phrase_vector(split_identifier(label))

        source_matrix = np.stack([vector(*node) for node in source_nodes])
        target_matrix = np.stack([vector(*node) for node in target_nodes])
        for matrix in (source_matrix, target_matrix):
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            matrix /= norms
        similarity = (source_matrix @ target_matrix.T + 1.0) / 2.0
        # Pairs of different kinds (entity vs attribute) cannot match.
        source_kinds = np.asarray([node[0] == "entity" for node in source_nodes])
        target_kinds = np.asarray([node[0] == "entity" for node in target_nodes])
        kind_mask = source_kinds[:, None] == target_kinds[None, :]
        return similarity * kind_mask

    def score_matrix(
        self,
        source_schema: Schema,
        target_schema: Schema,
        max_iterations: int = 8,
        tolerance: float = 1e-4,
        **params,
    ) -> ScoredMatrix:
        source_nodes, _, source_edges = _schema_graph(source_schema)
        target_nodes, _, target_edges = _schema_graph(target_schema)
        num_source = len(source_nodes)
        num_target = len(target_nodes)
        num_pairs = num_source * num_target

        def pair_id(i: int, j: int) -> int:
            return i * num_target + j

        # Build the PCG propagation matrix with inverse-product weights.
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        target_edges_by_label: dict[str, list[tuple[int, int]]] = {}
        for a, b, label in target_edges:
            target_edges_by_label.setdefault(label, []).append((a, b))

        # Out-degree per PCG node and label, for weight normalisation.
        from collections import Counter

        out_degree: Counter = Counter()
        pcg_edges: list[tuple[int, int]] = []
        for a1, a2, label in source_edges:
            for b1, b2 in target_edges_by_label.get(label, []):
                left = pair_id(a1, b1)
                right = pair_id(a2, b2)
                pcg_edges.append((left, right))
                out_degree[left] += 1
                out_degree[right] += 1  # propagation is bidirectional

        for left, right in pcg_edges:
            rows.append(right)
            cols.append(left)
            values.append(1.0 / out_degree[left])
            rows.append(left)
            cols.append(right)
            values.append(1.0 / out_degree[right])

        from scipy import sparse  # only this baseline needs scipy

        propagation = sparse.csr_matrix(
            (values, (rows, cols)), shape=(num_pairs, num_pairs)
        )

        sigma0 = self._initial_similarity(source_nodes, target_nodes).reshape(-1)
        sigma = sigma0.copy()
        for _ in range(max_iterations):
            propagated = propagation @ (sigma0 + sigma)
            updated = sigma0 + sigma + propagated
            peak = updated.max()
            if peak > 0:
                updated = updated / peak
            if float(np.abs(updated - sigma).max()) < tolerance:
                sigma = updated
                break
            sigma = updated

        similarity = sigma.reshape(num_source, num_target)

        # Project attribute-pair scores back to the attribute matrix.
        source_refs = source_schema.attribute_refs()
        target_refs = target_schema.attribute_refs()
        source_pos = {
            node[1]: i for i, node in enumerate(source_nodes) if node[0] == "attribute"
        }
        target_pos = {
            node[1]: j for j, node in enumerate(target_nodes) if node[0] == "attribute"
        }
        scores = np.zeros((len(source_refs), len(target_refs)))
        for i, source_ref in enumerate(source_refs):
            row = source_pos[str(source_ref)]
            for j, target_ref in enumerate(target_refs):
                scores[i, j] = similarity[row, target_pos[str(target_ref)]]
        return ScoredMatrix(scores=scores, source_refs=source_refs, target_refs=target_refs)
