"""Shared fixtures: small hand-built schemas and tiny trained artefacts.

The heavy per-ISS artefacts (full retail corpus, MiniBERT pre-training) are
exercised by the benchmarks; unit and integration tests run against a tiny
synthetic matching task so the whole suite stays fast.  Session-scoped
fixtures build each artefact once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.artifacts import ArtifactConfig, DomainArtifacts, build_artifacts
from repro.embeddings.ppmi import PpmiConfig
from repro.schema import (
    Attribute,
    AttributeRef,
    DataType,
    Entity,
    Relationship,
    Schema,
    ground_truth_from_pairs,
)


def make_source_schema() -> Schema:
    """A small customer-style source schema (orders + items)."""
    return Schema(
        "tiny_source",
        [
            Entity(
                name="Orders",
                primary_key="order_id",
                attributes=[
                    Attribute("order_id", DataType.INTEGER),
                    Attribute("item_id", DataType.INTEGER),
                    Attribute("qty", DataType.DECIMAL),
                    Attribute("disc", DataType.DECIMAL, "discount applied to the line"),
                    Attribute("order_date", DataType.DATE),
                ],
            ),
            Entity(
                name="Item",
                primary_key="item_id",
                attributes=[
                    Attribute("item_id", DataType.INTEGER),
                    Attribute("item_name", DataType.STRING),
                    Attribute("brand_name", DataType.STRING),
                    Attribute("ean", DataType.STRING, "european article number"),
                ],
            ),
        ],
        [
            Relationship(
                child=AttributeRef("Orders", "item_id"),
                parent=AttributeRef("Item", "item_id"),
            )
        ],
    )


def make_target_schema() -> Schema:
    """A small ISS-style target schema (transactions + products + brands)."""
    return Schema(
        "tiny_target",
        [
            Entity(
                name="Transaction",
                primary_key="transaction_id",
                attributes=[
                    Attribute(
                        "transaction_id",
                        DataType.INTEGER,
                        "the identifier of the transaction record",
                    ),
                    Attribute("product_id", DataType.INTEGER, "the product identifier"),
                    Attribute("quantity", DataType.DECIMAL, "the quantity purchased"),
                    Attribute(
                        "price_change_percentage",
                        DataType.DECIMAL,
                        "the discount percentage applied",
                    ),
                    Attribute(
                        "transaction_date", DataType.DATE, "the date of the transaction"
                    ),
                    Attribute("tax_amount", DataType.DECIMAL, "the tax amount charged"),
                ],
            ),
            Entity(
                name="Product",
                primary_key="product_id",
                attributes=[
                    Attribute("product_id", DataType.INTEGER, "the product identifier"),
                    Attribute("product_name", DataType.STRING, "the name of the product"),
                    Attribute("primary_brand_id", DataType.INTEGER, "the brand identifier"),
                    Attribute(
                        "european_article_number",
                        DataType.STRING,
                        "the european article number barcode",
                    ),
                    Attribute(
                        "product_status_id", DataType.INTEGER, "the product status"
                    ),
                ],
            ),
            Entity(
                name="Brand",
                primary_key="brand_id",
                attributes=[
                    Attribute("brand_id", DataType.INTEGER, "the brand identifier"),
                    Attribute("brand_name", DataType.STRING, "the name of the brand"),
                ],
            ),
        ],
        [
            Relationship(
                child=AttributeRef("Transaction", "product_id"),
                parent=AttributeRef("Product", "product_id"),
            ),
            Relationship(
                child=AttributeRef("Product", "primary_brand_id"),
                parent=AttributeRef("Brand", "brand_id"),
            ),
        ],
    )


def make_ground_truth() -> dict[AttributeRef, AttributeRef]:
    return ground_truth_from_pairs(
        [
            ("Orders.order_id", "Transaction.transaction_id"),
            ("Orders.item_id", "Transaction.product_id"),
            ("Orders.qty", "Transaction.quantity"),
            ("Orders.disc", "Transaction.price_change_percentage"),
            ("Orders.order_date", "Transaction.transaction_date"),
            ("Item.item_id", "Product.product_id"),
            ("Item.item_name", "Product.product_name"),
            ("Item.brand_name", "Brand.brand_name"),
            ("Item.ean", "Product.european_article_number"),
        ]
    )


def top_k_sets(store, keep_per_source: int, scores: np.ndarray) -> list[np.ndarray]:
    """Per-source candidate sets: the ``keep_per_source`` best-scoring
    targets of each source, ``scores`` aligned with the store's pairs."""
    sets = []
    for source_index in range(store.num_sources):
        pair_ids = store.pairs_of_source_index(source_index)
        order = np.argsort(-scores[pair_ids], kind="stable")[:keep_per_source]
        sets.append(store.pair_target[pair_ids[order]])
    return sets


@pytest.fixture(scope="session")
def source_schema() -> Schema:
    return make_source_schema()


@pytest.fixture(scope="session")
def target_schema() -> Schema:
    return make_target_schema()


@pytest.fixture(scope="session")
def ground_truth() -> dict[AttributeRef, AttributeRef]:
    return make_ground_truth()


def tiny_artifact_config() -> ArtifactConfig:
    return ArtifactConfig(
        vocab_size=400,
        hidden_size=32,
        num_layers=1,
        num_heads=2,
        intermediate_size=64,
        max_position=32,
        mlm_epochs=1,
        mlm_batch_size=16,
        ppmi=PpmiConfig(dim=24),
        seed=0,
    )


@pytest.fixture(scope="session")
def tiny_artifacts(target_schema) -> DomainArtifacts:
    """Small but fully trained artefacts over the tiny target schema."""
    return build_artifacts(
        target_schema, config=tiny_artifact_config(), use_cache=False
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
