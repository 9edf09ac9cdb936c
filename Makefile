PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test parity bench-engine bench-train bench-serve bench-retrieval bench-drift bench-encode bench-e2e test-bench-e2e trace-smoke

## Tier-1 gate: full test suite, then the engine parity and reentrancy
## suites, the encode-plane suite (plane == sequential encode, bit-exact,
## and plane scores == score_encoded within 1e-8), the feature-column
## differential test, the pair-batch suite (BERT row keys and columns ==
## the per-pair reference, bit-exact), the BM25 per-posting reference test,
## the MiniBERT kernel tests, the frozen-trunk suite (a label update's
## steps == a full-forward reference, bit-exact), the trunk-store suite (a
## rescore after label updates that reads stored trunk outputs == a
## store-less forward, bit-exact), the pretraining suites (the
## scalar-path fit on cached eval-mode cosines == the loop that runs the
## encoder every step, within 1e-6; a cold and a warm pretrained block
## agree after an update) and the training-input suites (the training
## planner's chunks and generator draws, every update and MLM step's batch
## gathered from the encode plane, and each update step's trunk rows ==
## the stacked and trimmed encode_pair/encode_single reference,
## bit-exact) and the drift-parity suites (incremental drift == a fresh
## matcher on the evolved schema, with and without retrieval; a
## generate_for_sources slice == the matching rows of a full generate)
## explicitly (they are part of tests/, the second run pins them even if
## testpaths change).
## Under `taskset -c 0` the engine's default worker count resolves to one,
## so the same suites cover the in-process path.
verify: test parity

test:
	$(PYTHON) -m pytest -x -q

parity:
	$(PYTHON) -m pytest -q tests/engine/test_parity.py tests/engine/test_reentrant.py \
		tests/lm/test_encode_plane.py tests/core/test_feature_columns.py \
		tests/featurizers/test_pair_batch.py tests/retrieval/test_bm25_reference.py \
		tests/nn/test_kernels.py tests/featurizers/test_frozen_trunk.py \
		tests/engine/test_trunk_store.py \
		tests/featurizers/test_bert_featurizer.py::TestPretrainCache \
		tests/featurizers/test_bert_featurizer.py::TestPretrainScalarFit \
		tests/featurizers/test_bert_featurizer.py::TestIndexOnlyPlan \
		tests/featurizers/test_bert_featurizer.py::TestBatchedSampleEncoding \
		tests/engine/test_batching.py::TestPlanTrainingChunks \
		tests/lm/test_mlm.py::TestMlmStepBatches \
		tests/core/test_drift_e2e.py::TestIncrementalParity \
		tests/retrieval/test_generator.py::TestFusedCandidateGenerator::test_generate_for_sources_matches_full_generate

## Engine perf smoke (tier-2): length-bucketed micro-batches vs one
## monolithic padded batch, parity within 1e-8; emits BENCH_engine.json.
bench-engine:
	$(PYTHON) -m pytest -q benchmarks/test_engine_throughput.py

## Training perf smoke (tier-2): emits BENCH_train.json at the repo root.
bench-train:
	$(PYTHON) -m pytest -q benchmarks/test_train_throughput.py

## Serving-service load replay (tier-2): 240 interleaved requests over 16
## mixed-tenant sessions with hot-swaps, coalesced vs sequential; gates
## parity (1e-8), speedup (>= 2x) and p99 latency; emits BENCH_serve.json.
bench-serve:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_serve_load.py

## Retrieval smoke (tier-2): retrieve-then-rerank vs full product on the
## 10x-scaled ISS (speedup + identical matches + public recall gate);
## emits BENCH_retrieval.json at the root.
bench-retrieval:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_retrieval.py

## Schema-drift smoke (tier-2): 3-column delta on the 10x-scaled ISS;
## gates identical matches vs rebuild, >= 5x fewer BERT re-scores, and
## zero re-runs for drop-only deltas; emits BENCH_drift.json at the root.
bench-drift:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_drift.py

## Encode-plane smoke (tier-2): per-pair encode vs per-attribute id tables,
## row fingerprints and gather assembly on an encode-dominated 10x-ISS
## workload; gates bit-exact chunk and fingerprint parity and >= 3x speedup
## (best of 3 per path); emits BENCH_encode.json.
bench-encode:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_encode.py

## End-to-end benchmark (tier-2): all four workloads (Fig. 9 session,
## onboarding, drift, open-loop serving), each with its per-layer split.
## Results land under benchmarks/e2e/.work/results/.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py --workload all --trace 1

## End-to-end benchmark unit tests (span attribution, input determinism,
## BENCHMARK.json consistency); a few seconds.
test-bench-e2e:
	$(PYTHON) -m pytest benchmarks/e2e

## Observability smoke (tier-2): traced session on customer A, NDJSON
## well-formedness + iteration parity + `repro trace summarize` rendering.
trace-smoke:
	REPRO_SKIP_WARM=1 $(PYTHON) -m pytest -q benchmarks/test_trace_smoke.py
