# Tier-1 verification. `make check` is the gate for every change; the
# race run is part of tier-1 because the experiment harness
# (internal/harness) is concurrent — its tests drive a 4-worker pool
# through cancellation, panic-recovery, and resume paths. The lint run
# is the domain analyzer suite (cmd/eeatlint, DESIGN.md §9 and §14):
# vet plus nine project-specific checks (determinism, hotpath,
# chargesite, boundaryerrors, invariants, ctxflow, goroleak, locksafe,
# wireparity) that must exit clean.

GO ?= go

# Reduced-scale suite settings for the integrity run (`make audit`).
AUDIT_FLAGS = -exp all -instrs 2000000 -scale 0.25 -checkpoint ""

# Reduced-scale settings for the telemetry and profiling runs. fig4
# exercises the Lite controller, so the scrape sees resize metrics.
TELEMETRY_FLAGS = -exp fig4 -instrs 2000000 -scale 0.25 -checkpoint ""
TELEMETRY_PORT = 19309

# Reduced-scale settings for the service smoke (`make service`): a
# fig2-class experiment job small enough to finish in seconds.
SERVICE_PORT = 19311
SERVICE_JOB = {"experiment":"fig2","instrs":400000,"scale":0.1,"seed":7}

# Cluster smoke settings (`make cluster`): the same reduced fig2 cells,
# sharded across 3 loopback workers with the chaos injector killing
# worker 0 on its 10th RPC (it owns 16 of the 24 cells at this scale,
# so the kill lands mid-experiment). The merged report must match the
# committed single-process golden byte for byte.
CLUSTER_FLAGS = -exp fig2 -instrs 400000 -scale 0.1 -seed 7
CLUSTER_GOLDEN = testdata/cluster/fig2.golden

.PHONY: check build vet lint test race bench loadtest audit fuzz telemetry profile serve service cluster soak trace-smoke loc

check: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The analyzer suite carries an interprocedural engine (DESIGN.md §14)
# whose cost must stay amortizable on every change: the run prints
# per-analyzer timing and fails if the whole suite (including go run
# compilation) blows a 60-second wall budget.
LINT_BUDGET_SECONDS = 60
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/eeatlint -dir . -time; status=$$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "lint: $${elapsed}s wall (budget $(LINT_BUDGET_SECONDS)s)"; \
	if [ $$elapsed -gt $(LINT_BUDGET_SECONDS) ]; then \
		echo "lint: suite exceeded the $(LINT_BUDGET_SECONDS)s budget" >&2; exit 1; \
	fi; \
	exit $$status

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every micro-bench in the module. End-to-end performance
# is measured by perfbench (`bash perfbench/run.sh`, DESIGN.md §13).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Measured load run (DESIGN.md §13): the reduced fig2 suite across 3
# loopback workers with the load report enabled. The report must agree
# with the cluster smoke's ground truth — 24 cells led to completion,
# positive throughput, and populated latency quantiles read back from
# the same histograms /metrics exports — while the merged report stays
# byte-identical to the committed golden (measurement is observational).
loadtest:
	$(GO) build -o eeatd-bin ./cmd/eeatd
	./eeatd-bin -cluster 3 $(CLUSTER_FLAGS) -load-out loadtest.json > loadtest-report.out
	diff $(CLUSTER_GOLDEN) loadtest-report.out \
		|| { echo "loadtest: measured run diverged from the golden" >&2; exit 1; }
	grep -q '"cells": 24' loadtest.json \
		|| { echo "loadtest: report does not show 24 completed cells:" >&2; cat loadtest.json >&2; exit 1; }
	grep -q '"cells_per_sec"' loadtest.json && grep -q '"p95_seconds"' loadtest.json \
		|| { echo "loadtest: report is missing throughput/quantile fields" >&2; exit 1; }
	@grep -o '"cells_per_sec": [0-9.]*' loadtest.json | head -1
	rm -f eeatd-bin loadtest-report.out loadtest.json
	@echo "loadtest: throughput and latency quantiles measured; report byte-identical"

# Integrity run (DESIGN.md §7): the suite at reduced scale with the
# differential oracle checking every access must finish with zero
# violations AND render byte-identical tables to an unaudited run —
# the audit layer is observational by contract. Per-artifact timings
# are stripped before the diff; intermediates are kept on failure for
# inspection.
audit:
	$(GO) run ./cmd/experiments $(AUDIT_FLAGS) \
		| sed 's/^\(## .*\)  (.*s)$$/\1/' > audit-plain.out
	$(GO) run ./cmd/experiments $(AUDIT_FLAGS) -audit -audit-sample 1 \
		| sed 's/^\(## .*\)  (.*s)$$/\1/' > audit-checked.out
	diff audit-plain.out audit-checked.out
	rm -f audit-plain.out audit-checked.out
	@echo "audit: zero violations; audited tables byte-identical"

# Short fuzz smoke over every fuzz target (CI runs this per push).
fuzz:
	$(GO) test -fuzz=FuzzSetAssoc -fuzztime=10s ./internal/tlb
	$(GO) test -fuzz=FuzzRangeTable -fuzztime=10s ./internal/rmm
	$(GO) test -fuzz=FuzzAllocator -fuzztime=10s ./internal/physmem
	$(GO) test -fuzz=FuzzReadTrace -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzZipfSampler -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/harness
	$(GO) test -fuzz=FuzzSegmentDecode -fuzztime=10s ./internal/tracec
	$(GO) test -fuzz=FuzzIngest -fuzztime=10s ./internal/tracec
	$(GO) test -fuzz=FuzzSimulateTrace -fuzztime=10s ./internal/tracec
	$(GO) test -fuzz=FuzzSubmit -fuzztime=10s ./internal/service

# Observability run (DESIGN.md §8): a reduced-scale experiment with
# tracing, progress, and the status endpoint enabled must render
# byte-identical tables to a bare run — telemetry is observational by
# contract — while /metrics and /status answer mid-run and the trace
# file is a valid Chrome trace_event document. Per-artifact timings
# are stripped before the diff; intermediates are kept on failure.
telemetry:
	$(GO) build -o telemetry-bin ./cmd/experiments
	./telemetry-bin $(TELEMETRY_FLAGS) \
		| sed 's/^\(## .*\)  (.*s)$$/\1/' > telemetry-plain.out
	./telemetry-bin $(TELEMETRY_FLAGS) -progress 5s \
		-status-addr 127.0.0.1:$(TELEMETRY_PORT) -trace-out telemetry.trace \
		> telemetry-instr.raw & pid=$$!; \
	ok=0; for i in $$(seq 1 300); do \
		if curl -fsS http://127.0.0.1:$(TELEMETRY_PORT)/metrics -o telemetry-metrics.prom 2>/dev/null; then \
			curl -fsS http://127.0.0.1:$(TELEMETRY_PORT)/status -o telemetry-status.json; ok=1; break; \
		fi; sleep 0.2; \
	done; \
	test $$ok -eq 1 || { echo "telemetry: status endpoint never answered" >&2; kill $$pid; exit 1; }; \
	wait $$pid
	sed 's/^\(## .*\)  (.*s)$$/\1/' telemetry-instr.raw > telemetry-instr.out
	diff telemetry-plain.out telemetry-instr.out
	grep -q 'xlate_tlb_l1_misses_total' telemetry-metrics.prom
	grep -q 'xlate_energy_picojoules_total' telemetry-metrics.prom
	grep -q 'xlate_lite_resizes_total' telemetry-metrics.prom
	grep -q 'xlate_harness_cell_seconds' telemetry-metrics.prom
	grep -q '"planned"' telemetry-status.json
	grep -q 'traceEvents' telemetry.trace
	rm -f telemetry-bin telemetry-plain.out telemetry-instr.raw telemetry-instr.out \
		telemetry-metrics.prom telemetry-status.json telemetry.trace
	@echo "telemetry: live scrape OK; instrumented tables byte-identical"

# Run the simulation daemon locally (DESIGN.md §10).
serve:
	$(GO) run ./cmd/eeatd

# Service smoke (DESIGN.md §10): boot eeatd, submit the same reduced
# fig2 job twice, and require the second submission to be answered from
# the content-addressed cache (checked both in the response body and in
# the daemon's own metrics), then drain cleanly on SIGTERM. This is the
# end-to-end proof that submit → execute → cache → dedup → drain works
# against a real listener, not just httptest.
service:
	$(GO) build -o eeatd-bin ./cmd/eeatd
	rm -rf eeatd-smoke-spool
	./eeatd-bin -addr 127.0.0.1:$(SERVICE_PORT) -workers 2 -spool eeatd-smoke-spool & pid=$$!; \
	ok=0; for i in $$(seq 1 300); do \
		if curl -fsS http://127.0.0.1:$(SERVICE_PORT)/healthz >/dev/null 2>&1; then ok=1; break; fi; sleep 0.2; \
	done; \
	test $$ok -eq 1 || { echo "service: daemon never answered" >&2; kill $$pid; exit 1; }; \
	curl -fsS 'http://127.0.0.1:$(SERVICE_PORT)/v1/jobs?wait=300s' -d '$(SERVICE_JOB)' -o service-first.json || { kill $$pid; exit 1; }; \
	grep -q '"state": "done"' service-first.json || { echo "service: first job did not complete:"; cat service-first.json; kill $$pid; exit 1; }; \
	curl -fsS http://127.0.0.1:$(SERVICE_PORT)/v1/jobs -d '$(SERVICE_JOB)' -o service-second.json || { kill $$pid; exit 1; }; \
	grep -q '"cached": true' service-second.json || { echo "service: resubmission missed the cache:"; cat service-second.json; kill $$pid; exit 1; }; \
	curl -fsS http://127.0.0.1:$(SERVICE_PORT)/metrics -o service-metrics.prom || { kill $$pid; exit 1; }; \
	grep -q 'xlate_service_jobs_admitted_total 1' service-metrics.prom || { echo "service: expected exactly one admitted job" >&2; kill $$pid; exit 1; }; \
	grep -Eq 'xlate_service_cache_hits_total [1-9]' service-metrics.prom || { echo "service: no cache hit recorded" >&2; kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid
	rm -rf eeatd-bin eeatd-smoke-spool service-first.json service-second.json service-metrics.prom
	@echo "service: one run, cached resubmission, clean SIGTERM drain"

# Cluster smoke (DESIGN.md §11): three proofs from one committed
# golden. (1) The golden is current: a single-process run renders it.
# (2) A 3-worker cluster run with a worker killed mid-experiment merges
# the same bytes. (3) The death was real and handled: metrics show one
# dead worker, requeued cells, and exactly 24 executed cells — the
# no-double-execution witness.
cluster:
	$(GO) run ./cmd/experiments $(CLUSTER_FLAGS) -parallel 4 -checkpoint "" \
		| sed 's/^\(## .*\)  (.*s)$$/\1/' > cluster-single.out
	diff $(CLUSTER_GOLDEN) cluster-single.out \
		|| { echo "cluster: committed golden is stale; regenerate it" >&2; exit 1; }
	$(GO) build -o eeatd-bin ./cmd/eeatd
	./eeatd-bin -cluster 3 $(CLUSTER_FLAGS) -chaos kill:0@10 \
		-metrics-out cluster-metrics.prom > cluster-merged.out
	diff $(CLUSTER_GOLDEN) cluster-merged.out \
		|| { echo "cluster: merged report diverged from the single-process golden" >&2; exit 1; }
	grep -q 'xlate_cluster_workers_dead_total 1' cluster-metrics.prom \
		|| { echo "cluster: the chaos kill never registered" >&2; exit 1; }
	grep -Eq 'xlate_cluster_requeues_total [1-9]' cluster-metrics.prom \
		|| { echo "cluster: no cells were requeued after the kill" >&2; exit 1; }
	grep -q 'xlate_cluster_cells_executed_total 24' cluster-metrics.prom \
		|| { echo "cluster: cell execution count wrong (double execution or loss)" >&2; exit 1; }
	rm -f eeatd-bin cluster-single.out cluster-merged.out cluster-metrics.prom
	@echo "cluster: worker killed mid-run; merged report byte-identical, no cell executed twice"

# Chaos soak (DESIGN.md §12): two concurrent fig2 suites through one
# coordinator while the chaos plan kills worker 0 on its 10th RPC and
# the coordinator itself once its journal holds 12 of the 24 cells.
# The supervisor restarts the coordinator, which replays the journal
# and resumes. Proofs: suite-0's report (stdout) matches the committed
# golden byte for byte, RunSoak's internal invariants held (exit 0 —
# every suite golden-identical, cells-executed == distinct cells), and
# metrics show the takeover, the dead worker, and >= 1 federated cache
# hit serving an interrupted cell without re-simulation.
soak:
	$(GO) build -o eeatd-bin ./cmd/eeatd
	rm -f soak.journal
	./eeatd-bin -cluster 3 -soak 2 $(CLUSTER_FLAGS) \
		-chaos kill:0@10,killcoord:12 -journal soak.journal \
		-golden $(CLUSTER_GOLDEN) -metrics-out soak-metrics.prom > soak-report.out
	diff $(CLUSTER_GOLDEN) soak-report.out \
		|| { echo "soak: survivor report diverged from the golden" >&2; exit 1; }
	grep -q 'xlate_cluster_takeovers_total 1' soak-metrics.prom \
		|| { echo "soak: the coordinator kill/takeover never happened" >&2; exit 1; }
	grep -q 'xlate_cluster_workers_dead_total 1' soak-metrics.prom \
		|| { echo "soak: the chaos worker kill never registered" >&2; exit 1; }
	grep -q 'xlate_cluster_cells_executed_total 24' soak-metrics.prom \
		|| { echo "soak: cell execution count wrong (double execution or loss)" >&2; exit 1; }
	grep -Eq 'xlate_cluster_cells_federated_total [1-9]' soak-metrics.prom \
		|| { echo "soak: no interrupted cell was served from a federated cache" >&2; exit 1; }
	rm -f eeatd-bin soak.journal soak-report.out soak-metrics.prom
	@echo "soak: coordinator killed and resumed; reports byte-identical, no cell executed twice"

# Trace smoke (DESIGN.md §15): external ingestion is first-class.
# Record an mcf reference trace, replay it through `eeatsim -replay`
# (the CLI's recorded-trace path), ship it gzip-compressed into a
# 2-worker dev cluster's POST /v1/traces endpoint, and run the
# registered trace:<key> workload through cluster dispatch — workers
# pull the segment from the coordinator by content hash, once each —
# with the report diffed against its committed golden.
TRACE_GOLDEN = testdata/tracec/ingest.golden
trace-smoke:
	rm -rf trace-smoke-dev
	$(GO) build -o eeatsim-bin ./cmd/eeatsim
	$(GO) build -o eeatd-bin ./cmd/eeatd
	./eeatsim-bin -workload mcf -scale 0.1 -seed 7 \
		-record trace-smoke.xltrace -record-refs 200000
	./eeatsim-bin -replay trace-smoke.xltrace -config THP -instrs 400000 -seed 7 > trace-eeatsim.out
	grep -q 'replayed 200000-reference trace' trace-eeatsim.out \
		|| { echo "trace-smoke: eeatsim -replay did not replay the recorded trace:" >&2; cat trace-eeatsim.out >&2; exit 1; }
	./eeatd-bin -cluster 2 -exp "" -instrs 400000 -scale 0.1 -seed 7 \
		-trace-store trace-smoke-dev -ingest trace-smoke.xltrace > trace-ingest.out 2> trace-ingest.err
	diff $(TRACE_GOLDEN) trace-ingest.out \
		|| { echo "trace-smoke: ingested-trace report diverged from its golden" >&2; exit 1; }
	fetches=$$(grep -c 'fetched segment' trace-ingest.err); [ "$$fetches" -eq 2 ] \
		|| { echo "trace-smoke: $$fetches segment fetches, want 2 (one per worker):" >&2; cat trace-ingest.err >&2; exit 1; }
	rm -rf eeatsim-bin eeatd-bin trace-smoke-dev \
		trace-smoke.xltrace trace-ingest.out trace-ingest.err trace-eeatsim.out
	@echo "trace-smoke: recorded trace replayed by eeatsim; ingested trace ran end to end through the cluster, fetched once per worker"

# Go line counts, non-test and test, excluding the benchmark's build
# directory (.bench_build/) and fixture trees (testdata/), then the
# non-test lines of the ROADMAP's two layers: the paper's research core
# and the infrastructure around it.
LOC_FIND = find . -name '*.go' -not -path './.bench_build/*' -not -path '*/testdata/*'
CORE_DIRS = $(addprefix internal/,addr tlb vm rmm lite energy pagetable physmem mmucache trace workloads core)
INFRA_DIRS = $(addprefix internal/,service telemetry harness lint tracec) cmd
loc_layer = $$($(LOC_FIND) ! -name '*_test.go' \( $(foreach d,$(1),-path './$(d)/*' -o) -false \) -exec cat {} + | wc -l)
loc:
	@echo "non-test Go lines: $$($(LOC_FIND) ! -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test Go lines:     $$($(LOC_FIND) -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "  research core:   $(call loc_layer,$(CORE_DIRS))"
	@echo "  infrastructure:  $(call loc_layer,$(INFRA_DIRS))"

# Profile a reduced-scale run and print the hottest ten functions.
# cpu.prof is left behind for `go tool pprof -http` exploration.
profile:
	$(GO) run ./cmd/experiments $(TELEMETRY_FLAGS) -cpuprofile cpu.prof > /dev/null
	$(GO) tool pprof -top -nodecount=10 cpu.prof
