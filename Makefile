GO ?= go

.PHONY: all build test vet race bench benchsmoke loadsmoke fuzzsmoke oneledger onelane onekinds onerow ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The resilience/chaos tests are written to be race-clean; CI runs the
# whole tree under the detector, TestChaosSoakExecutesOnce included: the
# protection paths it soaks are all concurrency.
race:
	$(GO) test -race ./...

# bench runs the benchmark (benchmark/README.md): every seeded
# federation workload, reported end to end and layer by layer. The
# micro-benchmarks are `go test -run NONE -bench <name> <pkg>`.
bench:
	$(GO) run ./benchmark

# benchsmoke just proves every benchmark still compiles and runs.
benchsmoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# loadsmoke drives a tiny qaload run against a self-hosted in-process
# federation: the load generator, pooled transport, and latency
# histograms all exercised end to end in a couple of seconds.
loadsmoke:
	$(GO) run ./cmd/qaload -selfnodes 2 -clients 4 -queries 24 -mix 3 -mspercost 0.005 -period 25

# fuzzsmoke runs the four fuzzers briefly on every CI run, each with
# its committed corpus as regression seeds. FuzzFrameDecode holds the
# binary lane's malformed-input promise ("error, never panic, never
# unbounded allocation"); FuzzSellerLedger drives market.Seller through
# arbitrary offer / accept / new-class / re-cost / period-boundary
# scripts, with and without the activation threshold, against an
# independent model of the one capacity account; FuzzKeyTable drives the engine's key table through add / find
# scripts over numbers and texts against a Go map and a first-appearance
# slice; FuzzParse holds the SQL front end to "never panic, print back
# to the same parse, keywords ASCII case-insensitive, errors at a rune
# boundary". Five seconds finds shallow regressions; run any unbounded
# (`go test -fuzz <name> <pkg>`) when touching frame.go, seller.go,
# group.go, lexer.go or parser.go.
fuzzsmoke:
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 5s
	$(GO) test ./internal/market -run '^$$' -fuzz '^FuzzSellerLedger$$' -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzKeyTable$$' -fuzztime 5s
	$(GO) test ./internal/sqldb -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s

# oneledger keeps the capacity ledger in one place: only internal/market
# (Seller.supplySet) may turn a budget into a time-budget supply set,
# and only a Seller may sell from one — Seller.Agent() and QANT.Agents()
# are observers, and trading through them would admit work the account
# never sees. The files let through build fixed textbook sets with no
# ledger behind them (Figure 1, the examples, the benchmark's Agent
# replay, the facade's doc comment).
oneledger:
	@if grep -rnE '(Exact)?TimeBudgetSupplySet\{' --include='*.go' . \
		| grep -vE '^\./(internal/market/|benchmark/|examples/|internal/experiments/figure1\.go:|qamarket\.go:[0-9]+://)|_test\.go:'; \
	then echo 'oneledger: a time-budget supply set is built outside internal/market (see DESIGN.md, "One QA-NT seller")'; exit 1; fi
	@if grep -rnE '\.Agent\(\)\.(Offer|Accept)\(|Agents\(\)\[[^]]*\]\.(Offer|Accept)\(' --include='*.go' . \
		| grep -vE '^\./internal/market/|_test\.go:'; \
	then echo 'oneledger: a seller is traded through its observer, past the ledger (see DESIGN.md, "One QA-NT seller")'; exit 1; fi

# onelane keeps one lane for fetch results: an accepted fetch leaves a
# node as binary frames (internal/cluster/frame.go) and refusals as the
# JSON envelope an execute gets. It fails when a non-test file under
# internal/cluster declares a slice-typed JSON field for result rows or
# columns, or when the client options that picked a JSON lane come back.
onelane:
	@if grep -nE '\[\][^`]*`json:"(rows|cols)' internal/cluster/*.go | grep -v '_test\.go:'; \
	then echo 'onelane: result rows have a JSON field again (see DESIGN.md §9, "Two lanes")'; exit 1; fi
	@if grep -rnwE 'FetchEnc|FrameV' --include='*.go' .; \
	then echo 'onelane: FetchEnc/FrameV are back; a fetch result has one lane (see DESIGN.md §9, "Two lanes")'; exit 1; fi

# onekinds keeps one kind-byte counter: driver.CountKinds, which counts
# a run of kind bytes with one vectorized pass per kind present. It fails
# when a non-test file outside internal/driver tallies kind bytes itself
# — an ni++ / nf += 1 / "ni, ni+1" counter or a [256]int histogram.
onekinds:
	@if grep -rnE '\b(ni|nf|ns|nb)(\+\+|[[:space:]]*\+=)|\b(ni|nf|ns|nb),[[:space:]]*(ni|nf|ns|nb)[[:space:]]*\+[[:space:]]*1\b|\[256\]int' --include='*.go' . \
		| grep -vE '^\./internal/driver/|_test\.go:'; \
	then echo 'onekinds: kind bytes are counted outside driver.CountKinds (see DESIGN.md §15, "Block = wire format")'; exit 1; fi

# onerow keeps one product executor: every node runs the vectorized
# engine (cluster.NodeConfig.DB builds engine.FromDB), and sqldb's row
# engine is that engine's oracle only. It fails when a non-test file
# outside internal/driver and benchmark wraps the row engine or the
# fault mock as a driver, or picks an executor by name.
onerow:
	@if grep -rnE '\bdriver\.New(Legacy|Mock)\(|\bengine\.SelectDriver\(' --include='*.go' . \
		| grep -vE '^\./(internal/driver|benchmark)/|_test\.go:'; \
	then echo 'onerow: a product path builds the row engine, the mock or a named executor (see DESIGN.md §15, "One executor and its oracle")'; exit 1; fi

ci: build vet oneledger onelane onekinds onerow test race benchsmoke loadsmoke fuzzsmoke
