GO ?= go

.PHONY: all build test vet race bench benchsmoke loadsmoke examplesmoke fuzzsmoke oneledger onelane onekinds onerow oneonce onewire onedoor ci

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

# examplesmoke runs the two market examples: both must exit cleanly,
# quickstart must show the Section 3.3 narrative's end, q1 entering
# N1's supply vector once its refusals have raised its price, and
# pricedynamics' agents must serve every query of every period
# (Proposition 3.1 on the Figure 1 market).
examplesmoke:
	@out=$$($(GO) run ./examples/quickstart) || { echo "$$out"; echo 'examplesmoke: examples/quickstart failed'; exit 1; }; \
	if ! echo "$$out" | grep -qF '<- q1 entered the supply vector'; \
	then echo "$$out"; echo 'examplesmoke: examples/quickstart never put q1 in the supply vector'; exit 1; fi
	@out=$$($(GO) run ./examples/pricedynamics) || { echo "$$out"; echo 'examplesmoke: examples/pricedynamics failed'; exit 1; }; \
	if ! echo "$$out" | grep -qF '; 0 queries went unserved'; \
	then echo "$$out"; echo 'examplesmoke: examples/pricedynamics left queries unserved'; exit 1; fi

# fuzzsmoke runs the seven fuzzers briefly on every CI run, each with
# its committed corpus as regression seeds. FuzzFrameDecode holds the
# binary lane's malformed-input promise ("error, never panic, never
# unbounded allocation"); FuzzDedupWindow drives the at-most-once window
# through claim / settle / release / sweep scripts against a map model
# (never two owners of a settled key within its TTL, never a payload
# after release); FuzzSellerLedger drives market.Seller through
# arbitrary offer / accept / new-class / re-cost / period-boundary
# scripts, with and without the activation threshold, against an
# independent model of the one capacity account; FuzzKeyTable drives the engine's key table through add / find
# scripts over numbers and texts against a Go map and a first-appearance
# slice; FuzzCompareKernel holds the comparison kernels of scans and
# filters (refine, which compiles its compare per operator, and
# compareConst) to the general form, ordering.holds, over arbitrary float64 and int64 bits and
# constants, mirrored or not; FuzzParse holds the SQL front end to
# "never panic, print back to the same parse, keywords ASCII
# case-insensitive, errors at a rune boundary"; FuzzLikeMatch holds the LIKE matcher to "never panic, '%'
# matches everything, a pattern without wildcards matches only itself".
# Five seconds finds shallow regressions; run any unbounded
# (`go test -fuzz <name> <pkg>`) when touching frame.go, dedup.go, seller.go,
# group.go, the comparison kernels, lexer.go, parser.go or the LIKE
# matcher.
fuzzsmoke:
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 5s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzDedupWindow$$' -fuzztime 5s
	$(GO) test ./internal/market -run '^$$' -fuzz '^FuzzSellerLedger$$' -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzKeyTable$$' -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzCompareKernel$$' -fuzztime 5s
	$(GO) test ./internal/sqldb -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s
	$(GO) test ./internal/sqldb -run '^$$' -fuzz '^FuzzLikeMatch$$' -fuzztime 5s

# oneledger keeps the capacity ledger in one place: only internal/market
# (Seller.replan) may turn a budget into a time-budget supply set, and
# market.Seller is the one QA-NT trader — there is no bare Agent to
# trade past the ledger, no Seller.Agent() or QANT.Agents() to reach
# one, and NewAgent — the paper's agent, a Seller over a fixed supply
# set with no savings — is built only by internal/market, the
# pricedynamics example and the benchmark's replay. The
# files let through build fixed textbook sets with no ledger behind
# them (Figure 1, the pricedynamics example's tâtonnement, the
# benchmark). It fails when internal/economics declares an interface or
# anything declares a Preference type: the module has one supply set
# and one preference. It also keeps eq. (4) on one
# solver, economics.TimeBudgetSupplySet's greedy-by-density: it fails
# when a Go file names the deleted DP solver or its plumbing, or the
# deleted economics extras that no figure used. And it keeps one buyer,
# market.Rank: it fails when a non-test file outside internal/market
# ranks offers itself — adds or compares QueueMs/EstimateMs, sorts
# offers or bids, or brings back alloc's estimatedFinish.
oneledger:
	@if grep -rnE 'TimeBudgetSupplySet\{' --include='*.go' . \
		| grep -vE '^\./(internal/market/|benchmark/|examples/pricedynamics/|internal/experiments/figure1\.go:)|_test\.go:'; \
	then echo 'oneledger: a time-budget supply set is built outside internal/market (see DESIGN.md, "One QA-NT seller")'; exit 1; fi
	@if grep -nE '^type Agent struct' internal/market/*.go \
		|| grep -rnE 'func \(s \*Seller\) Agent\(|\bAgents\(\)' --include='*.go' . \
		|| grep -rnE '\bNewAgent\(' --include='*.go' . | grep -vE '^\./(benchmark|internal/market|examples/pricedynamics)/'; \
	then echo 'oneledger: a second QA-NT trader or a way to reach one is back; market.Seller is the only one (see DESIGN.md, "One QA-NT seller")'; exit 1; fi
	@if grep -nE '\binterface[[:space:]]*\{' internal/economics/*.go || grep -rnE '^type Preference\b' --include='*.go' .; \
	then echo 'oneledger: an abstract supply set or preference is back; economics speaks TimeBudgetSupplySet and ThroughputPreference (see DESIGN.md, "One QA-NT seller")'; exit 1; fi
	@if grep -rnwE 'ExactTimeBudgetSupplySet|DPScratch|NewExactSeller|SupportingPrices|VerifySTWE|EquitableSplit' --include='*.go' .; \
	then echo 'oneledger: a second eq. (4) solver or a deleted economics extra is back (see DESIGN.md, "One QA-NT seller")'; exit 1; fi
	@if grep -rnE '\bestimatedFinish\b|\b(QueueMs|EstimateMs)\b[[:space:]]*[-+<>]|[-+<>][[:space:]]*[[:alnum:]_.]*\b(QueueMs|EstimateMs)\b|(sort|slices)\.[[:alnum:]]+\((offers|bids|ladder|ranked)\b' --include='*.go' . \
		| grep -vE '^\./internal/market/|_test\.go:'; \
	then echo 'oneledger: offers are ranked outside market.Rank (see DESIGN.md, "One buyer")'; exit 1; fi

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

# oneonce keeps at-most-once the client's only lost-reply policy: a
# lost execute or fetch reply is retransmitted to the same node, whose
# dedup window replays the outcome, and never renegotiated elsewhere.
# It fails when a Go file names the deleted policy switch or the
# exported knobs that only tests set (ShareQueueState and PoolSize among
# them), or when qaload grows its shard-probing off-switch or its
# -poolsize flag back. The conformance row "lost under
# AtMostOnce" keeps its name from when the policy was a switch.
oneonce:
	@if grep -rnwE 'AtMostOnce|ExecRetries|NoShardProbe|ShareQueueState|PoolSize' --include='*.go' . \
		| grep -v 'name: "lost under AtMostOnce"'; \
	then echo 'oneonce: a lost-reply policy or a test-only client knob is exported again (see DESIGN.md §12, "Lost replies")'; exit 1; fi
	@if grep -niE 'noshard' cmd/qaload/*.go; \
	then echo 'oneonce: qaload defines -noshard again; a static view (no -refresh) probes every member'; exit 1; fi
	@if grep -niE 'poolsize' cmd/qaload/*.go; \
	then echo 'oneonce: qaload defines -poolsize again; connections per lane are a test hook'; exit 1; fi

# onewire keeps one handshake, one framing and one client transport.
# Every connection, gossip's included, opens with a hello that carries
# the run id and the mechanism, whose answer names the node and its
# incarnation (boot), and every message in both directions is a frame
# whose header carries the one request id and the one protocol version;
# no request, reply or hello field repeats them or keeps its own
# old-peer rule. Every client RPC rides the node's pooled connections;
# only node-to-node gossip dials per exchange (freshRPC), its hello and
# request in one flush. It fails when a non-test internal/cluster file
# declares run_id, mechanism, fetch_batch, node_id or id on request or
# reply, or v on hello; names the deleted line bound or its error; or
# peeks at a connection to tell two framings apart; or names the deleted
# dial-per-RPC hook freshDial; or when freshRPC takes a frame callback
# again, or a client file calls it; or when a Go file names the deleted
# per-field versions or the old-peer stub mode. It also fails when
# gossipPayload or membersReply names its sender again (from, self),
# when a non-test internal/cluster file serves a connection that never
# said hello ("no hello on this connection"), or when pool.get takes
# the queued releases with no boot comparison: only another incarnation
# drops them.
clustersrc := $(filter-out %_test.go,$(wildcard internal/cluster/*.go))
clientsrc := $(addprefix internal/cluster/,client.go members.go lifecycle.go batcher.go distributed.go)

onewire:
	@if awk '/^type (request|reply) struct/,/^}/' $(clustersrc) \
		| grep -E 'json:"(run_id|mechanism|fetch_batch|node_id)'; \
	then echo 'onewire: request or reply carries a field the hello carries (see DESIGN.md §9, "One handshake")'; exit 1; fi
	@if awk '/^type (request|reply) struct/,/^}/' $(clustersrc) | grep -E 'json:"id[",]' \
		|| awk '/^type hello struct/,/^}/' $(clustersrc) | grep -E 'json:"v[",]'; \
	then echo 'onewire: a message carries an id or a version of its own; the frame header holds both (see DESIGN.md §9, "One framing")'; exit 1; fi
	@if grep -nwE 'maxLineBytes|errLineTooLong' $(clustersrc) || grep -nE '\.Peek\(' $(clustersrc); \
	then echo 'onewire: a second framing is back: a line bound, or a reader that peeks to pick one (see DESIGN.md §9, "One framing")'; exit 1; fi
	@if grep -rnwE 'traceV|gossipV|batchAware' --include='*.go' .; \
	then echo 'onewire: a per-field protocol version or the old-peer stub mode is back (see DESIGN.md §9, "One handshake")'; exit 1; fi
	@if grep -nw 'freshDial' $(clustersrc) \
		|| grep -nE 'func freshRPC\([^)]*frameFunc' $(clustersrc) \
		|| grep -nE '\bfreshRPC\(' $(clientsrc); \
	then echo 'onewire: a second client transport is back: a dial per RPC beside the pools (see DESIGN.md §9, "Connection pool lifecycle")'; exit 1; fi
	@if awk '/^type (gossipPayload|membersReply) struct/,/^}/' $(clustersrc) | grep -E 'json:"(from|self)[",]'; \
	then echo 'onewire: gossip or members names its sender again; the hello names the peer (see DESIGN.md §9, "One handshake")'; exit 1; fi
	@if grep -n 'no hello on this connection' $(clustersrc); \
	then echo 'onewire: a connection that never said hello is served again (see DESIGN.md §9, "One handshake")'; exit 1; fi
	@get=$$(awk '/^func \(p \*pool\) get\(/,/^}/' internal/cluster/pool.go); \
	if echo "$$get" | grep -n 'rel\.take(' && ! echo "$$get" | grep -qiE 'boot[[:alnum:]_.]*[[:space:]]*[!=]=|[!=]=[[:space:]]*[[:alnum:]_.]*boot'; \
	then echo 'onewire: a dial drops the queued releases whatever incarnation it meets (see DESIGN.md §12, "At-most-once execution")'; exit 1; fi

# onedoor keeps one way into the module: its binaries, examples and
# benchmark. There is no importable package, no second simulator CLI
# beside qabench, and no arrival-trace file: every arrival stream is a
# pure function of its seed. It fails when a non-test Go file sits at
# the repo root, when cmd/qasim is back, or when a Go file names the
# deleted trace codec.
rootsrc := $(filter-out %_test.go,$(wildcard *.go))

onedoor:
	@if [ -n "$(rootsrc)" ]; \
	then echo 'onedoor: $(rootsrc) at the repo root; the module has no importable package (see DESIGN.md §1)'; exit 1; fi
	@if [ -e cmd/qasim ]; \
	then echo 'onedoor: cmd/qasim is back; qabench -only <figure> -seed N runs one simulated comparison (see DESIGN.md §1)'; exit 1; fi
	@if grep -rnwE 'SaveTrace|LoadTrace|WriteCSV|ReadCSV' --include='*.go' .; \
	then echo 'onedoor: an arrival-trace file codec is back; arrivals are regenerated from their seed (see DESIGN.md §1)'; exit 1; fi

ci: build vet oneledger onelane onekinds onerow oneonce onewire onedoor test race benchsmoke loadsmoke examplesmoke fuzzsmoke
