// Package cluster is the "real implementation" of the paper's Section
// 5.2: a federation of server nodes, each wrapping an embedded sqldb
// instance and a private QA-NT market agent, talking to clients over
// TCP. Clients negotiate each query with every node (call-for-proposals,
// exactly like the paper's implementation, which "waited for a reply
// from all nodes before deciding"), then send it to the best offer.
//
// Execution-time estimation follows the paper's two-stage scheme: the
// node first plans the query (EXPLAIN) and then overrides the plan-cost
// estimate with past execution times of queries with the same plan
// signature.
package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/qamarket/qamarket/internal/membership"
	"github.com/qamarket/qamarket/internal/trace"
)

// Mechanism selects the allocation protocol a client runs.
type Mechanism string

// Supported allocation mechanisms for the real cluster.
const (
	MechGreedy Mechanism = "greedy"
	MechQANT   Mechanism = "qa-nt"
)

// request is one RPC from client to server.
type request struct {
	// ID tags the request for multiplexed connections: the server echoes
	// it on the reply so many RPCs can be in flight per connection and
	// the client can demux. Zero (omitted) keeps the legacy one-at-a-time
	// framing, where replies match requests by order.
	ID        uint64    `json:"id,omitempty"`
	Op        string    `json:"op"` // "negotiate", "execute", "stats"
	SQL       string    `json:"sql,omitempty"`
	QueryID   int64     `json:"query_id,omitempty"`
	Mechanism Mechanism `json:"mechanism,omitempty"`
	// Gossip carries the sender's membership table on a "gossip" op
	// (anti-entropy push-pull; the reply carries the receiver's table
	// back). The payload's V field lets future table formats coexist
	// with old nodes.
	Gossip *gossipPayload `json:"gossip,omitempty"`
	// Trace carries the client's trace context when the query is being
	// traced. Additive and versioned like Gossip: old servers ignore the
	// unknown field (the query still runs, untraced on that node), and
	// old clients omit it, so mixed fleets interoperate.
	Trace *traceCtx `json:"trace,omitempty"`
	// DeadlineMs is the query's remaining time budget in milliseconds
	// when the request left the client. It is relative, not a wall-clock
	// instant, so federations need no clock sync; the cost is that time
	// on the wire is not charged. Zero means "no deadline". Additive
	// like Trace: old servers ignore it (the query just isn't shed
	// server-side), old clients omit it, so mixed fleets interoperate.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// RunID names the client run for at-most-once dedup: the server
	// caches execute/fetch outcomes keyed by (RunID, op, QueryID, SQL
	// hash) so a retransmit after a lost reply returns the original
	// outcome instead of re-running the query. Empty disables dedup
	// (old clients), and old servers ignore the field.
	RunID string `json:"run_id,omitempty"`
	// Batch carries the additional queries of a batched
	// call-for-proposals on a "negotiate" op: the request's own
	// SQL/QueryID/DeadlineMs fields describe the first query exactly as
	// an unbatched negotiate would, and Batch holds the rest of the
	// coalesced window. A node-wide refusal (draining, or overload at
	// the admission gate) carries no Batch and answers every query of
	// the window. Only a server that ignores the field answers the first
	// query alone, and the rest fail at that node as a short batch
	// reply. A single-query window omits the field entirely, making the
	// request byte-identical to an unbatched negotiate.
	Batch []batchQuery `json:"batch,omitempty"`
	// FetchBatch asks the server to bound streamed fetch batches to this
	// many rows. Servers clamp it to their own FetchBatchRows config;
	// zero accepts the server default.
	FetchBatch int `json:"fetch_batch,omitempty"`
}

// batchQuery is one additional query of a batched call-for-proposals.
type batchQuery struct {
	QueryID int64  `json:"query_id,omitempty"`
	SQL     string `json:"sql"`
	// DeadlineMs is the query's own remaining budget (the batch's
	// queries may carry different deadlines).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// batchProposal answers one batchQuery: the proposal, or the typed
// refusal code the envelope would have carried for an unbatched
// negotiate of that query.
type batchProposal struct {
	QueryID   int64           `json:"query_id,omitempty"`
	Negotiate *negotiateReply `json:"negotiate,omitempty"`
	Err       string          `json:"error,omitempty"`
	Code      string          `json:"code,omitempty"`
}

// traceV is the newest trace-context version this build speaks.
const traceV = 1

// traceCtx links a server's spans into the client's query trace: the
// trace ID names the traced query, Span is the client-side span that
// server spans hang under in the assembled tree.
type traceCtx struct {
	V    int    `json:"v"`
	ID   int64  `json:"id"`
	Span string `json:"span,omitempty"`
}

// spansReply answers the "spans" op with the node's retained spans for
// one trace (request.QueryID; zero returns everything in the ring).
// qactl -trace fans this out to assemble the cross-node span tree.
type spansReply struct {
	Origin string       `json:"origin"`
	Spans  []trace.Span `json:"spans"`
}

// gossipV is the newest gossip payload version this build speaks. The
// member rows are additive JSON, so a v1 node merges whatever fields it
// understands from a newer payload — V exists to make that explicit.
const gossipV = 1

// wireMember is one membership-table row on the wire.
type wireMember struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	Incarnation uint64 `json:"inc"`
	Heartbeat   uint64 `json:"hb"`
	State       string `json:"state"`
	// Catalog is the compact catalog digest: a hash over the sorted
	// relation names the node hosts, so peers detect placement changes
	// without shipping schemas.
	Catalog string `json:"catalog,omitempty"`
	// CatalogFilter is the hex-encoded relation-name Bloom filter
	// behind the digest (catalog.RelationFilter): clients use it to
	// skip CFP fan-out to nodes provably infeasible for a query's
	// relations. Additive like Catalog — old rows omit it and stay
	// fully probed.
	CatalogFilter string `json:"cf,omitempty"`
	// Driver names the member's storage executor ("row", "vector",
	// "mock:row"). Additive: old rows omit it.
	Driver string `json:"drv,omitempty"`
	// Epoch is the member's market age in pricer periods.
	Epoch uint64 `json:"epoch,omitempty"`
}

// gossipPayload rides both directions of a push-pull gossip exchange.
type gossipPayload struct {
	V       int          `json:"v"`
	From    string       `json:"from"`
	Members []wireMember `json:"members"`
}

// membersReply answers the "members" op with the node's merged view,
// for clients refreshing their live view and for qactl -members.
type membersReply struct {
	Self    string       `json:"self"`
	Members []wireMember `json:"members"`
}

// toWireMembers converts a registry snapshot for the wire.
func toWireMembers(ms []membership.Member) []wireMember {
	out := make([]wireMember, len(ms))
	for i, m := range ms {
		out[i] = wireMember{
			ID:            m.ID,
			Addr:          m.Addr,
			Incarnation:   m.Incarnation,
			Heartbeat:     m.Heartbeat,
			State:         m.State.String(),
			Catalog:       m.CatalogDigest,
			CatalogFilter: m.CatalogFilter,
			Driver:        m.Driver,
			Epoch:         m.Epoch,
		}
	}
	return out
}

// fromWireMembers parses wire rows back into registry members.
func fromWireMembers(ws []wireMember) []membership.Member {
	out := make([]membership.Member, len(ws))
	for i, w := range ws {
		out[i] = membership.Member{
			ID:            w.ID,
			Addr:          w.Addr,
			Incarnation:   w.Incarnation,
			Heartbeat:     w.Heartbeat,
			State:         membership.ParseState(w.State),
			CatalogDigest: w.Catalog,
			CatalogFilter: w.CatalogFilter,
			Driver:        w.Driver,
			Epoch:         w.Epoch,
		}
	}
	return out
}

// negotiateReply answers a call-for-proposals.
type negotiateReply struct {
	Feasible   bool    `json:"feasible"`        // node holds the data
	Offer      bool    `json:"offer"`           // node offers to evaluate (QA-NT supply)
	EstimateMs float64 `json:"estimate_ms"`     // predicted execution time
	QueueMs    float64 `json:"queue_ms"`        // predicted wait before execution
	Signature  string  `json:"signature"`       // plan signature (query class)
	FromCache  bool    `json:"from_history"`    // estimate came from past executions
	Err        string  `json:"error,omitempty"` // parse/plan failure
}

// executeReply answers an execute, and a fetch whose result does not
// stream: refused, failed, or beaten to the last unit of supply. An
// accepted fetch answers with frames instead (frame.go).
type executeReply struct {
	Accepted bool    `json:"accepted"` // false when QA-NT supply ran out meanwhile
	Rows     int     `json:"rows"`
	ExecMs   float64 `json:"exec_ms"`
	WaitMs   float64 `json:"wait_ms"`
	Err      string  `json:"error,omitempty"`
}

// NodeStats reports a node's market state for observability.
type NodeStats struct {
	Executed int                `json:"executed"`
	Offers   int                `json:"offers"`
	Rejects  int                `json:"rejects"`
	Prices   map[string]float64 `json:"prices"`
	// Health carries the node's failure-domain counters and gauges
	// (drains, drain rejects, checkpoints, checkpoint age — see the
	// metrics package constants).
	Health map[string]float64 `json:"health,omitempty"`
	// Market is the node's per-period market telemetry snapshot —
	// per-class prices/supply and lifetime trading counters, epoch
	// stamped. Additive: nodes that predate it omit the field and old
	// clients ignore it. The autoscaler's control signal rides here
	// (the stats op stays answerable while draining, so a departing
	// member keeps reporting until it is gone).
	Market *MarketTelemetry `json:"market,omitempty"`
}

// Typed reply codes. Codes classify envelope-level errors so clients
// can react mechanically (the breaker trips on a draining node) instead
// of parsing error strings.
const (
	// CodeDraining marks a node that is gracefully shutting down: it
	// finishes in-flight work but refuses new requests. Clients must
	// open the node's circuit immediately rather than burning timeouts.
	CodeDraining = "draining"
	// CodeOverload marks a work request shed at admission: the node's
	// inflight gate or executor queue is full. A market refusal, not
	// unreachability — the node answered promptly — so clients must NOT
	// trip the breaker; they resubmit elsewhere or next period.
	CodeOverload = "overload"
	// CodeExpired marks a query shed because its remaining deadline
	// budget cannot cover the node's backlog estimate (or the deadline
	// passed while the job sat queued). Also a market refusal: the node
	// is healthy, the query just can't make it here in time.
	CodeExpired = "expired"
	// CodeTooLarge marks a request line refused for exceeding the wire
	// size limit. The answering node is healthy and said so in a
	// well-formed reply, so clients must NOT trip the breaker — but a
	// retry of the same message cannot succeed either, so the error is
	// terminal, not a resubmit.
	CodeTooLarge = "too_large"
)

// msgNodeStopping is reported inside an execute/fetch reply when a hard
// shutdown interrupts a queued query. The query was not run; clients
// may safely resubmit it elsewhere.
const msgNodeStopping = "node shutting down"

// msgOverloaded and msgExpired are the human-readable halves of the
// typed overload/expired refusals.
const (
	msgOverloaded = "node overloaded"
	msgExpired    = "deadline cannot be met"
)

// reply is the union envelope sent back by the server.
type reply struct {
	// ID echoes the request's ID (zero for legacy ordered framing).
	ID        uint64          `json:"id,omitempty"`
	Negotiate *negotiateReply `json:"negotiate,omitempty"`
	// Batch answers the request's Batch queries positionally. Only
	// batch-aware servers populate it; its absence after a batched CFP
	// tells the client the node is old and the remainder of the window
	// must be negotiated per query.
	Batch   []batchProposal `json:"batch,omitempty"`
	Execute *executeReply   `json:"execute,omitempty"`
	Stats   *NodeStats      `json:"stats,omitempty"`
	Gossip  *gossipPayload  `json:"gossip,omitempty"`
	Members *membersReply   `json:"members,omitempty"`
	Spans   *spansReply     `json:"spans,omitempty"`
	Err     string          `json:"error,omitempty"`
	Code    string          `json:"code,omitempty"`
	// NodeID stamps every reply with the answering node's stable
	// identity, so clients learn seed addresses' IDs passively from
	// their first exchange (old nodes omit it and stay addressed by
	// seed address).
	NodeID string `json:"node_id,omitempty"`

	// stream, when set by the fetch handler, tells serveConn to answer
	// with a binary frame stream instead of marshalling this envelope.
	// Unexported — never rides the JSON wire.
	stream *frameStream
}

// writeMsg sends one newline-delimited JSON message. The delimiter is
// written separately: append(b, '\n') would copy the whole marshalled
// message whenever the buffer is exactly full, and the bufio.Writer
// coalesces the two writes anyway.
//
// Messages over maxLineBytes are refused before anything is written —
// the peer would reject the line anyway, and failing pre-write keeps
// the connection clean so the sender can answer (or receive) a typed
// too_large refusal instead of losing the stream mid-line.
func writeMsg(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cluster: encoding message: %w", err)
	}
	if len(b)+1 > maxLineBytes {
		return fmt.Errorf("%w: %d-byte message", ErrTooLarge, len(b)+1)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	if err := w.WriteByte('\n'); err != nil {
		return err
	}
	return w.Flush()
}

// maxLineBytes bounds one newline-delimited message. Without a cap a
// misbehaving client could stream an endless line and grow server
// memory without ever triggering a parse error.
const maxLineBytes = 1 << 20

// ErrTooLarge reports a message over the wire size limit, in either
// direction: an incoming line past maxLineBytes, or an outgoing message
// refused by writeMsg's pre-write check. It classifies as terminal for
// the offending message but says nothing bad about the peer, so the
// circuit breaker must not trip on it.
var ErrTooLarge = errors.New("cluster: message exceeds wire size limit")

// errLineTooLong reports an incoming message exceeding maxLineBytes.
// The connection is unrecoverable afterwards (the stream position is
// mid-line), so after answering a typed too_large refusal the server
// drops it.
var errLineTooLong = fmt.Errorf("%w: line over %d bytes", ErrTooLarge, maxLineBytes)

// readMsg receives one newline-delimited JSON message, refusing lines
// over maxLineBytes.
func readMsg(r *bufio.Reader, v any) error {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return err
		}
		if len(line)+len(frag) > maxLineBytes {
			return errLineTooLong
		}
		line = append(line, frag...)
		if err == nil {
			break
		}
	}
	return json.Unmarshal(line, v)
}

// dial connects with a timeout.
func dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}
